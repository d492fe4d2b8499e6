package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/cycleharvest/ckptsched/internal/experiments"
	"github.com/cycleharvest/ckptsched/internal/serve"
)

// serve-mix sizing. In one unit, each of mixClients closed-loop clients
// takes its share of the pool's machines. Per machine it plays the
// process the paper places there: it installs a fresh key (fit plus
// build), then asks the fast path for its next interval at every
// checkpoint of a mean availability period, and does the same again
// after replacing the key with another of the paper's C values (a
// fit-cache hit, build only). So the read:write mix is the pool's own
// checkpoints per availability period, not a chosen constant.
const (
	mixClients  = 2
	mixMachines = 64
	mixMonths   = 6
	mixHistory  = 60 // the workload's MinRecords default
	mixResident = 1024
)

// serveMix is an in-process serve.Server (main API plus the fast path)
// on loopback, with the availability histories of a small pool. The
// pool is fixed (paperSeed): like the paper's, its cost varies too much
// from one pool seed to the next; --seed draws the request stream.
type serveMix struct {
	seed  int64
	hists [][]float64
	avail []float64 // mean availability period of each machine, s
	rn    *serve.Running
	fr    *serve.FastRunning
	http  *http.Client
	api   string
	fast  string

	// Client-side samples pooled over every unit of the run.
	mu        sync.Mutex
	schedMs   []float64
	installS  float64 // wall seconds of the units that made the installs
	intervals []float64
}

func newServeMix(e env) (workload, error) {
	s := &serveMix{seed: e.seed}
	err := e.spans.time("workload", func() error {
		w, err := experiments.NewWorkload(experiments.WorkloadConfig{
			Machines: mixMachines,
			Months:   mixMonths,
			Seed:     paperSeed,
		})
		if err != nil {
			return err
		}
		for _, m := range w.Data {
			// Every posted history has the same length, so the fit cost
			// of an install depends on the machine, not on how many
			// records its trace happened to collect.
			h := append(append([]float64(nil), m.Train...), m.Test...)[:mixHistory]
			s.hists = append(s.hists, h)
			var sum float64
			for _, v := range h {
				sum += v
			}
			s.avail = append(s.avail, sum/float64(len(h)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Bounded stores keep the resident set independent of how many
	// units a run fits: old keys are evicted, lookups hit recent ones.
	srv := serve.New(serve.Options{Registry: e.reg, MaxFits: mixResident, MaxSchedules: mixResident})
	if s.rn, err = srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if s.fr, err = srv.StartFast("127.0.0.1:0"); err != nil {
		s.shutdownAPI()
		return nil, err
	}
	s.api = "http://" + s.rn.Addr().String() + "/v1/schedule"
	s.fast = s.fr.Addr().String()
	s.http = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: mixClients},
	}
	return s, nil
}

func (s *serveMix) shutdownAPI() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.rn.Shutdown(ctx)
}

func (s *serveMix) close() {
	s.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.fr.Shutdown(ctx)
	s.shutdownAPI()
}

// clientResult is one client's share of a unit.
type clientResult struct {
	unitResult
	schedMs []float64
}

// unit runs mixClients closed-loop clients side by side; op latency is
// the fast-path interval lookup.
func (s *serveMix) unit(i int) unitResult {
	start := time.Now()
	results := make([]clientResult, mixClients)
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = s.client(i, c)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	var r unitResult
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cr := range results {
		r.opsMs = append(r.opsMs, cr.opsMs...)
		r.attempted += cr.attempted
		r.failed += cr.failed
		s.schedMs = append(s.schedMs, cr.schedMs...)
		s.intervals = append(s.intervals, cr.opsMs...)
	}
	s.installS += wall
	return r
}

// client is one closed-loop client: every request waits for the
// previous response. The clients split the pool's machines between
// them in an order drawn from the seed; C cycles over the paper's
// values, so every unit does the same installs and lookups.
func (s *serveMix) client(unit, c int) clientResult {
	var r clientResult
	order := rand.New(rand.NewSource(s.seed*7919 + int64(unit))).Perm(len(s.hists))
	conn, err := net.Dial("tcp", s.fast)
	if err != nil {
		r.fail(fmt.Errorf("dial fast path: %w", err))
		return r
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	ctimes := experiments.PaperCTimes
	for k := c; k < len(order); k += mixClients {
		m := order[k]
		key := fmt.Sprintf("u%d-m%d", unit, m)
		for j, replace := range []bool{false, true} {
			cost := ctimes[(m+j*len(ctimes)/2)%len(ctimes)]
			if s.install(&r, key, s.hists[m], cost, replace) {
				s.follow(&r, conn, br, key, cost, s.avail[m])
			}
		}
	}
	return r
}

// follow walks key's schedule the way a process on the machine does:
// it asks for the interval at age 0, and after each interval T and its
// checkpoint of cost C asks again at age + T + C, until the age passes
// the machine's mean availability period. Every step adds at least C,
// so the walk ends.
func (s *serveMix) follow(r *clientResult, conn net.Conn, br *bufio.Reader, key string, cost, avail float64) {
	for age := 0.0; age < avail; {
		t, ok := s.lookup(r, conn, br, key, age)
		if !ok {
			return
		}
		age += t + cost
	}
}

// install POSTs one schedule request and checks the reply: 200 with at
// least one interval.
func (s *serveMix) install(r *clientResult, key string, hist []float64, cost float64, replace bool) bool {
	body, err := json.Marshal(map[string]any{
		"key": key, "model": "hyperexp2", "data": hist, "c": cost, "replace": replace,
	})
	if err != nil {
		r.fail(err)
		return false
	}
	start := time.Now()
	resp, err := s.http.Post(s.api, "application/json", bytes.NewReader(body))
	if err != nil {
		r.fail(fmt.Errorf("install %s: %w", key, err))
		return false
	}
	var doc struct {
		Intervals int `json:"intervals"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&doc)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.schedMs = append(r.schedMs, float64(time.Since(start).Microseconds())/1e3)
	ok := resp.StatusCode == http.StatusOK && derr == nil && doc.Intervals >= 1
	r.check(ok, "install %s: status %d, %d intervals, decode error %v", key, resp.StatusCode, doc.Intervals, derr)
	return ok
}

// lookup issues one fast-path interval request over the client's
// persistent connection and checks the reply: 200 with a finite,
// positive T, which it returns.
func (s *serveMix) lookup(r *clientResult, conn net.Conn, br *bufio.Reader, key string, age float64) (float64, bool) {
	req := "GET /v1/schedule/" + key + "/interval?age=" + strconv.FormatFloat(age, 'g', -1, 64) +
		" HTTP/1.1\r\nHost: bench\r\n\r\n"
	start := time.Now()
	if _, err := io.WriteString(conn, req); err != nil {
		r.fail(fmt.Errorf("lookup %s: %w", key, err))
		return 0, false
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		r.fail(fmt.Errorf("lookup %s: %w", key, err))
		return 0, false
	}
	var doc struct {
		T float64 `json:"t"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&doc)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.opsMs = append(r.opsMs, float64(time.Since(start).Nanoseconds())/1e6)
	ok := resp.StatusCode == http.StatusOK && derr == nil && doc.T > 0 && !math.IsInf(doc.T, 0)
	r.check(ok, "lookup %s age %g: status %d, t %g, decode error %v", key, age, resp.StatusCode, doc.T, derr)
	return doc.T, ok
}

func (s *serveMix) figures() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sched := append([]float64(nil), s.schedMs...)
	sort.Float64s(sched)
	iv := append([]float64(nil), s.intervals...)
	sort.Float64s(iv)
	return map[string]float64{
		"client.sched_per_s":     float64(len(sched)) / s.installS,
		"client.sched_p50_ms":    quantile(sched, 0.5),
		"client.sched_p99_ms":    quantile(sched, 0.99),
		"client.interval_p50_us": 1e3 * quantile(iv, 0.5),
		"client.interval_p99_us": 1e3 * quantile(iv, 0.99),
	}
}
