package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// wire-delta sizing: each unit is one campaign on a fresh manager, two
// processes over loopback TCP with 100 checkpoints between them. Once a
// process has a committed base, ckptnet ships every checkpoint as a
// delta of its dirty chunks; only its first checkpoint is a full image.
// The delta process dirties wireDirtyFrac of its chunks per interval,
// so its deltas are small. The full process dirties every chunk, so
// each of its deltas carries all of them, as many bytes as the image.
//
// Two choices here are assumptions, not derived from the repository:
//   - wireDirtyFrac. In the repository's delta model a process dirties
//     DirtyFraction(rate, T) = 1−e^(−rate·T) of its chunks in an
//     interval T. The processes' T_opt here is 7,000-8,300 virtual s,
//     so 3% is a rate of about 4e-6/s. No source in the repository
//     gives a rate that leaves most chunks clean at such intervals:
//     ckpt-experiments' default 0.001/s would dirty 1−e^(−7.7) of
//     them, i.e. every chunk.
//   - The 70/30 split between the processes. It keeps the median
//     checkpoint inside the delta population and the p90 inside the
//     all-chunk one: at 50/50 the median fell in the gap between them
//     and jumped by 20% from run to run.
//
// Virtual time runs wireScale wall seconds per second.
const (
	wireImageBytes     = 16 << 20
	wireChunk          = imagestore.DefaultChunkSize
	wireDeltaIntervals = 70
	wireFullIntervals  = 30
	wireDirtyFrac      = 0.03
	wireScale          = 5e-6
	wireHeartbeat      = 1000 // virtual seconds
)

// wireParams is the manager-assigned 2-phase hyperexponential: half of
// the availability periods average 25 minutes, the other half 2.2 h.
var wireParams = []float64{0.5, 0.5, 1.0 / 1500, 1.0 / 8000}

type wireDelta struct {
	seed int64
	reg  *obs.Registry // nil on untraced runs; each unit then uses its own

	mu     sync.Mutex
	ckptMs []float64
	recMs  []float64
	wire   int64
	ckpts  int
}

// newWireDelta sets up by running a one-checkpoint warm-up campaign:
// the manager, the loopback path, the image buffers and the store all
// go through their first full checkpoint before anything is timed.
func newWireDelta(e env) (workload, error) {
	w := &wireDelta{seed: e.seed, reg: e.reg}
	if _, err := w.campaign("warmup", 1, 1); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *wireDelta) close() {}

// wireProc is one process of a campaign and what it reported.
type wireProc struct {
	job       string
	intervals int
	cfg       ckptnet.DeltaConfig
	rep       *ckptnet.ProcessReport
	err       error
	image     ckptnet.ImageRecord // what the manager committed for job
	stored    bool
}

// campaign starts a manager, runs the delta and then the full process
// for the given numbers of checkpoints, and closes the manager.
// It returns the processes with the image records the manager committed
// for them.
func (w *wireDelta) campaign(tag string, deltaIntervals, fullIntervals int) ([]*wireProc, error) {
	reg := w.reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	assign := ckptnet.AssignerFunc(func(ckptnet.Hello) (ckptnet.Assign, error) {
		return ckptnet.Assign{
			Model:           fit.ModelHyperexp2,
			Params:          wireParams,
			CheckpointBytes: wireImageBytes,
			HeartbeatSec:    wireHeartbeat,
		}, nil
	})
	mgr, err := ckptnet.NewManagerOpts(assign, ckptnet.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	procs := []*wireProc{
		{job: "delta-" + tag, intervals: deltaIntervals,
			cfg: ckptnet.DeltaConfig{ChunkSize: wireChunk, DirtyFrac: wireDirtyFrac, Seed: w.seed*2 + 1}},
		{job: "full-" + tag, intervals: fullIntervals,
			cfg: ckptnet.DeltaConfig{ChunkSize: wireChunk, DirtyFrac: 1, Seed: w.seed*2 + 2}},
	}
	before := reg.Snapshot().Counters["ckptnet_delta_checkpoints_total"]
	// The processes run one after the other. Side by side they contend
	// for the two cores, and the median checkpoint then moved by up to
	// 23% of itself from run to run.
	for _, p := range procs {
		p.rep, p.err = ckptnet.RunProcess(context.Background(), ckptnet.ProcessConfig{
			Addr:         addr.String(),
			JobID:        p.job,
			TimeScale:    wireScale,
			MaxIntervals: p.intervals,
			Delta:        &p.cfg,
		})
	}
	// The manager counts a delta checkpoint when it commits one; the
	// processes count the acks they received. The two must agree.
	counted := reg.Snapshot().Counters["ckptnet_delta_checkpoints_total"] - before
	reported := 0
	for _, p := range procs {
		if p.err != nil {
			return procs, fmt.Errorf("process %s: %w", p.job, p.err)
		}
		if got := len(p.rep.CheckpointSecs); got != p.intervals || p.rep.Evicted {
			return procs, fmt.Errorf("process %s committed %d of %d checkpoints (evicted %v)", p.job, got, p.intervals, p.rep.Evicted)
		}
		reported += p.rep.DeltaCheckpoints
		p.image, p.stored = mgr.Image(p.job)
	}
	if counted != uint64(reported) {
		return procs, fmt.Errorf("manager committed %d delta checkpoints, processes report %d", counted, reported)
	}
	return procs, nil
}

// checkImage checks that the manager committed the process's final
// image: it replays the process's image history (same seed, one
// MutateFraction per interval) and compares CRCs.
func checkImage(p *wireProc) error {
	img := imagestore.NewImage(wireImageBytes, p.cfg.ChunkSize, p.cfg.Seed)
	for range p.rep.Topts {
		img.MutateFraction(p.cfg.DirtyFrac)
	}
	want := crc32.ChecksumIEEE(img.Bytes())
	if !p.stored || p.image.CRC32 != want || p.image.Bytes != wireImageBytes {
		return fmt.Errorf("process %s: manager image crc %08x (%d bytes, stored %v), process image crc %08x",
			p.job, p.image.CRC32, p.image.Bytes, p.stored, want)
	}
	return nil
}

// unit runs one campaign; op latency is the checkpoint, from the start
// of its transfer to the manager's ack. The image replay runs in
// verify, outside the timed unit.
func (w *wireDelta) unit(i int) unitResult {
	var r unitResult
	procs, err := w.campaign(fmt.Sprint(i), wireDeltaIntervals, wireFullIntervals)
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: wire-delta:", err)
		return r
	}
	delta, full := procs[0].rep, procs[1].rep
	r.check(delta.DeltaCheckpoints >= 1, "delta process committed no delta checkpoint")
	// A delta may ship at most twice its dirty share of the image. A
	// dirty rate that dirtied every chunk would ship whole images here.
	maxDelta := wireImageBytes * (1 + float64(wireDeltaIntervals-1)*2*wireDirtyFrac)
	r.check(float64(delta.WireBytes) <= maxDelta,
		"delta process shipped %d bytes in %d checkpoints, want at most %.0f", delta.WireBytes, wireDeltaIntervals, maxDelta)
	r.check(full.DeltaCheckpoints == wireFullIntervals-1,
		"full process committed %d delta checkpoints, want %d", full.DeltaCheckpoints, wireFullIntervals-1)
	r.check(full.WireBytes == int64(wireFullIntervals)*wireImageBytes,
		"full process shipped %d bytes, want %d images' worth", full.WireBytes, wireFullIntervals)
	r.verify = func(r *unitResult) {
		for _, p := range procs {
			err := checkImage(p)
			r.check(err == nil, "%v", err)
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range procs {
		for _, c := range p.rep.CheckpointSecs {
			ms := c * wireScale * 1e3
			r.opsMs = append(r.opsMs, ms)
			w.ckptMs = append(w.ckptMs, ms)
		}
		w.recMs = append(w.recMs, p.rep.RecoverySec*wireScale*1e3)
		w.wire += p.rep.WireBytes
		w.ckpts += len(p.rep.CheckpointSecs)
	}
	return r
}

func (w *wireDelta) figures() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	ck := append([]float64(nil), w.ckptMs...)
	sort.Float64s(ck)
	return map[string]float64{
		"client.ckpt_p50_ms":      quantile(ck, 0.5),
		"client.ckpt_p90_ms":      quantile(ck, 0.9),
		"client.wire_mb_per_ckpt": float64(w.wire) / float64(w.ckpts) / (1 << 20),
		"wire.recovery_ms":        median(w.recMs),
	}
}
