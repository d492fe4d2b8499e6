package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

const mod = "github.com/cycleharvest/ckptsched/internal/"

// TestAttribute pins what cpu.<pkg>_s means: the innermost repository
// package on the stack owns the sample, whatever standard-library or
// runtime code runs beneath it.
func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"std leaf under dist", []string{
			"math.Exp",
			mod + "dist.(*Hyperexponential).Survival",
			mod + "markov.(*gammaEvaluator).ratio",
			mod + "markov.Model.BuildSchedule",
			mod + "experiments.RunSweep.func1",
		}, "dist"},
		{"markov frame innermost", []string{
			mod + "markov.(*gammaEvaluator).ratio",
			mod + "mathx.GoldenSection",
			mod + "markov.Model.Topt",
		}, "markov"},
		{"closure of an internal package", []string{
			"runtime.memmove",
			mod + "experiments.RunSweep.func1",
		}, "experiments"},
		{"subpackage-looking path", []string{
			mod + "imagestore.sumChunk",
			mod + "ckptnet.encodeCheckpoint",
		}, "imagestore"},
		{"syscall under serve", []string{
			"internal/runtime/syscall.Syscall6",
			"syscall.write",
			"net.(*conn).Write",
			"bufio.(*Writer).Flush",
			mod + "serve.(*FastRunning).serveConn",
		}, "serve"},
		{"allocation under fit", []string{
			"runtime.mallocgc",
			"runtime.makeslice",
			mod + "fit.Hyperexp",
		}, "fit"},
		{"assist inside user code stays with the caller", []string{
			"runtime.gcDrainN",
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			mod + "condor.(*Pool).match",
		}, "condor"},
		{"background mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, "gc"},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"scavenger", []string{"runtime.(*scavengerState).run", "runtime.bgscavenge"}, "gc"},
		{"benchmark client", []string{
			"encoding/json.(*decodeState).object",
			"main.(*serveMix).lookup",
		}, "other"},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{"unknown internal package", []string{mod + "newpkg.F", mod + "dist.F"}, "other"},
		{"module root is not a layer", []string{"github.com/cycleharvest/ckptsched.Schedule", "main.main"}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBucketsNamePackages keeps cpuBuckets in step with the package
// names attribute can return.
func TestBucketsNamePackages(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range cpuBuckets {
		if seen[b] {
			t.Errorf("bucket %q listed twice", b)
		}
		seen[b] = true
		if b == "gc" || b == "other" {
			continue
		}
		if got := attribute([]string{mod + b + ".F"}); got != b {
			t.Errorf("a frame in package %q is charged to %q", b, got)
		}
	}
	if !seen["gc"] || !seen["other"] {
		t.Error("cpuBuckets lacks gc or other")
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestDecodeProfile decodes a real CPU profile and finds the function
// that burned the CPU on the decoded stacks.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, spin float64
	for _, s := range samples {
		total += s.cpuNanos
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.cpuNanos
				break
			}
		}
		if got := attribute(s.stack); got != "other" && got != "gc" {
			t.Errorf("test-binary sample charged to %q: %v", got, s.stack)
		}
	}
	if total <= 0 || spin < total/2 {
		t.Fatalf("decoded %d samples, %.0f ns total, %.0f ns in spinForProfile", len(samples), total, spin)
	}
}
