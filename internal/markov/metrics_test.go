package markov

import (
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// TestBuildScheduleMetrics pins the schedule-search accounting: every
// planned interval is either a warm-start hit or a cold scan, and the
// golden-eval counter tracks the objective probes behind them.
func TestBuildScheduleMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	m := Model{Avail: dist.NewWeibull(0.43, 3409), Costs: mustCosts(t, 100, 100, 100)}
	s, err := m.BuildSchedule(0, ScheduleOptions{Horizon: 24 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["markov_schedule_builds_total"]; got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	warm := snap.Counters["markov_warm_hits_total"]
	cold := snap.Counters["markov_cold_scans_total"]
	if int(warm+cold) != s.Len() {
		t.Errorf("warm %d + cold %d != %d intervals", warm, cold, s.Len())
	}
	if cold < 1 {
		t.Error("the first interval always cold-scans")
	}
	if warm == 0 {
		t.Error("a slowly drifting Weibull schedule should warm-start some intervals")
	}
	if evals := snap.Counters["markov_golden_evals_total"]; evals < warm+cold {
		t.Errorf("golden evals = %d, expected at least one per search", evals)
	}

	// Instrumentation must not change the schedule itself.
	Instrument(nil)
	plain, err := m.BuildSchedule(0, ScheduleOptions{Horizon: 24 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != s.Len() {
		t.Fatalf("instrumented schedule has %d intervals, plain has %d", s.Len(), plain.Len())
	}
	for i := range plain.Intervals {
		if plain.Intervals[i] != s.Intervals[i] || plain.Ratios[i] != s.Ratios[i] {
			t.Fatalf("interval %d differs under instrumentation", i)
		}
	}
}

// TestBuildScheduleTraceLanes pins the lane contract: a build with a
// TraceLane runs on traceLaneBase+lane without claiming a counter
// lane, so serial callers' counter lanes stay where they were, and the
// two bands never meet.
func TestBuildScheduleTraceLanes(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{FullFidelity: true})
	Trace(tr)
	defer Trace(nil)

	m := Model{Avail: dist.NewWeibull(0.43, 3409), Costs: mustCosts(t, 100, 100, 100)}
	for _, lane := range []uint64{0, 7, 0, 3} {
		if _, err := m.BuildSchedule(0, ScheduleOptions{Horizon: 3600, TraceLane: lane}); err != nil {
			t.Fatal(err)
		}
	}
	var pids []uint64
	for _, ev := range tr.Events() {
		if ev.Name == "markov.build_schedule" {
			pids = append(pids, ev.Pid)
		}
	}
	want := []uint64{tracePidBase + 1, tracePidBase + 2, traceLaneBase + 3, traceLaneBase + 7}
	if len(pids) != len(want) {
		t.Fatalf("build spans on pids %v, want %v", pids, want)
	}
	for i := range want {
		if pids[i] != want[i] {
			t.Errorf("build spans on pids %v, want %v", pids, want)
			break
		}
	}
}
