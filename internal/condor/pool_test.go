package condor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// fixedMachine has deterministic-ish behavior via tight Weibulls.
func tightDist(mean float64) dist.Distribution {
	// Shape 50 concentrates mass tightly around the scale.
	return dist.NewWeibull(50, mean)
}

func testMachine(name string, mem int) Machine {
	return Machine{
		Name:     name,
		MemoryMB: mem,
		Arch:     "x86",
		Idle:     tightDist(1000),
		Busy:     tightDist(500),
	}
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, 1); err == nil {
		t.Error("empty pool should error")
	}
	if _, err := NewPool([]Machine{{Name: ""}}, 1); err == nil {
		t.Error("unnamed machine should error")
	}
	m := testMachine("a", 512)
	if _, err := NewPool([]Machine{m, m}, 1); err == nil {
		t.Error("duplicate machine should error")
	}
	bad := testMachine("b", 512)
	bad.Idle = nil
	if _, err := NewPool([]Machine{bad}, 1); err == nil {
		t.Error("missing idle distribution should error")
	}
}

func TestJobRunsAndIsEvicted(t *testing.T) {
	p, err := NewPool([]Machine{testMachine("m1", 1024)}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var alloc Alloc
	var evictedAt float64
	j := &Job{
		Name:    "job",
		OnStart: func(a Alloc) { alloc = a },
		OnEvict: func(at float64) { evictedAt = at },
	}
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	// Machine starts idle at t=0, so the job starts immediately with
	// TElapsed 0.
	if j.State() != JobRunning {
		t.Fatalf("state = %v", j.State())
	}
	if alloc.Machine.Name != "m1" || alloc.Start != 0 || alloc.TElapsed != 0 {
		t.Errorf("alloc = %+v", alloc)
	}
	p.RunUntil(5000)
	if j.State() != JobEvicted {
		t.Errorf("state = %v, want evicted", j.State())
	}
	// Idle duration is tightly around 1000 s.
	if evictedAt < 800 || evictedAt > 1200 {
		t.Errorf("evicted at %g, want ≈1000", evictedAt)
	}
	if p.Evictions != 1 || p.Starts != 1 {
		t.Errorf("counters: %d evictions, %d starts", p.Evictions, p.Starts)
	}
}

func TestRequeueRunsAgain(t *testing.T) {
	p, err := NewPool([]Machine{testMachine("m1", 1024)}, 7)
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	j := &Job{Name: "mon", Requeue: true, OnStart: func(Alloc) { starts++ }}
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	p.RunUntil(10000) // several idle/busy cycles of ~1500 s
	if starts < 3 {
		t.Errorf("requeued job started only %d times", starts)
	}
	if p.Evictions < 3 {
		t.Errorf("evictions = %d", p.Evictions)
	}
}

func TestTElapsedWhenJobArrivesMidIdle(t *testing.T) {
	p, err := NewPool([]Machine{testMachine("m1", 1024)}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Let the machine sit idle for 300 s before the job arrives.
	p.RunUntil(300)
	var alloc Alloc
	j := &Job{Name: "late", OnStart: func(a Alloc) { alloc = a }}
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.State() != JobRunning {
		t.Fatalf("state = %v", j.State())
	}
	if alloc.TElapsed != 300 {
		t.Errorf("TElapsed = %g, want 300", alloc.TElapsed)
	}
}

func TestMatchmakingRespectsRequirements(t *testing.T) {
	small := testMachine("small", 256)
	big := testMachine("big", 1024)
	p, err := NewPool([]Machine{small, big}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	j := &Job{Name: "needs-mem", RequiresMB: 512, OnStart: func(a Alloc) { got = a.Machine.Name }}
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	if got != "big" {
		t.Errorf("matched %q, want big", got)
	}
	// Arch requirement that nothing satisfies: job stays queued.
	j2 := &Job{Name: "needs-arm", RequiresArch: "arm64"}
	if err := p.Submit(j2); err != nil {
		t.Fatal(err)
	}
	p.RunUntil(5000)
	if j2.State() != JobQueued {
		t.Errorf("unmatchable job state = %v", j2.State())
	}
	if p.QueueLen() != 1 {
		t.Errorf("queue length = %d", p.QueueLen())
	}
}

func TestOneJobPerMachine(t *testing.T) {
	p, err := NewPool([]Machine{testMachine("m1", 1024)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	j1 := &Job{Name: "a"}
	j2 := &Job{Name: "b"}
	if err := p.Submit(j1); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(j2); err != nil {
		t.Fatal(err)
	}
	if j1.State() != JobRunning || j2.State() != JobQueued {
		t.Errorf("states = %v, %v", j1.State(), j2.State())
	}
	// Completing j1 frees the machine for j2.
	if err := p.Complete(j1); err != nil {
		t.Fatal(err)
	}
	if j1.State() != JobCompleted || j2.State() != JobRunning {
		t.Errorf("after complete: %v, %v", j1.State(), j2.State())
	}
}

func TestSubmitAndRemoveErrors(t *testing.T) {
	p, err := NewPool([]Machine{testMachine("m1", 1024)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(nil); err == nil {
		t.Error("nil job should error")
	}
	j := &Job{Name: "x"}
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(j); err == nil {
		t.Error("double submit should error")
	}
	if err := p.Remove(j); err == nil {
		t.Error("removing a running job should error")
	}
	q := &Job{Name: "q"}
	if err := p.Submit(q); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(q); err != nil {
		t.Fatal(err)
	}
	if q.State() != JobRemoved {
		t.Errorf("state = %v", q.State())
	}
	if err := p.Complete(q); err == nil {
		t.Error("completing a non-running job should error")
	}
}

func TestJobStateString(t *testing.T) {
	want := map[JobState]string{
		JobNew: "new", JobQueued: "queued", JobRunning: "running",
		JobEvicted: "evicted", JobCompleted: "completed", JobRemoved: "removed",
		JobState(9): "state(9)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d: %q, want %q", int(s), got, w)
		}
	}
}

func TestPoolDeterminism(t *testing.T) {
	run := func() (int, int) {
		machines, err := SyntheticPool(SyntheticPoolConfig{Machines: 20, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPool(machines, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 10 {
			if err := p.Submit(&Job{Name: monitorName(i), Requeue: true}); err != nil {
				t.Fatal(err)
			}
		}
		p.RunUntil(MonthsSeconds(1))
		return p.Starts, p.Evictions
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 {
		t.Errorf("pool not deterministic: (%d,%d) vs (%d,%d)", s1, e1, s2, e2)
	}
	if s1 == 0 || e1 == 0 {
		t.Errorf("nothing happened: starts=%d evictions=%d", s1, e1)
	}
}

// matchScan is the matchmaker firstFit replaced, kept as its oracle:
// for each queued job in FIFO order, scan every machine in declaration
// order for the first idle, unoccupied one that matches.
func (p *Pool) matchScan() {
	remaining := p.queue[:0]
	for _, j := range p.queue {
		placed := false
		for _, ms := range p.machines {
			if ms.idle && ms.running == nil && matches(ms.spec, j) {
				p.place(j, ms)
				placed = true
				break
			}
		}
		if !placed {
			remaining = append(remaining, j)
		}
	}
	p.queue = remaining
}

// TestFirstFitMatchesScan drives randomized pools — mixed memory and
// architecture, jobs with and without requirements, requeueing and
// not — through submits, completions and removals, once with firstFit
// and once with the scan oracle, and requires the same placement
// sequence, eviction sequence and counters.
func TestFirstFitMatchesScan(t *testing.T) {
	t.Cleanup(func() { matchPass = (*Pool).firstFit })
	mems := []int{256, 512, 1024, 2048}
	arches := []string{"x86", "arm", "sparc"}
	run := func(trial int64) (log []string, starts, evictions int) {
		rng := rand.New(rand.NewSource(trial))
		var machines []Machine
		for i := range 3 + rng.Intn(10) {
			machines = append(machines, Machine{
				Name:          fmt.Sprintf("m%d", i),
				MemoryMB:      mems[rng.Intn(len(mems))],
				Arch:          arches[rng.Intn(len(arches))],
				Idle:          dist.NewExponential(1 / (200 + 2000*rng.Float64())),
				Busy:          dist.NewExponential(1 / (100 + 1000*rng.Float64())),
				InitiallyBusy: rng.Intn(3) == 0,
			})
		}
		p, err := NewPool(machines, trial)
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]*Job, 4+rng.Intn(16))
		for i := range jobs {
			j := &Job{
				Name:    fmt.Sprintf("j%d", i),
				Requeue: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				j.RequiresMB = mems[rng.Intn(len(mems))]
			}
			if rng.Intn(3) == 0 {
				j.RequiresArch = arches[rng.Intn(len(arches))]
			}
			j.OnStart = func(a Alloc) {
				log = append(log, fmt.Sprintf("start %s on %s at %g (idle %g)", j.Name, a.Machine.Name, a.Start, a.TElapsed))
			}
			j.OnEvict = func(at float64) { log = append(log, fmt.Sprintf("evict %s at %g", j.Name, at)) }
			j.OnComplete = func(at float64) { log = append(log, fmt.Sprintf("complete %s at %g", j.Name, at)) }
			jobs[i] = j
		}
		now := 0.0
		for range 300 {
			now += 500 * rng.Float64()
			p.RunUntil(now)
			j := jobs[rng.Intn(len(jobs))]
			switch j.State() {
			case JobRunning:
				if rng.Intn(2) == 0 {
					err = p.Complete(j)
				}
			case JobQueued:
				if rng.Intn(4) == 0 {
					err = p.Remove(j)
				}
			default:
				err = p.Submit(j)
			}
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("queue %d", p.QueueLen()))
		}
		return log, p.Starts, p.Evictions
	}
	for trial := int64(1); trial <= 40; trial++ {
		matchPass = (*Pool).firstFit
		got, gotStarts, gotEvictions := run(trial)
		matchPass = (*Pool).matchScan
		want, wantStarts, wantEvictions := run(trial)
		if gotStarts != wantStarts || gotEvictions != wantEvictions {
			t.Errorf("trial %d: starts/evictions %d/%d, oracle %d/%d", trial, gotStarts, gotEvictions, wantStarts, wantEvictions)
		}
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("trial %d: event %d is %q, oracle %q", trial, i, got[i], want[i])
				}
			}
			t.Fatalf("trial %d: %d events, oracle %d", trial, len(got), len(want))
		}
		if gotStarts == 0 || gotEvictions == 0 {
			t.Errorf("trial %d: nothing happened (starts %d, evictions %d)", trial, gotStarts, gotEvictions)
		}
	}
}
