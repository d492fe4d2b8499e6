package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// TestParallelStagesDeterministic pins the output contract of the two
// parallel stages: RunSweep and RunCensoring, traced, give the same
// results and a byte-identical JSONL trace at GOMAXPROCS 1 and 4.
// Workers finish in any order, but every cell writes its own slot and
// every schedule build runs on the trace lane its cell names.
func TestParallelStagesDeterministic(t *testing.T) {
	w := workload(t)
	run := func(procs int) (results string, jsonl []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr := obs.NewTracer(obs.TracerOptions{FullFidelity: true})
		markov.Trace(tr)
		defer markov.Trace(nil)

		sweep, err := RunSweep(w, []float64{50, 500}, 500)
		if err != nil {
			t.Fatal(err)
		}
		cens, err := RunCensoring(CensoringConfig{Machines: 12, ShortDays: 0.5, Months: 6, Seed: 2005})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraceJSONL(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v\n%v\n%+v", sweep.Efficiency, sweep.MB, *cens), buf.Bytes()
	}
	res1, trace1 := run(1)
	res4, trace4 := run(4)
	if res1 != res4 {
		t.Errorf("results differ between GOMAXPROCS 1 and 4:\n%s\n---\n%s", res1, res4)
	}
	if !bytes.Equal(trace1, trace4) {
		t.Errorf("traces differ between GOMAXPROCS 1 and 4 (%d vs %d bytes)", len(trace1), len(trace4))
	}
	if n := strings.Count(string(trace1), `"markov.build_schedule"`); n == 0 {
		t.Error("trace holds no schedule builds")
	}
}
