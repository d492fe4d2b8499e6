package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// and the metrics this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer())
	for _, m := range doc.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		}
	}

	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
		}
	}
}
