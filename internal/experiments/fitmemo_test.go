package experiments

import (
	"reflect"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// TestWorkloadFitMemo pins the workload's fit memo: every campaign on
// one Workload shares it, so RunChaos's three paired campaigns cost the
// fits of its clean campaign alone and a repeat costs none, with
// results unchanged; validation reuses its campaign's fits; and its
// scope is one workload, so workloads from different seeds reuse
// machine names without fit.ErrKeyReuse.
func TestWorkloadFitMemo(t *testing.T) {
	reg := obs.NewRegistry()
	fit.Instrument(reg)
	defer fit.Instrument(nil)
	emFits := reg.Counter("fit_em_fits_total", "")
	misses := reg.Counter("fit_cache_misses_total", "")
	newWorkload := func(seed int64) *Workload {
		w, err := NewWorkload(WorkloadConfig{Machines: 12, Months: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// counted runs fn and returns the EM fits and cache misses it cost.
	counted := func(fn func() error) (ems, miss uint64) {
		e0, m0 := emFits.Value(), misses.Value()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return emFits.Value() - e0, misses.Value() - m0
	}
	chaos := ChaosConfig{Seed: 41}

	cleanEMs, cleanMisses := counted(func() error {
		_, _, err := RunLiveTable("clean", LiveCampaignConfig{
			Workload:        newWorkload(41),
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: 5,
			Seed:            chaos.Seed,
		})
		return err
	})
	if cleanMisses == 0 || cleanEMs == 0 {
		t.Fatalf("clean campaign fitted nothing (%d EM fits, %d misses)", cleanEMs, cleanMisses)
	}

	w := newWorkload(41)
	chaos.Workload = w
	var first, second *ChaosResult
	ems, miss := counted(func() (err error) { first, err = RunChaos(chaos); return err })
	if ems != cleanEMs || miss != cleanMisses {
		t.Errorf("RunChaos cost %d EM fits and %d misses, its clean campaign alone %d and %d", ems, miss, cleanEMs, cleanMisses)
	}
	ems, miss = counted(func() (err error) { second, err = RunChaos(chaos); return err })
	if ems != 0 || miss != 0 {
		t.Errorf("a repeated RunChaos cost %d EM fits and %d misses, want none", ems, miss)
	}

	chaos.Workload = &Workload{Machines: w.Machines, History: w.History} // no memo: private fits per campaign
	private, err := RunChaos(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, private) || !reflect.DeepEqual(second, private) {
		t.Error("RunChaos with the workload memo differs from RunChaos with private memos")
	}

	other := newWorkload(43)
	if other.Machines[0].Name != w.Machines[0].Name {
		t.Fatalf("workloads name machines differently (%q, %q); the check needs shared names", other.Machines[0].Name, w.Machines[0].Name)
	}
	for i, wl := range []*Workload{w, other, w} {
		_, camp, err := RunLiveTable("t", LiveCampaignConfig{Workload: wl, Link: ckptnet.CampusLink(), SamplesPerModel: 3, Seed: 7})
		if err != nil {
			t.Fatalf("campaign %d, on workloads sharing machine names: %v", i, err)
		}
		// Validation refits exactly the campaign's pairs: all memo hits.
		ems, miss := counted(func() error { _, err := RunValidation(wl, camp); return err })
		if ems != 0 || miss != 0 {
			t.Errorf("validating campaign %d cost %d EM fits and %d misses, want none", i, ems, miss)
		}
	}
}
