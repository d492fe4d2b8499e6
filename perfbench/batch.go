package main

import (
	"fmt"
	"os"
	"time"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/experiments"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/live"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// The sweep and campaigns workloads together are exactly
// `ckpt-experiments -run all` at its default flags: the same pool, the
// same experiments calls, the same derived seeds. Their inputs are the
// archived paper run's (pool seed paperSeed) whatever --seed says: the
// cost of one pool differs from another's by 20-40%, because session
// lengths are heavy-tailed, far more than any regression bound.
const (
	paperMachines = 80
	paperMonths   = 18
	paperSamples  = 85
	paperSeed     = 2005
)

// batch is the shared set-up of the two batch workloads: the 80-machine
// × 18-month pool every experiment draws from.
type batch struct {
	w     *experiments.Workload
	spans spans
	// outcome holds the paper-outcome figures of the last unit.
	outcome map[string]float64
}

func newBatch(e env) (*batch, error) {
	b := &batch{spans: e.spans}
	err := b.spans.time("workload", func() error {
		var err error
		b.w, err = experiments.NewWorkload(experiments.WorkloadConfig{
			Machines: paperMachines,
			Months:   paperMonths,
			Seed:     paperSeed,
		})
		return err
	})
	return b, err
}

func (b *batch) close() {}

func (b *batch) figures() map[string]float64 { return b.outcome }

// stage runs one experiments call (with its rendering), recording its
// wall time as a stage span.
func (b *batch) stage(r *unitResult, name string, fn func() error) {
	err := b.spans.time(name, fn)
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
	}
}

type sweepWorkload struct{ *batch }

func newSweep(e env) (workload, error) {
	b, err := newBatch(e)
	return sweepWorkload{b}, err
}

// unit runs the simulation half of -run all: the C-time sweep behind
// Tables 1 and 3 and Figures 3-4, then Table 2, the sensitivity,
// censoring and prediction studies.
func (s sweepWorkload) unit(int) (r unitResult) {
	defer r.timeAsOp(time.Now())
	seed := int64(paperSeed)
	var out []string
	var t1, t3 *experiments.Table
	s.stage(&r, "sweep", func() error {
		sw, err := experiments.RunSweep(s.w, experiments.PaperCTimes, experiments.PaperCheckpointMB)
		if err != nil {
			return err
		}
		if t1, err = sw.Table1(); err != nil {
			return err
		}
		if t3, err = sw.Table3(); err != nil {
			return err
		}
		out = append(out,
			experiments.RenderFigure("Figure 3", sw.CTimes, sw.Figure3(), 3),
			experiments.RenderTable(t1, 3),
			experiments.RenderFigure("Figure 4", sw.CTimes, sw.Figure4(), 0),
			experiments.RenderTable(t3, 0))
		return nil
	})
	s.stage(&r, "table2", func() error {
		res, err := experiments.RunTable2(experiments.Table2Config{Seed: seed})
		if err == nil {
			out = append(out, experiments.RenderTable2(res))
		}
		return err
	})
	s.stage(&r, "sensitivity", func() error {
		res, err := experiments.RunSensitivity(experiments.SensitivityConfig{Seed: seed})
		if err == nil {
			out = append(out, experiments.RenderSensitivity(res))
		}
		return err
	})
	s.stage(&r, "censoring", func() error {
		res, err := experiments.RunCensoring(experiments.CensoringConfig{Machines: paperMachines / 2, Seed: seed})
		if err == nil {
			out = append(out, experiments.RenderCensoring(res))
		}
		return err
	})
	s.stage(&r, "predict", func() error {
		res, err := experiments.RunPrediction(experiments.PredictionConfig{Seed: seed + 7})
		if err != nil {
			return err
		}
		text, err := experiments.RenderPrediction(res)
		out = append(out, text)
		return err
	})
	r.digest = digestOf(out...)
	if t1 != nil && t3 != nil {
		s.outcome = checkSweepTables(&r, t1, t3)
	}
	return r
}

// checkSweepTables checks the paper's comparative claims on Tables 1
// and 3 and derives the outcome figures from them.
func checkSweepTables(r *unitResult, t1, t3 *experiments.Table) map[string]float64 {
	exp, hx2 := fit.ModelExponential, fit.ModelHyperexp2
	for ci, c := range t3.CTimes {
		most := true
		for _, m := range fit.Models {
			if m != exp && t3.Cells[m][ci].CI.Mean > t3.Cells[exp][ci].CI.Mean {
				most = false
			}
		}
		r.check(most, "Table 3: exponential does not move the most MB at C=%g", c)
	}
	for _, m := range fit.Models {
		cells := t1.Cells[m]
		for ci := 1; ci < len(cells); ci++ {
			r.check(cells[ci].CI.Mean <= cells[ci-1].CI.Mean,
				"Table 1: %v efficiency rises from C=%g to C=%g", m, t1.CTimes[ci-1], t1.CTimes[ci])
		}
	}
	var saving, eff float64
	rows := 0
	for ci, c := range t3.CTimes {
		if c >= 200 {
			saving += 100 * (1 - t3.Cells[hx2][ci].CI.Mean/t3.Cells[exp][ci].CI.Mean)
			rows++
		}
	}
	for _, cell := range t1.Cells[hx2] {
		eff += cell.CI.Mean
	}
	return map[string]float64{
		"outcome.hx2_mb_saving_pct": saving / float64(rows),
		"outcome.hx2_efficiency":    eff / float64(len(t1.Cells[hx2])),
	}
}

type campaignsWorkload struct{ *batch }

func newCampaigns(e env) (workload, error) {
	b, err := newBatch(e)
	return campaignsWorkload{b}, err
}

// unit runs the live-campaign half of -run all: Table 4 and its §5.3
// validation, Table 5, the chaos and the delta campaigns.
func (c campaignsWorkload) unit(int) (r unitResult) {
	defer r.timeAsOp(time.Now())
	seed := int64(paperSeed)
	var out []string
	var t4 *experiments.LiveTable
	var camp *live.Campaign
	c.stage(&r, "table4", func() error {
		var err error
		t4, camp, err = experiments.RunLiveTable("Table 4", experiments.LiveCampaignConfig{
			Workload:        c.w,
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: paperSamples,
			Concurrency:     1,
			Seed:            seed + 4,
		})
		if err == nil {
			out = append(out, experiments.RenderLiveTable(t4))
		}
		return err
	})
	if camp != nil {
		c.stage(&r, "validate", func() error {
			v, err := experiments.RunValidation(c.w, camp)
			if err == nil {
				out = append(out, experiments.RenderValidation(v))
			}
			return err
		})
	}
	c.stage(&r, "table5", func() error {
		t, _, err := experiments.RunLiveTable("Table 5", experiments.LiveCampaignConfig{
			Workload:        c.w,
			Link:            ckptnet.WideAreaLink(),
			SamplesPerModel: paperSamples / 2,
			Concurrency:     1,
			Seed:            seed + 5,
		})
		if err == nil {
			out = append(out, experiments.RenderLiveTable(t))
		}
		return err
	})
	c.stage(&r, "chaos", func() error {
		res, err := experiments.RunChaos(experiments.ChaosConfig{
			Workload: c.w,
			Link:     ckptnet.CampusLink(),
			Faults:   ckptnet.LinkFaultConfig{TearProb: 0.10, StallProb: 0.05, StallSec: 30, OutageProb: 0.10},
			Seed:     seed + 6,
			Predict:  predict.Config{Precision: 0.85, Recall: 0.8, LeadSec: 240},
			Policy:   predict.PolicyMigrate,
		})
		if err == nil {
			out = append(out, experiments.RenderChaos(res))
		}
		return err
	})
	c.stage(&r, "delta", func() error {
		res, err := experiments.RunDelta(experiments.DeltaConfig{
			Workload:  c.w,
			Link:      ckptnet.CampusLink(),
			DirtyRate: 0.001,
			Seed:      seed + 8,
		})
		if err == nil {
			out = append(out, experiments.RenderDelta(res))
		}
		return err
	})
	r.digest = digestOf(out...)
	if t4 != nil {
		rows := map[fit.Model]experiments.LiveRow{}
		for _, row := range t4.Rows {
			rows[row.Model] = row
		}
		exp, hx2 := rows[fit.ModelExponential], rows[fit.ModelHyperexp2]
		r.check(exp.Samples > 0 && hx2.Samples > 0 && exp.MBPerHour > 0, "Table 4: missing exponential or 2-phase row")
		c.outcome = map[string]float64{"outcome.hx2_efficiency": hx2.AvgEfficiency}
		if exp.MBPerHour > 0 {
			c.outcome["outcome.hx2_mb_saving_pct"] = 100 * (1 - hx2.MBPerHour/exp.MBPerHour)
		}
	}
	return r
}
