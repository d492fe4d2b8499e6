package live

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// totalsOf sums the campaign counters a delta comparison cares about.
func totalsOf(c *Campaign) (mb float64, ckpts, deltas int) {
	for _, s := range c.Samples {
		mb += s.MBMoved
		ckpts += s.Checkpoints
		deltas += s.DeltaCheckpoints
	}
	return
}

// TestRunCampaignDeltaReducesWireBytes pins the ISSUE's acceptance
// criterion at the campaign level: with the same seed and pool, delta
// checkpointing moves strictly fewer megabytes than full-image
// checkpointing, and the savings come from actual delta transfers.
func TestRunCampaignDeltaReducesWireBytes(t *testing.T) {
	machines, history := testbed(t, 16, 11)
	base := CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		CheckpointMB:    500,
		SamplesPerModel: 4,
		Seed:            11,
	}
	full, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	deltaCfg := base
	deltaCfg.Delta = DeltaPolicy{Enabled: true, DirtyRate: 0.001}
	delta, err := RunCampaign(deltaCfg)
	if err != nil {
		t.Fatal(err)
	}

	fullMB, fullCkpts, fullDeltas := totalsOf(full)
	deltaMB, deltaCkpts, deltaDeltas := totalsOf(delta)
	if fullDeltas != 0 {
		t.Errorf("full campaign counted %d delta checkpoints", fullDeltas)
	}
	if fullCkpts == 0 || deltaCkpts == 0 {
		t.Fatalf("degenerate campaigns: %d vs %d checkpoints", fullCkpts, deltaCkpts)
	}
	if deltaDeltas == 0 {
		t.Error("delta campaign shipped no deltas")
	}
	if deltaMB >= fullMB {
		t.Errorf("delta campaign moved %.0f MB, full moved %.0f MB; expected a reduction", deltaMB, fullMB)
	}

	// Work still gets done: sessions commit work at comparable (or
	// better — cheaper checkpoints) efficiency.
	effOf := func(c *Campaign) float64 {
		var work, sess float64
		for _, s := range c.Samples {
			work += s.CommittedWork
			sess += s.SessionSec
		}
		return work / sess
	}
	if effOf(delta) < 0.8*effOf(full) {
		t.Errorf("delta efficiency %.3f collapsed vs full %.3f", effOf(delta), effOf(full))
	}
}

// TestRunCampaignDeltaDeterminism extends the replay contract to the
// delta path: wire sizing is a pure function of the session's work
// history, so two runs of the same config are bit-identical.
func TestRunCampaignDeltaDeterminism(t *testing.T) {
	machines, history := testbed(t, 12, 7)
	run := func(variable bool) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: 3,
			Seed:            7,
			Delta:           DeltaPolicy{Enabled: true, VariableCost: variable},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, variable := range []bool{false, true} {
		a, b := run(variable), run(variable)
		for i := range a.Samples {
			if a.Samples[i].MBMoved != b.Samples[i].MBMoved ||
				a.Samples[i].SessionSec != b.Samples[i].SessionSec ||
				a.Samples[i].DeltaCheckpoints != b.Samples[i].DeltaCheckpoints {
				t.Fatalf("variable=%v: campaign not deterministic at sample %d", variable, i)
			}
		}
	}
}

// TestRunCampaignVariableCostSchedules checks the C(T) curve actually
// reaches the optimizer: scheduling with the interval-dependent cost
// changes the chosen intervals relative to constant-cost delta.
func TestRunCampaignVariableCostSchedules(t *testing.T) {
	machines, history := testbed(t, 12, 5)
	run := func(variable bool) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.CampusLink(),
			CheckpointMB:    500,
			SamplesPerModel: 3,
			Seed:            5,
			Delta:           DeltaPolicy{Enabled: true, DirtyRate: 0.001, VariableCost: variable},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	constC, varC := run(false), run(true)
	same := true
	for i := range constC.Samples {
		if constC.Samples[i].Intervals != varC.Samples[i].Intervals ||
			constC.Samples[i].CommittedWork != varC.Samples[i].CommittedWork {
			same = false
			break
		}
	}
	if same {
		t.Error("variable-cost scheduling produced identical campaigns; curve never reached the optimizer")
	}
	// And it must still commit work.
	var work float64
	for _, s := range varC.Samples {
		work += s.CommittedWork
	}
	if work <= 0 {
		t.Error("variable-cost campaign committed no work")
	}
}

func TestRunCampaignVariableCostRequiresDelta(t *testing.T) {
	machines, history := testbed(t, 8, 3)
	_, err := RunCampaign(CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 1,
		Seed:            3,
		Delta:           DeltaPolicy{VariableCost: true},
	})
	if err == nil {
		t.Fatal("VariableCost without Enabled should be rejected")
	}
}

// rateLink moves bytes at a fixed rate (bytes per second), so transfer
// times are exact.
type rateLink float64

func (r rateLink) TransferTime(bytes int64, _ *rand.Rand) float64 { return float64(bytes) / float64(r) }
func (rateLink) Name() string                                     { return "rate" }

// An eviction that lands halfway through a delta checkpoint bills half
// of that delta's bytes — to the sample and to the wire series — not
// half of the full image.
func TestEvictionMidDeltaBillsDeltaBytes(t *testing.T) {
	machines, history := testbed(t, 4, 11)
	cfg := CampaignConfig{
		Machines:     machines,
		History:      history,
		Link:         rateLink(5 * ckptnet.MB),
		CheckpointMB: 500,
		Delta:        DeltaPolicy{Enabled: true, DirtyRate: 0.0002},
	}
	cfg.setDefaults()
	fits, err := newFitCache(history, nil)
	if err != nil {
		t.Fatal(err)
	}
	session := func(evictAt float64, tr *obs.Tracer) (Sample, int64) {
		c := cfg
		c.Tracer = tr
		c.Wire = obs.NewByteSeries(evictAt+1, 1)
		al := allocation{machine: machines[0], evictAt: evictAt}
		s, err := runSession(c, ckptnet.ChaosLink{Inner: c.Link}, fits, nil, 0, al, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return s, c.Wire.Total()
	}

	// A long session locates the first delta checkpoint and the megabytes
	// of every transfer that completed before it started.
	tr := obs.NewTracer(obs.TracerOptions{Clock: func() float64 { return 0 }, FullFidelity: true, RingCapacity: -1})
	session(1e6, tr)
	var doneMB, deltaMB, at, dur float64
	for _, ev := range tr.Events() {
		if ev.Name != "transfer.recovery" && ev.Name != "transfer.checkpoint" {
			continue
		}
		var mb float64
		for _, a := range ev.Attrs {
			if a.Key == "mb" {
				mb = a.Value().(float64)
			}
		}
		if ev.Name == "transfer.checkpoint" && mb < cfg.CheckpointMB {
			deltaMB, at, dur = mb, ev.Ts, ev.Dur
			break
		}
		doneMB += mb
	}
	if deltaMB == 0 {
		t.Fatal("no delta checkpoint in the session")
	}

	s, wire := session(at+dur/2, nil)
	billed := s.MBMoved - doneMB
	if billed > deltaMB || math.Abs(billed-deltaMB/2) > 1e-9 {
		t.Errorf("evicted mid-delta billed %g MB, want half of the %g MB delta", billed, deltaMB)
	}
	wireMB := float64(wire)/ckptnet.MB - doneMB
	if math.Abs(wireMB-deltaMB/2) > 1.0/ckptnet.MB {
		t.Errorf("wire series billed %g MB for the torn delta, want %g", wireMB, deltaMB/2)
	}
}
