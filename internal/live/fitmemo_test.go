package live

import (
	"errors"
	"reflect"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/fit"
)

// TestCampaignFitMemoShared pins CampaignConfig.Fits: campaigns and a
// validation sharing one memo over one history give exactly the
// results of private memos, and a second campaign over the same
// placements adds no entry.
func TestCampaignFitMemoShared(t *testing.T) {
	machines, history := testbed(t, 12, 23)
	cfg := CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 4,
		Seed:            23,
	}
	private, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	privateRows, err := Validate(private, history, nil)
	if err != nil {
		t.Fatal(err)
	}

	memo := fit.NewCache()
	cfg.Fits = memo
	shared, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := memo.Len()
	if entries == 0 {
		t.Fatal("the campaign left its memo empty")
	}
	sharedRows, err := Validate(shared, history, memo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, private) {
		t.Error("campaign with a shared memo differs from one with a private memo")
	}
	if !reflect.DeepEqual(sharedRows, privateRows) {
		t.Errorf("validation with the shared memo = %+v, private %+v", sharedRows, privateRows)
	}

	cfg.Link = ckptnet.ChaosLink{Inner: cfg.Link, Faults: ckptnet.LinkFaultConfig{TearProb: 0.2}}
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if got := memo.Len(); got != entries {
		t.Errorf("memo holds %d entries after a second campaign with the same placements, want %d", got, entries)
	}
}

// TestCampaignFitMemoKeyReuse pins the memo's scope: it belongs to one
// history. A memo filled from another history under the same machine
// names fails with fit.ErrKeyReuse instead of serving stale fits.
func TestCampaignFitMemoKeyReuse(t *testing.T) {
	machinesA, historyA := testbed(t, 8, 29)
	machinesB, historyB := testbed(t, 8, 31)
	if machinesA[0].Name != machinesB[0].Name {
		t.Fatalf("testbeds name machines differently (%q, %q); the check needs shared names", machinesA[0].Name, machinesB[0].Name)
	}
	memo := fit.NewCache()
	cfg := CampaignConfig{
		Machines:        machinesA,
		History:         historyA,
		Fits:            memo,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 3,
		Seed:            29,
	}
	camp, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Machines, cfg.History = machinesB, historyB
	if _, err := RunCampaign(cfg); !errors.Is(err, fit.ErrKeyReuse) {
		t.Errorf("campaign over another history with a filled memo: err = %v, want fit.ErrKeyReuse", err)
	}
	if _, err := Validate(camp, historyB, memo); !errors.Is(err, fit.ErrKeyReuse) {
		t.Errorf("validation against another history with a filled memo: err = %v, want fit.ErrKeyReuse", err)
	}
}
