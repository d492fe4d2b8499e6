package live

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// hashValue writes v into h: floats by math.Float64bits, integers and
// bools as 64-bit words, strings and slices length-prefixed, structs
// field by field.
func hashValue(h hash.Hash, v reflect.Value) {
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	default:
		panic("hashValue: unhandled kind " + v.Kind().String())
	}
}

// goldenCampaign runs one campaign with tracing and the wire series on
// and returns a digest of every Sample field, the JSONL trace export
// and the wire bins.
func goldenCampaign(t *testing.T, mut func(*CampaignConfig)) string {
	t.Helper()
	machines, history := testbed(t, 16, 11)
	tr := obs.NewTracer(obs.TracerOptions{Clock: func() float64 { return 0 }, FullFidelity: true, RingCapacity: -1})
	cfg := CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		CheckpointMB:    500,
		SamplesPerModel: 5,
		Concurrency:     2,
		Seed:            11,
		Tracer:          tr,
		WireBins:        64,
	}
	mut(&cfg)
	camp, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	hashValue(sum, reflect.ValueOf(camp.Samples))
	hashValue(sum, reflect.ValueOf(camp.LinkName))
	hashValue(sum, reflect.ValueOf(camp.Wire.Bins()))
	var buf bytes.Buffer
	if err := obs.WriteTraceJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	sum.Write(buf.Bytes())
	return hex.EncodeToString(sum.Sum(nil))
}

// TestCampaignGolden pins a campaign's complete output — every Sample,
// the trace and the wire series — across refactors of the session
// state machine. The digests change only when replayed behaviour does;
// update them in the same commit that says why.
func TestCampaignGolden(t *testing.T) {
	pc := predict.Config{Precision: 0.7, Recall: 0.8, LeadSec: 300}
	cases := []struct {
		name string
		mut  func(*CampaignConfig)
		want string
	}{
		{"clean", func(*CampaignConfig) {}, "2e065446da3d482f70dea8185a8da0f4be66a947ee84b42a245e6a76cbc373c2"},
		{"chaos", func(c *CampaignConfig) {
			c.Link = ckptnet.ChaosLink{Inner: c.Link, Faults: ckptnet.LinkFaultConfig{
				TearProb: 0.2, StallProb: 0.1, StallSec: 30, OutageProb: 0.15,
			}}
		}, "9fd655b9f9bb4ec9070230114fa82daa5c5acc4e53f104ca83ab5d979e7665f9"},
		{"delta-varcost", func(c *CampaignConfig) {
			c.Delta = DeltaPolicy{Enabled: true, DirtyRate: 0.001, VariableCost: true}
		}, "d55e414f25d8e19f0d34a925b03e8ab0aa04d14fc63ad1fd9a0af9db94c70840"},
		{"forecast", func(c *CampaignConfig) { c.UseForecast = true }, "96ec3c6869dbfaf3bdf2dc97e1e115f18250a5000356c07f24f36007cc89d14b"},
		{"proactive", func(c *CampaignConfig) {
			c.Predict, c.Policy = pc, predict.PolicyProactive
		}, "34179bd4061bc46e2dd43063cdfd695decfcceadf2d4963af205e56261361ef4"},
		{"migrate", func(c *CampaignConfig) {
			c.Predict, c.Policy = pc, predict.PolicyMigrate
		}, "2cd29eb4017d25680924f918e7edf0322bf8aa3e2a6be6e2016383161b77c31e"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenCampaign(t, tc.mut); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}
