package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// goldenRun replays one fixed trace with tracing and history on and
// returns a digest of every Result field (floats by their exact bit
// pattern), the JSONL trace export and the history export.
func goldenRun(t *testing.T, pc predict.Config, policy predict.Policy) string {
	t.Helper()
	// Mean 1500 s availabilities against C=R=100 s: a mix of periods
	// evicted during recovery, work and checkpoints.
	avail := randomTrace(2005, 400)
	for i := range avail {
		avail[i] *= 1500.0 / 4000
	}
	tr := obs.NewTracer(obs.TracerOptions{Clock: func() float64 { return 0 }, FullFidelity: true, RingCapacity: -1})
	c, h := histCfg(100, 3600, 4096)
	c.Trace = tr
	c.Predict = pc
	c.Policy = policy
	c.PredictSeed = 42
	// An age-dependent planner, so interval lengths vary within a period.
	planner := PlannerFunc(func(age float64) (float64, bool) { return 300 + age/8, true })
	res, err := Run(avail, planner, c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	hashFields(sum, reflect.ValueOf(res))
	var buf bytes.Buffer
	if err := obs.WriteTraceJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum.Write(buf.Bytes())
	return hex.EncodeToString(sum.Sum(nil))
}

// hashFields writes every field of struct v into w: floats by
// math.Float64bits, integers and bools as 64-bit words.
func hashFields(w interface{ Write([]byte) (int, error) }, v reflect.Value) {
	var b [8]byte
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var u uint64
		switch f.Kind() {
		case reflect.Float64:
			u = math.Float64bits(f.Float())
		case reflect.Int:
			u = uint64(f.Int())
		case reflect.Bool:
			if f.Bool() {
				u = 1
			}
		default:
			panic("hashFields: unhandled field " + v.Type().Field(i).Name)
		}
		binary.LittleEndian.PutUint64(b[:], u)
		w.Write(b[:])
	}
}

// TestRunGolden pins Run's complete output — Result, trace and
// history — across refactors of the period accounting. The digests
// change only when simulated behaviour does; update them in the same
// commit that says why.
func TestRunGolden(t *testing.T) {
	pc := predict.Config{Precision: 0.7, Recall: 0.8, LeadSec: 300}
	cases := []struct {
		name   string
		pc     predict.Config
		policy predict.Policy
		want   string
	}{
		{"no-predictor", predict.Config{}, predict.PolicyReactive, "572ca3607f9fae93992d4b3642bd31c117a0efd81ae7ea0fc4760edaa7e0a259"},
		{"reactive", pc, predict.PolicyReactive, "382012500f4991324171434fe2fdc537234200ac67bb551b017276b8801d4fe9"},
		{"proactive", pc, predict.PolicyProactive, "386d0f71c476d1651f004470be7bfc076bea79781a56115e35b527039cce8f2a"},
		{"migrate", pc, predict.PolicyMigrate, "27fa1a77826608bd650b0b1133d6f7212cc31820d7da9a174d8ca01cb4158d57"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenRun(t, tc.pc, tc.policy); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}
