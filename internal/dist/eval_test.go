package dist

import (
	"math"
	"testing"
)

// sameFloat is bitwise float equality that treats NaN as equal to NaN.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// evalPoints spans the domain edges the Γ probe can reach: the x ≤ 0
// guards, subnormal-adjacent and overflow-adjacent magnitudes, the
// scales of the paper's fits, and the non-finite inputs.
var evalPoints = []float64{
	math.Inf(-1), -1, 0, 1e-300, 1e-9, 0.5, 1, 110, 500, 3409, 2e4, 1e6, 1e300,
	math.Inf(1), math.NaN(),
}

// TestEvalMatchesSeparateCalls pins the Evaler contract: the fused
// evaluation is bitwise identical to Survival, CDF and PartialMoment
// called one by one. The Markov model's Γ probe relies on it to keep
// every schedule, table and trace unchanged.
func TestEvalMatchesSeparateCalls(t *testing.T) {
	fused := []Distribution{
		NewExponential(1.0 / 9000),
		NewExponential(3),
		NewWeibull(0.43, 3409),
		NewWeibull(1, 50),
		NewWeibull(2.5, 700),
		NewHyperexponential([]float64{1}, []float64{1.0 / 4000}),
		NewHyperexponential([]float64{0.7, 0.3}, []float64{1.0 / 600, 1.0 / 20000}),
		NewHyperexponential([]float64{0.6, 0.3, 0.1}, []float64{1.0 / 500, 1.0 / 5000, 1.0 / 50000}),
	}
	fallback := []Distribution{
		NewLogNormal(7, 1.5),
		NewMixture([]float64{0.4, 0.6}, []Distribution{NewWeibull(0.6, 900), NewExponential(1.0 / 7000)}),
		NewEmpirical([]float64{3, 1, 2, 2, 5, 1e4}),
		NewConditional(NewWeibull(0.43, 3409), 2500),
	}
	check := func(d Distribution) {
		t.Helper()
		for _, x := range evalPoints {
			s, cdf, pm := Eval(d, x)
			ws, wcdf, wpm := d.Survival(x), d.CDF(x), d.PartialMoment(x)
			if !sameFloat(s, ws) || !sameFloat(cdf, wcdf) || !sameFloat(pm, wpm) {
				t.Errorf("%s: Eval(%g) = (%v, %v, %v), separate calls give (%v, %v, %v)",
					d.Name(), x, s, cdf, pm, ws, wcdf, wpm)
			}
		}
	}
	for _, d := range fused {
		if _, ok := d.(Evaler); !ok {
			t.Errorf("%s should implement Evaler", d.Name())
		}
		check(d)
	}
	for _, d := range fallback {
		if _, ok := d.(Evaler); ok {
			t.Errorf("%s unexpectedly implements Evaler; move it to the fused list", d.Name())
		}
		check(d)
	}
}

func TestEmpiricalPartialMoment(t *testing.T) {
	e := NewEmpirical([]float64{3, 1, 2, 2, 5})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.2}, {2, 1}, {4.9, 1.6}, {5, 2.6}, {9, 2.6},
	}
	for _, c := range cases {
		if got := e.PartialMoment(c.x); !almostEqual(got, c.want, 1e-15) {
			t.Errorf("PartialMoment(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	// Past the largest value the partial moment is the mean, bit for bit.
	if pm, mean := e.PartialMoment(math.Inf(1)), e.Mean(); pm != mean {
		t.Errorf("PartialMoment(+Inf) = %v, Mean = %v", pm, mean)
	}
}
