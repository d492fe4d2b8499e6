package dist

import (
	"fmt"
	"math/rand"
	"sort"
)

// Empirical is the empirical distribution of an observed sample. It is
// used for goodness-of-fit testing (Kolmogorov-Smirnov distance to a
// fitted model) and for trace bootstrapping in the simulators.
type Empirical struct {
	sorted []float64
}

// NewEmpirical builds the empirical distribution of sample. The input
// slice is copied. It panics on an empty sample.
func NewEmpirical(sample []float64) *Empirical {
	if len(sample) == 0 {
		panic("dist: empirical distribution needs a non-empty sample")
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &Empirical{sorted: s}
}

// N returns the sample size.
func (e *Empirical) N() int { return len(e.sorted) }

// CDF returns the fraction of the sample <= x.
func (e *Empirical) CDF(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, x)
	// Advance over ties so that CDF is right-continuous.
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Survival returns 1 - CDF(x).
func (e *Empirical) Survival(x float64) float64 { return 1 - e.CDF(x) }

// PDF is not defined for an empirical distribution; it returns 0. The
// type satisfies the Distribution interface but not its contract of a
// density — it is a CDF-only object.
func (e *Empirical) PDF(float64) float64 { return 0 }

// Quantile returns the p-th order statistic (type-1 quantile).
func (e *Empirical) Quantile(p float64) float64 {
	n := len(e.sorted)
	switch {
	case p <= 0:
		return e.sorted[0]
	case p >= 1:
		return e.sorted[n-1]
	}
	i := int(p * float64(n))
	if i >= n {
		i = n - 1
	}
	return e.sorted[i]
}

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 {
	sum := 0.0
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// PartialMoment returns the sample's contribution to the mean from
// values up to x: Σ_{xᵢ ≤ x} xᵢ / n, the empirical ∫₀ˣ t dF(t).
func (e *Empirical) PartialMoment(x float64) float64 {
	sum := 0.0
	for _, v := range e.sorted {
		if v > x {
			break
		}
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Name implements Distribution.
func (e *Empirical) Name() string { return "empirical" }

// Rand draws uniformly from the sample (bootstrap sampling).
func (e *Empirical) Rand(rng *rand.Rand) float64 {
	return e.sorted[rng.Intn(len(e.sorted))]
}

// KSDistance returns the Kolmogorov-Smirnov statistic
// sup_x |F_n(x) − F(x)| between the empirical CDF and a model CDF.
func (e *Empirical) KSDistance(model Distribution) float64 {
	n := float64(len(e.sorted))
	maxD := 0.0
	for i, x := range e.sorted {
		fm := model.CDF(x)
		lo := float64(i) / n // empirical CDF just below x
		hi := float64(i+1) / n
		if d := fm - lo; d > maxD {
			maxD = d
		}
		if d := hi - fm; d > maxD {
			maxD = d
		}
	}
	return maxD
}

// String returns a short human-readable description.
func (e *Empirical) String() string {
	return fmt.Sprintf("Empirical(n=%d)", len(e.sorted))
}
