package markov

import (
	"sync/atomic"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

// metrics holds the package's observability hooks. All fields are
// nil-safe obs metrics, so the zero value (instrumentation off) costs
// one predictable branch per schedule build and nothing per Γ probe.
var metrics struct {
	// builds counts BuildSchedule completions; warmHits and coldScans
	// partition its per-interval T_opt searches into warm-start
	// successes and full 64-point geometric rescans.
	builds, warmHits, coldScans *obs.Counter
	// goldenEvals counts objective (Γ(T)/T) evaluations performed by
	// the coarse-scan + golden-section optimizers — the unit of work
	// behind every T_opt search.
	goldenEvals *obs.Counter
}

// Instrument points the package's schedule-search metrics at r
// (DESIGN.md §11 lists the names). Call it before any scheduling work
// begins — typically from main — and do not call it concurrently with
// BuildSchedule or Topt. Instrument(nil) turns instrumentation off.
func Instrument(r *obs.Registry) {
	metrics.builds = r.Counter("markov_schedule_builds_total",
		"Aperiodic schedules built by BuildSchedule.")
	metrics.warmHits = r.Counter("markov_warm_hits_total",
		"Schedule intervals solved by the warm-start window search.")
	metrics.coldScans = r.Counter("markov_cold_scans_total",
		"Schedule intervals solved by the full geometric rescan (first interval or warm-start fallback).")
	metrics.goldenEvals = r.Counter("markov_golden_evals_total",
		"Overhead-ratio objective evaluations during T_opt searches.")
}

// countedRatio wraps f, counting evaluations into *n. The optimizer
// sees the identical function values, so abscissae and ratios are
// unchanged; the count is flushed to the registry in one atomic add
// when the search finishes.
func countedRatio(f func(float64) float64, n *uint64) func(float64) float64 {
	return func(T float64) float64 {
		*n++
		return f(T)
	}
}

// tracePidBase offsets every counter-claimed schedule-build pid lane
// into a band of its own, so callers that hand out small per-session
// or per-run pids (ckpt-sim lanes, campaign sample indices) never
// collide with the lanes BuildSchedule claims from the global counter.
// traceLaneBase starts the band for caller-chosen lanes
// (ScheduleOptions.TraceLane), far enough above the counter band that
// no realistic number of counter claims reaches it.
const (
	tracePidBase  = 1 << 20
	traceLaneBase = 1 << 32
)

// traceState holds the package's tracing hooks. tracer follows the
// same set-before-work contract as Instrument; buildIDs allocates one
// trace pid per BuildSchedule call (offset by tracePidBase).
var traceState struct {
	tracer   *obs.Tracer
	buildIDs atomic.Uint64
}

// Trace points the package's schedule-search tracing at t: every
// BuildSchedule call claims a fresh pid (or runs on its
// ScheduleOptions.TraceLane) and emits one
// "markov.build_schedule" span containing per-interval "markov.topt"
// child spans, all on a virtual time axis of cumulative objective
// evaluations within the build (wall time would make deterministic CLI
// traces irreproducible — DESIGN.md §12). Like Instrument, call it
// before scheduling work begins and not concurrently with BuildSchedule
// or Topt; Trace(nil) turns tracing off. Attaching a tracer restarts
// the pid lane counter, so builds against a fresh tracer always claim
// the same lanes regardless of what ran earlier in the process.
func Trace(t *obs.Tracer) {
	traceState.tracer = t
	traceState.buildIDs.Store(0)
}

// countEvals reports whether the T_opt searches should pay for the
// objective-eval counting wrapper: either the eval counter or the
// tracer (whose span axis is the eval count) is live.
func countEvals() bool {
	return metrics.goldenEvals != nil || traceState.tracer != nil
}
