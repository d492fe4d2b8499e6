// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload from a single process, calling only the
// layers' public functions, checks the outputs, and prints the result
// as one JSON object on the last line of standard output:
//
//	perfbench --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (endToEnd);
// with --trace 1 it carries the per-layer metrics (perLayer), measured
// on a separate instrumented and CPU-profiled unit. README.md in this
// directory describes the workloads and which layer metric should move
// which end-to-end metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload. The
// operation behind op_p50_ms and op_tail_ms is the workload's unit of
// user-visible work (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// stageNames are the spans recorded around each experiments call (and
// around the workload build); stage.<name>_s is 0 on workloads that do
// not make the call.
var stageNames = []string{
	"workload", "sweep", "table2", "sensitivity", "censoring", "predict",
	"table4", "validate", "table5", "chaos", "delta",
}

// cpuBuckets are the internal packages CPU samples are charged to, plus
// the gc and other buckets (see attribute).
var cpuBuckets = []string{
	"ckptnet", "cliflag", "condor", "core", "dist", "experiments", "fit",
	"forecast", "imagestore", "live", "markov", "mathx", "obs", "parallel",
	"predict", "serve", "sim", "stats", "trace", "gc", "other",
}

// layerCounters are the per-layer figures read from the layers'
// registries and from the workload's own client-side measurements. A
// figure a workload does not produce reads 0.
var layerCounters = []metricDef{
	{"fit.em_fits", "count"},
	{"fit.em_iters", "count"},
	{"fit.cache_misses", "count"},
	{"fit.cache_hit_ratio", "ratio"},
	{"markov.schedule_builds", "count"},
	{"markov.golden_evals", "count"},
	{"markov.warm_ratio", "ratio"},
	{"serve.sched_server_p50_ms", "ms"},
	{"serve.interval_server_p50_us", "us"},
	{"serve.shed", "count"},
	{"serve.coalesced", "count"},
	{"ckptnet.bytes_moved_mb", "MB"},
	{"ckptnet.retries", "count"},
	{"wire.recovery_ms", "ms"},
	{"imagestore.chunks_hashed", "count"},
	{"imagestore.delta_ratio", "ratio"},
	{"imagestore.dedup_ratio", "ratio"},
	{"client.sched_per_s", "1/s"},
	{"client.sched_p50_ms", "ms"},
	{"client.sched_p99_ms", "ms"},
	{"client.interval_p50_us", "us"},
	{"client.interval_p99_us", "us"},
	{"client.ckpt_p50_ms", "ms"},
	{"client.ckpt_p90_ms", "ms"},
	{"client.wire_mb_per_ckpt", "MB"},
	{"outcome.hx2_mb_saving_pct", "%"},
	{"outcome.hx2_efficiency", "ratio"},
	{"trace_overhead_pct", "%"},
}

// perLayer is the full per-layer list, in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range stageNames {
		out = append(out, metricDef{"stage." + s + "_s", "s"})
	}
	for _, b := range cpuBuckets {
		out = append(out, metricDef{"cpu." + b + "_s", "s"})
	}
	return append(out, layerCounters...)
}

// setupRuns is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupRuns = 3

// env is what a set-up receives.
type env struct {
	seed int64
	// reg is nil on untraced units. When set, the workload wires it
	// into the servers it builds (serve.Options.Registry and the like).
	reg *obs.Registry
	// spans receives stage timings (stage.<name>_s).
	spans spans
}

// workload is one set-up instance: unit runs one measured unit of work
// against it, figures reports the workload-specific per-layer figures
// (client.*, outcome.*, wire.*) over every unit run so far, and close
// releases what set-up started.
type workload interface {
	unit(i int) unitResult
	figures() map[string]float64
	close()
}

// spec describes a workload.
type spec struct {
	setUp func(e env) (workload, error)
	// tail is the op-latency quantile of a unit reported as op_tail_ms;
	// 1 means the unit's slowest operation.
	tail float64
	// tracedUnits is how many units a traced run measures per phase.
	tracedUnits int
}

var workloads = map[string]spec{
	"sweep":      {setUp: newSweep, tail: 1, tracedUnits: 1},
	"campaigns":  {setUp: newCampaigns, tail: 1, tracedUnits: 1},
	"serve-mix":  {setUp: newServeMix, tail: 0.90, tracedUnits: 8},
	"wire-delta": {setUp: newWireDelta, tail: 0.90, tracedUnits: 1},
}

// unitResult is what one measured unit reports.
type unitResult struct {
	// opsMs are the latencies of the unit's operations, milliseconds.
	opsMs []float64
	// attempted and failed count operations and output checks.
	attempted, failed int
	// digest fingerprints the unit's deterministic outputs; "" when the
	// workload has none.
	digest string
	// verify, when set, runs output checks too costly to time with the
	// unit; the caller runs it after the unit's timing stops.
	verify func(r *unitResult)
}

// check records one output check.
func (r *unitResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// timeAsOp records the unit as one operation that started at start:
// a batch user waits for the whole pass, and single calls are too short
// to time steadily on a shared 2-core host.
func (r *unitResult) timeAsOp(start time.Time) {
	r.opsMs = append(r.opsMs, float64(time.Since(start).Microseconds())/1e3)
}

// fail records one failed operation.
func (r *unitResult) fail(err error) {
	r.attempted++
	r.failed++
	fmt.Fprintln(os.Stderr, "perfbench:", err)
}

// spans accumulates stage wall times in seconds.
type spans map[string]float64

// time runs fn and adds its wall time to the named stage.
func (s spans) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	if s != nil {
		s[name] += time.Since(start).Seconds()
	}
	return err
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: sweep, campaigns, serve-mix, wire-delta")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured-phase budget, seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of an instrumented unit instead")
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	fmt.Println("# env " + stamp(*name, *seed))
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(sp, *seed)
	} else {
		res, err = runUntraced(sp, *name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runUntraced sets the workload up setupRuns times, then repeats its
// unit until the measured-phase budget is spent, and reports the
// end-to-end metrics as medians over units.
func runUntraced(sp spec, name string, seed int64, seconds float64) (*result, error) {
	// Each set-up is closed and collected before the next starts, so
	// only one is ever live and each starts from the same heap. Only
	// the last survives into the measured phase.
	var setups []float64
	var w workload
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if w, err = sp.setUp(env{seed: seed}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	// Per unit: wall and CPU seconds, and the median and tail of its
	// op latencies. Reporting medians over units keeps a transient
	// stall of the host from moving a run's figures.
	var walls, cpus, p50s, tails []float64
	ops := 0
	attempted, failed := 0, 0
	digests := map[string]bool{}
	measured := 0.0 // unit wall time so far; verification is not charged
	for i := 0; ; i++ {
		c0 := cpuSeconds()
		u0 := time.Now()
		r := w.unit(i)
		wall, cpu := time.Since(u0).Seconds(), cpuSeconds()-c0
		if r.verify != nil {
			r.verify(&r)
		}
		attempted += r.attempted
		failed += r.failed
		if r.digest != "" {
			digests[r.digest] = true
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		if len(r.opsMs) > 0 {
			lat := append([]float64(nil), r.opsMs...)
			sort.Float64s(lat)
			p50s = append(p50s, quantile(lat, 0.5))
			tails = append(tails, quantile(lat, sp.tail))
			ops += len(lat)
		}
		// Start another unit only if it should end within the budget.
		measured += wall
		if measured+median(walls) > seconds {
			break
		}
	}
	// Determinism: every unit of a run, and every run of this build
	// with this seed, renders the same outputs.
	if len(digests) > 0 {
		attempted++
		ok := len(digests) == 1
		if ok {
			for d := range digests {
				ok = sameAsEarlierRuns(name, seed, d)
			}
		}
		if !ok {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: check failed: rendered outputs differ between runs of one seed")
		}
	}
	if ops == 0 {
		return nil, fmt.Errorf("workload produced no operations")
	}

	detail := map[string]metric{}
	figs := w.figures()
	for _, m := range perLayer() {
		if v, ok := figs[m.name]; ok {
			detail[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	if b, err := json.Marshal(detail); err == nil {
		fmt.Println("# detail " + string(b))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d units (wall s %.3g), %d operations, %d of %d checks/operations failed\n",
		len(walls), walls, ops, failed, attempted)

	values := map[string]float64{
		"setup_s":    median(setups),
		"run_s":      median(walls),
		"cpu_s":      median(cpus),
		"max_rss_mb": maxRSSMB(),
		"ok_ratio":   1 - float64(failed)/float64(attempted),
		"op_p50_ms":  median(p50s),
		"op_tail_ms": median(tails),
	}
	return newResult(endToEnd, values, attempted, failed), nil
}

// runTraced measures the per-layer metrics on an instrumented set-up
// whose units run with every layer registry and the CPU profiler on.
// An uninstrumented twin runs the same amount of work before it, to
// warm the process up, and after it; the instrumented phase's wall
// time against the second plain phase is the tracing overhead.
func runTraced(sp spec, seed int64) (*result, error) {
	plain, err := sp.setUp(env{seed: seed})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer plain.close()
	reg := obs.NewRegistry()
	stages := spans{}
	traced, err := sp.setUp(env{seed: seed, reg: reg, spans: stages})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer traced.close()

	var all []unitResult
	phase := func(w workload, first int) float64 {
		start := time.Now()
		for i := first; i < first+sp.tracedUnits; i++ {
			all = append(all, w.unit(i))
		}
		return time.Since(start).Seconds()
	}
	phase(plain, 0)
	instrument(reg)
	before := reg.Snapshot()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	wall := phase(traced, 0)
	cpu, err := prof.stop()
	after := reg.Snapshot()
	instrument(nil)
	if err != nil {
		return nil, err
	}
	base := phase(plain, sp.tracedUnits)

	attempted, failed := 0, 0
	digests := map[string]bool{}
	for i := range all {
		r := &all[i]
		if r.verify != nil {
			r.verify(r)
		}
		attempted += r.attempted
		failed += r.failed
		if r.digest != "" {
			digests[r.digest] = true
		}
	}
	if len(digests) > 1 {
		attempted++
		failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed: instrumented and plain units rendered different outputs")
	}

	values := map[string]float64{}
	for k, v := range traced.figures() {
		values[k] = v
	}
	for k, v := range stages {
		values["stage."+k+"_s"] = v
	}
	for k, v := range cpu {
		values["cpu."+k+"_s"] = v
	}
	for k, v := range layerFigures(before, after) {
		values[k] = v
	}
	values["trace_overhead_pct"] = 100 * (wall/base - 1)
	return newResult(perLayer(), values, attempted, failed), nil
}

// instrument points every package-level layer registry at reg (nil
// switches them off again).
func instrument(reg *obs.Registry) {
	fit.Instrument(reg)
	markov.Instrument(reg)
	imagestore.Instrument(reg)
	parallel.Instrument(reg)
	predict.Instrument(reg)
}

// layerFigures derives the registry-backed per-layer figures from the
// counter growth between two snapshots.
func layerFigures(before, after obs.Snapshot) map[string]float64 {
	d := func(name string) float64 {
		return float64(after.Counters[name] - before.Counters[name])
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses, waits := d("fit_cache_hits_total"), d("fit_cache_misses_total"), d("fit_cache_waits_total")
	warm, cold := d("markov_warm_hits_total"), d("markov_cold_scans_total")
	deltas, fulls := d("imagestore_delta_commits_total"), d("imagestore_full_commits_total")
	return map[string]float64{
		"fit.em_fits":            d("fit_em_fits_total"),
		"fit.em_iters":           d("fit_em_iterations_total"),
		"fit.cache_misses":       misses,
		"fit.cache_hit_ratio":    ratio(hits+waits, hits+misses+waits),
		"markov.schedule_builds": d("markov_schedule_builds_total"),
		"markov.golden_evals":    d("markov_golden_evals_total"),
		"markov.warm_ratio":      ratio(warm, warm+cold),
		"serve.sched_server_p50_ms": 1e3 * histQuantile(before.Histograms["serve_schedule_latency_seconds"],
			after.Histograms["serve_schedule_latency_seconds"], 0.5),
		"serve.interval_server_p50_us": 1e6 * histQuantile(before.Histograms["serve_interval_latency_seconds"],
			after.Histograms["serve_interval_latency_seconds"], 0.5),
		"serve.shed":               d("serve_shed_total"),
		"serve.coalesced":          d("serve_schedule_coalesced_total"),
		"ckptnet.bytes_moved_mb":   d("ckptnet_bytes_moved_total") / (1 << 20),
		"ckptnet.retries":          d("ckptnet_retries_total"),
		"imagestore.chunks_hashed": d("imagestore_chunks_hashed_total"),
		"imagestore.delta_ratio":   ratio(deltas, deltas+fulls),
		// The share of chunks a delta checkpoint did not ship: deduped
		// chunks over deduped plus shipped (delta payload bytes over the
		// chunk size).
		"imagestore.dedup_ratio": ratio(d("imagestore_chunks_deduped_total"),
			d("imagestore_chunks_deduped_total")+d("imagestore_delta_bytes_total")/imagestore.DefaultChunkSize),
	}
}

// histQuantile estimates quantile q of the observations a histogram
// gained between two snapshots, interpolating linearly inside the
// containing bucket (the Prometheus histogram_quantile estimator).
func histQuantile(before, after obs.HistogramSnapshot, q float64) float64 {
	n := after.Count - before.Count
	if n == 0 || len(after.Bounds) == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range after.Counts {
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i >= len(after.Bounds) {
				return after.Bounds[len(after.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = after.Bounds[i-1]
			}
			return lo + (after.Bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return after.Bounds[len(after.Bounds)-1]
}

// newResult builds the result line over a fixed metric list; a metric
// the run did not produce reads 0.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) *result {
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res
}

// sameAsEarlierRuns records the digest of this build's outputs for the
// workload and seed under .bench_build, and reports whether an earlier
// run of the same build recorded a different one.
func sameAsEarlierRuns(name string, seed int64, digest string) bool {
	exe, err := os.Executable()
	if err != nil {
		return true
	}
	f, err := os.Open(exe)
	if err != nil {
		return true
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return true
	}
	dir := filepath.Join(".bench_build", "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return true
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d", hex.EncodeToString(h.Sum(nil))[:16], name, seed))
	if prev, err := os.ReadFile(path); err == nil {
		return string(prev) == digest
	}
	// A failed write only loses the cross-run comparison.
	_ = os.WriteFile(path, []byte(digest), 0o644)
	return true
}

// digestOf fingerprints rendered output, ignoring comment lines (the
// CLI's timing lines start with '#').
func digestOf(rendered ...string) string {
	h := sha256.New()
	for _, r := range rendered {
		for _, line := range strings.Split(r, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			io.WriteString(h, line)
			io.WriteString(h, "\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stamp describes the machine and the run.
func stamp(name string, seed int64) string {
	b, _ := json.Marshal(map[string]any{
		"workload":   name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	})
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median of v (v is not modified).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the order statistics of a
// sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}
