// Command bench is caligo's benchmark: seven workloads over the paper's two
// pipelines, driven the way users drive them, every output checked against
// a reference evaluator. See README.md in this directory.
//
//	go run -C bench . -workload scan-serial -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics — the end-to-end ones with -trace 0, the per-layer
// ones with -trace 1. Without -workload, all workloads run with their
// rounds interleaved.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

const (
	rounds     = 5 // timed rounds per run; op_ms is the best round's median
	warmupOps  = 5 // untimed operations before the first round
	setupReps  = 5 // set-up is repeated and setup_s is the median
	minRoundOp = 3 // operations per round, however short the time slice
)

type options struct {
	seed      uint64
	seconds   float64
	trace     bool
	tiny      bool
	calibrate int
	out       string
	dir       string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's result. Marshalled without Workload and Info it
// is exactly the object the driver reads from the last line.
type report struct {
	Workload  string                 `json:"workload,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info is printed and written to result files but is no metric: the
	// pooled percentiles and ops per round of the end-to-end run.
	Info map[string]any `json:"info,omitempty"`
}

// environment is recorded in every result file, so that two files can be
// compared knowing what differed.
type environment struct {
	Seed              uint64  `json:"seed"`
	Seconds           float64 `json:"seconds"`
	Scale             string  `json:"scale"`
	Traced            bool    `json:"traced"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"nproc"`
	GoVersion         string  `json:"go_version"`
	CPUModel          string  `json:"cpu_model"`
	GitCommit         string  `json:"git_commit"`
	Telemetry         bool    `json:"telemetry_enabled"`
	SpanTracing       bool    `json:"span_tracing_enabled"`
	ParallelCannotWin bool    `json:"parallel_cannot_win"`
	Rounds            int     `json:"rounds"`
}

func describeEnvironment(opt options) environment {
	scale := "full"
	if opt.tiny {
		scale = "tiny"
	}
	return environment{
		Seed: opt.seed, Seconds: opt.seconds, Scale: scale, Traced: opt.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), GitCommit: gitCommit(),
		Telemetry: telemetry.Enabled(), SpanTracing: trace.Enabled(),
		ParallelCannotWin: runtime.GOMAXPROCS(0) < 2, Rounds: rounds,
	}
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit without running git; a checkout
// that is no repository reports "unknown".
func gitCommit() string {
	for _, root := range []string{"..", "."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if hash, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(hash))
		}
		packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}

func main() {
	var opt options
	trace01 := 0
	scale, name := "full", "all"
	flag.StringVar(&name, "workload", "all", "workload `name`, or all")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measuring time per workload")
	flag.IntVar(&trace01, "trace", 0, "1: the traced run, reporting the per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full, or tiny for a smoke run")
	flag.IntVar(&opt.calibrate, "calibrate", 0, "run `K` full sets and report each end-to-end metric's spread")
	flag.StringVar(&opt.out, "out", "", "also write the results, with the environment, to this `file`")
	flag.StringVar(&opt.dir, "dir", ".out", "`directory` for generated inputs and trace files")
	flag.Parse()
	opt.trace, opt.tiny = trace01 == 1, scale == "tiny"
	if flag.NArg() > 0 || trace01&^1 != 0 || (scale != "full" && scale != "tiny") {
		flag.Usage()
		os.Exit(2)
	}
	ws, err := selectWorkloads(name)
	if err == nil {
		err = run(opt, ws, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// selectWorkloads resolves -workload.
func selectWorkloads(name string) ([]workload, error) {
	all := workloads()
	if name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w.name() == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(opt options, ws []workload, stdout io.Writer) error {
	// the program's defaults: no cache directory from the environment,
	// telemetry and span tracing at their shipped (off) state
	os.Unsetenv("CALIGO_CACHE")
	work, err := newWorkDir(opt.dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := describeEnvironment(opt)
	fmt.Fprintf(stdout, "# caligo bench: %+v\n", env)

	if opt.calibrate > 0 {
		return calibrate(ws, opt, env, work, stdout)
	}
	var reports []report
	if opt.trace {
		reports, err = runTraced(ws, opt, work, stdout)
	} else {
		reports, err = runEndToEnd(ws, opt, work)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	failed := 0
	for _, r := range reports {
		printReport(stdout, r, defs)
		failed += r.Failed
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, map[string]any{"environment": env, "workloads": reports}); err != nil {
			return err
		}
	}
	for _, r := range reports {
		if len(reports) == 1 {
			r.Workload = ""
		}
		r.Info = nil
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// newWorkDir creates a private directory under dir; everything the run
// generates lives there and goes when the run ends.
func newWorkDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, "run-")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// setUp runs w's set-up setupReps times, each into a fresh directory, and
// returns the median time; the last repetition's inputs stay for the run.
func setUp(w workload, opt options, work string, reps int) (float64, error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(work, w.name(), fmt.Sprintf("setup-%d", rep))
		start := time.Now()
		if err := w.setup(dir, opt.seed, opt.tiny); err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		times = append(times, time.Since(start).Seconds())
		if rep > 0 {
			if err := os.RemoveAll(filepath.Join(work, w.name(), fmt.Sprintf("setup-%d", rep-1))); err != nil {
				return 0, err
			}
		}
	}
	return median(times), nil
}

// warmUp runs untimed operations so caches fill and lazy set-up finishes
// before the clock starts. Their results are not judged: an operation that
// fails here fails again under the clock, where it is counted.
func warmUp(w workload, n int) {
	for i := 0; i < n; i++ {
		if w.prepare() == nil {
			w.op()
		}
	}
}

// runEndToEnd is the run whose numbers count: telemetry and tracing as
// shipped, one closed-loop client, rounds of the selected workloads
// interleaved so a slow spell of the host meets every workload alike.
func runEndToEnd(ws []workload, opt options, work string) ([]report, error) {
	setups := make([]float64, len(ws))
	stats := make([]*opStats, len(ws))
	for i, w := range ws {
		var err error
		if setups[i], err = setUp(w, opt, work, setupReps); err != nil {
			return nil, err
		}
		warmUp(w, warmupOps)
		stats[i] = &opStats{}
	}
	slice := time.Duration(opt.seconds / rounds * float64(time.Second))
	for r := 0; r < rounds; r++ {
		for i, w := range ws {
			stats[i].round(w, slice, minRoundOp)
		}
	}
	reports := make([]report, len(ws))
	for i, w := range ws {
		s := stats[i]
		if s.firstFailure != nil {
			fmt.Fprintln(os.Stderr, "bench:", s.firstFailure)
		}
		units := float64(max(s.units, 1))
		values := map[string]float64{
			"setup_s":                setups[i],
			"op_ms":                  s.bestRoundMedian(),
			"allocs_per_record":      float64(s.mallocs) / units,
			"alloc_bytes_per_record": float64(s.allocBytes) / units,
			"out_bytes_per_snapshot": float64(s.last.outBytes) / float64(max(s.last.units, 1)),
			"out_rows":               float64(s.last.rows),
		}
		reports[i] = report{Workload: w.name(), Correct: s.failed == 0, Attempted: s.attempted,
			Failed: s.failed, Metrics: withUnits(values, endToEnd), Info: s.info()}
	}
	return reports, nil
}

// summary is the pooled view of the timed operations, keyed as the run.*
// per-layer metrics are. These figures do not repeat within a tenth on a
// shared host, which is why they are not end-to-end metrics.
func (s *opStats) summary() map[string]float64 {
	all := s.samples()
	var total float64
	for _, v := range all {
		total += v
	}
	ops := float64(max(len(all), 1))
	return map[string]float64{
		"ops":                float64(len(all)),
		"op_ms_p50":          median(all),
		"op_ms_p90":          quantile(all, 0.9),
		"op_ms_round_spread": s.roundSpread(),
		"records_per_s":      float64(s.units) / (total / 1e3),
		"gc_cycles_per_op":   float64(s.gcCycles) / ops,
		"gc_pause_ms_per_op": float64(s.gcPauseNS) / 1e6 / ops,
		"heap_peak_mb":       float64(s.heapPeak) / (1 << 20),
	}
}

// info is what a result file records of an end-to-end run beside its
// metrics: the summary, the share of failed operations, and every sample.
func (s *opStats) info() map[string]any {
	perRound := make([]int, len(s.rounds))
	for i, r := range s.rounds {
		perRound[i] = len(r)
	}
	info := map[string]any{
		"ops_failed_share": float64(s.failed) / float64(max(s.attempted, 1)),
		"ops_per_round":    perRound,
		"rounds_ms":        s.rounds,
	}
	for k, v := range s.summary() {
		info[k] = v
	}
	return info
}

// withUnits attaches each defined metric's unit; a metric the run did not
// produce is reported as 0 (for a layer: not on this workload's path).
func withUnits(values map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

func printReport(w io.Writer, r report, defs []metricDef) {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, d := range defs {
		if v := r.Metrics[d.Name]; v.Value != 0 {
			fmt.Fprintf(w, "  %-46s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	if len(r.Info) > 0 {
		brief := map[string]any{}
		for k, v := range r.Info {
			if k != "rounds_ms" { // every sample: for result files only
				brief[k] = v
			}
		}
		info, _ := json.Marshal(brief)
		fmt.Fprintf(w, "  info %s\n", info)
	}
}

// tracedOps is a workload whose op runs under the tracer with the
// program's telemetry on: the traced half of the traced run.
type tracedOps struct {
	workload
	t *tracer
}

func (x tracedOps) op() (res result, err error) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	op := x.t.beginOp("op")
	err = op.single("fused", func() (int, error) {
		res, err = x.workload.op()
		return 1, err
	})
	op.end()
	return res, err
}

// runTraced reports the per-layer metrics. It spends the measuring time in
// three parts: fused ops alternating untraced and traced rounds (the
// run.* figures and the tracer's own overhead), the staged replay (the
// layer budget), and the workload's comparisons.
func runTraced(ws []workload, opt options, work string, stdout io.Writer) ([]report, error) {
	reports := make([]report, len(ws))
	for i, w := range ws {
		if _, err := setUp(w, opt, work, 1); err != nil {
			return nil, err
		}
		warmUp(w, warmupOps)
		t := newTracer()
		budget := time.Duration(opt.seconds * float64(time.Second))
		plain, traced := &opStats{}, &opStats{}
		slice := budget * 35 / 100 / (2 * rounds)
		for r := 0; r < rounds; r++ {
			plain.round(w, slice, minRoundOp)
			traced.round(tracedOps{w, t}, slice, minRoundOp)
		}
		for _, s := range []*opStats{plain, traced} {
			if s.firstFailure != nil {
				return nil, s.firstFailure
			}
		}

		telemetry.Enable()
		m, stagedMS, err := w.layers(t, budget*40/100)
		telemetry.Disable()
		if err != nil {
			return nil, fmt.Errorf("%s: staged replay: %w", w.name(), err)
		}

		comparisons := w.comparisons()
		for _, c := range comparisons {
			if err := c.measure(m, budget*25/100/time.Duration(len(comparisons))); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", w.name(), c.metric, err)
			}
		}

		for k, v := range plain.summary() {
			m["run."+k] = v
		}
		m["run.trace_overhead_ratio"] = traced.bestRoundMedian() / plain.bestRoundMedian()
		m["run.unexplained_share"] = (traced.bestRoundMedian() - stagedMS) / traced.bestRoundMedian()
		fused := t.layer("fused")
		m["mpi.messages_per_op"] = float64(fused.counters["caligo.mpi.messages"]) / float64(fused.stages)
		m["mpi.bytes_per_op"] = float64(fused.counters["caligo.mpi.bytes"]) / float64(fused.stages)

		for name := range m {
			if !defined(perLayer, name) {
				return nil, fmt.Errorf("%s reports %q, which BENCHMARK.json does not list", w.name(), name)
			}
		}
		printBudget(stdout, w.name(), t, traced.bestRoundMedian(), stagedMS)
		path := filepath.Join(opt.dir, "trace-"+w.name()+".json")
		if err := t.writeChromeTrace(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace of %s: %d spans in %s\n", w.name(), len(t.spans), path)
		reports[i] = report{Workload: w.name(), Correct: true,
			Attempted: plain.attempted + traced.attempted, Metrics: withUnits(m, perLayer)}
	}
	return reports, nil
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// measure alternates the comparison's two operations for about budget (at
// least minRoundOp pairs) and stores the ratio of their median times.
func (c comparison) measure(m map[string]float64, budget time.Duration) error {
	var num, den []float64
	timed := func(fn func() error, into *[]float64) error {
		start := time.Now()
		err := fn()
		*into = append(*into, float64(time.Since(start).Nanoseconds())/1e6)
		return err
	}
	start := time.Now()
	for n := 0; n < minRoundOp || time.Since(start) < budget; n++ {
		// alternate which side goes first
		first, second := c.den, c.num
		a, b := &den, &num
		if n%2 == 1 {
			first, second, a, b = second, first, b, a
		}
		if err := timed(first, a); err != nil {
			return err
		}
		if err := timed(second, b); err != nil {
			return err
		}
	}
	m[c.metric] = median(num) / median(den)
	if c.denMS != "" {
		m[c.denMS] = median(den)
	}
	return nil
}

// printBudget prints the layer budget of one workload: per span name, the
// self time per replay and the distribution of per-unit call times from
// the log-linear histograms.
func printBudget(w io.Writer, name string, t *tracer, fusedMS, stagedMS float64) {
	fmt.Fprintf(w, "layer budget of %s: fused op %.3f ms (traced), stages add up to %.3f ms\n", name, fusedMS, stagedMS)
	fmt.Fprintf(w, "  %-34s %8s %12s %12s %12s %10s\n", "layer", "calls", "self ms", "p50 ns/unit", "p90 ns/unit", "units")
	self := t.selfTimes()
	names := make([]string, 0, len(t.layers))
	for n := range t.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := t.layers[n]
		h := l.perUnit.Snapshot()
		fmt.Fprintf(w, "  %-34s %8d %12.3f %12.1f %12.1f %10d\n", n, l.calls, float64(self[n])/1e6,
			h.Quantile(0.5)/1e3, h.Quantile(0.9)/1e3, l.units)
	}
}

// calibrate runs K full end-to-end sets and reports, per workload and
// metric, the spread (max − min) / min; a spread beyond the metric's bound
// fails the calibration. setup_s is reported but cannot fail it: within one
// process the first set's set-up is cold and the later ones warm, which
// the fresh process of a normal run never sees.
func calibrate(ws []workload, opt options, env environment, work string, stdout io.Writer) error {
	type spread struct {
		Min    float64 `json:"min"`
		Max    float64 `json:"max"`
		Spread float64 `json:"spread"`
		Bound  float64 `json:"bound"`
		OK     bool    `json:"ok"`
	}
	values := map[string]map[string][]float64{}
	for k := 0; k < opt.calibrate; k++ {
		reports, err := runEndToEnd(ws, opt, filepath.Join(work, fmt.Sprintf("set-%d", k)))
		if err != nil {
			return err
		}
		for _, r := range reports {
			if r.Failed > 0 {
				return fmt.Errorf("%s: %d operations failed", r.Workload, r.Failed)
			}
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				values[r.Workload][name] = append(values[r.Workload][name], v.Value)
			}
		}
	}
	result := map[string]map[string]spread{}
	var exceeded []string
	for _, w := range ws {
		result[w.name()] = map[string]spread{}
		for _, d := range endToEnd {
			v := values[w.name()][d.Name]
			lo, hi := quantile(v, 0), quantile(v, 1)
			s := spread{Min: lo, Max: hi, Spread: (hi - lo) / lo, Bound: d.Bound}
			s.OK = s.Spread <= s.Bound
			result[w.name()][d.Name] = s
			fmt.Fprintf(stdout, "%-15s %-24s min %12.6g max %12.6g spread %.4f bound %.3f\n",
				w.name(), d.Name, lo, hi, s.Spread, d.Bound)
			if !s.OK && d.Name != "setup_s" {
				exceeded = append(exceeded, w.name()+"/"+d.Name)
			}
		}
	}
	if opt.out != "" {
		err := writeJSON(opt.out, map[string]any{"environment": env, "sets": opt.calibrate, "spreads": result})
		if err != nil {
			return err
		}
	}
	if len(exceeded) > 0 {
		return errors.New("spread beyond bound: " + strings.Join(exceeded, ", "))
	}
	return nil
}
