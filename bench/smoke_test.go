package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 42, seconds: 0.05, trace: trace, tiny: true, dir: t.TempDir()}
}

// lastReports parses the JSON objects that end a run's output.
func lastReports(t *testing.T, out string, n int) []report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < n {
		t.Fatalf("output has %d lines, want at least %d", len(lines), n)
	}
	var reports []report
	for _, line := range lines[len(lines)-n:] {
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line is not JSON: %v\n%s", err, line)
		}
		reports = append(reports, r)
	}
	return reports
}

// checkMetrics asserts a report carries exactly the defined metrics, with
// their units and well-formed names.
func checkMetrics(t *testing.T, r report, defs []metricDef) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", r.Workload, d.Name)
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, want %q", r.Workload, d.Name, v.Unit, d.Unit)
		}
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
	}
}

// Every workload at tiny scale: outputs match the reference (or the ops
// fail), and exactly the end-to-end metrics come out, none of them zero.
func TestEndToEndRun(t *testing.T) {
	var out bytes.Buffer
	ws := workloads()
	if err := run(tinyOptions(t, false), ws, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for i, r := range lastReports(t, out.String(), len(ws)) {
		if r.Workload != ws[i].name() || !r.Correct || r.Failed != 0 || r.Attempted < rounds*minRoundOp {
			t.Errorf("report %d: %+v", i, r)
		}
		checkMetrics(t, r, endToEnd)
		for name, v := range r.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never zero", r.Workload, name, v.Value)
			}
		}
	}
}

// The traced run reports exactly the per-layer metrics and writes a trace
// in which every span's parent exists and encloses it.
func TestTracedRun(t *testing.T) {
	var out bytes.Buffer
	opt := tinyOptions(t, true)
	ws := workloads()
	if err := run(opt, ws, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, r := range lastReports(t, out.String(), len(ws)) {
		checkMetrics(t, r, perLayer)
		if r.Metrics["run.trace_overhead_ratio"].Value <= 0 {
			t.Errorf("%s: run.trace_overhead_ratio not reported", r.Workload)
		}
		data, err := os.ReadFile(filepath.Join(opt.dir, "trace-"+r.Workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name    string
				Ts, Dur float64
				Args    struct{ ID, Parent, Op int }
			}
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", r.Workload, err)
		}
		if len(trace.TraceEvents) == 0 {
			t.Fatalf("%s: empty trace", r.Workload)
		}
		byID := map[int]int{}
		for i, e := range trace.TraceEvents {
			byID[e.Args.ID] = i
		}
		for _, e := range trace.TraceEvents {
			if e.Args.Parent == 0 {
				continue
			}
			pi, ok := byID[e.Args.Parent]
			if !ok {
				t.Fatalf("%s: span %d (%s) has no parent %d", r.Workload, e.Args.ID, e.Name, e.Args.Parent)
			}
			p := trace.TraceEvents[pi]
			if p.Args.Op != e.Args.Op || e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur+0.001 {
				t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", r.Workload, e.Args.ID, e.Name, p.Args.ID, p.Name)
			}
		}
	}
}

// corrupted is a workload whose outputs all look wrong to the check.
type corrupted struct{ workload }

func (c corrupted) check(r *result) error {
	r.out = append([]byte("x"), r.out...)
	return c.workload.check(r)
}

// A wrong output is a failed operation, and a run with failed operations
// reports them and ends in an error (a non-zero exit).
func TestWrongOutputFailsTheRun(t *testing.T) {
	var out bytes.Buffer
	opt := tinyOptions(t, false)
	err := run(opt, []workload{corrupted{workloads()[0]}}, &out)
	if err == nil {
		t.Fatal("run with corrupted outputs succeeded")
	}
	r := lastReports(t, out.String(), 1)[0]
	if r.Correct || r.Failed == 0 || r.Failed != r.Attempted {
		t.Errorf("report %+v, want every operation failed", r)
	}
}

// BENCHMARK.json and the program's metric tables must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name() {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name())
		}
	}
}

// The reference evaluator's order and table layout, pinned on a case small
// enough to read: keys in GROUP BY order, shorter strings first, a row
// with no key before all others, columns by first appearance.
func TestReferenceRendering(t *testing.T) {
	recs := []record{
		{rank: 0, iter: 0, kernel: "bb", count: 2, dur: 10},
		{rank: 0, iter: 0, kernel: "a", count: 1, dur: 5},
		{rank: 0, iter: 1, kernel: "a", count: 1, dur: 7},
		{rank: 0, iter: 0, mpiFn: "MPI_X", count: 3, dur: 100},
		{rank: 0, iter: -1, phase: "init", count: 1, dur: 1000},
	}
	got := string(renderTable(evaluate(recs, refQuery{groupBy: []string{"kernel"}})))
	want := "" +
		"sum#sum#time.duration sum#aggregate.count kernel\n" +
		"                 1100                   4\n" +
		"                   12                   2 a\n" +
		"                   10                   2 bb\n"
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
