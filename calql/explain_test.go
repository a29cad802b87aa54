package calql

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	internalcalql "caligo/internal/calql"
	"caligo/internal/obs"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

func explainDataset(t *testing.T, ranks int) []string {
	t.Helper()
	dir := t.TempDir()
	var files []string
	for r := 0; r < ranks; r++ {
		p := filepath.Join(dir, "rank"+string(rune('0'+r))+".cali")
		writeDataset(t, p, r)
		files = append(files, p)
	}
	return files
}

// explain runs an EXPLAIN statement through Run and returns its plan.
func explain(text string, files []string, opts Options) (string, error) {
	res, err := Run(context.Background(), text, files, opts)
	if err != nil {
		return "", err
	}
	return res.Plan, nil
}

func TestExplainFilesPlanOnly(t *testing.T) {
	// EXPLAIN must not read the inputs: nonexistent files are fine
	out, err := explain("EXPLAIN AGGREGATE count, sum(time.duration) WHERE kernel=advec GROUP BY kernel FORMAT csv", []string{"/nonexistent/a.cali", "/nonexistent/b.cali"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"EXPLAIN", "serial", "2 input files", "kernel=advec", "csv"} {
		if !strings.Contains(out, needle) {
			t.Errorf("plan missing %q:\n%s", needle, out)
		}
	}
	if strings.Contains(out, "spans=") {
		t.Errorf("EXPLAIN printed measurements:\n%s", out)
	}
}

func TestExplainFilesAnalyzeSerial(t *testing.T) {
	files := explainDataset(t, 3)
	out, err := explain("EXPLAIN ANALYZE AGGREGATE sum(aggregate.count) GROUP BY kernel", files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"read", "aggregate", "reduce", "postprocess", "format"} {
		if !strings.Contains(out, "-> "+phase) {
			t.Errorf("analyzed plan missing phase %q:\n%s", phase, out)
		}
	}
	// the read node must report its span measurements and record count
	m := regexp.MustCompile(`-> read.*\n\s+spans=(\d+) time=\S+.*records=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("read node not annotated:\n%s", out)
	}
	if m[1] == "0" || m[2] == "0" {
		t.Errorf("read node has empty measurements (spans=%s records=%s):\n%s", m[1], m[2], out)
	}
}

func TestExplainFilesAnalyzeParallel(t *testing.T) {
	files := explainDataset(t, 4)
	out, err := explain("EXPLAIN ANALYZE AGGREGATE sum(aggregate.count) GROUP BY kernel", files, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 ranks") {
		t.Errorf("parallel plan missing rank count:\n%s", out)
	}
	m := regexp.MustCompile(`-> read\s+\S.*\n\s+spans=(\d+)`).FindStringSubmatch(out)
	if m == nil || m[1] != "4" {
		t.Errorf("parallel read node should sum 4 per-rank spans, got %v:\n%s", m, out)
	}
}

func TestExplainFilesErrors(t *testing.T) {
	if plan, err := explain("SELECT *", nil, Options{}); err != nil || plan != "" {
		t.Errorf("a plain query returned a plan %q (error %v)", plan, err)
	}
	if _, err := explain("EXPLAIN GROUP BY k", nil, Options{}); err == nil {
		t.Error("invalid inner query accepted")
	}
	if _, err := explain("EXPLAIN ANALYZE AGGREGATE count GROUP BY kernel", []string{"/nonexistent/a.cali"}, Options{}); err == nil {
		t.Error("EXPLAIN ANALYZE over missing input should fail")
	}
}

func TestExplainFilesRestoresTracingState(t *testing.T) {
	files := explainDataset(t, 1)
	prev := trace.SetEnabled(false)
	t.Cleanup(func() { trace.SetEnabled(prev) })
	if _, err := explain("EXPLAIN ANALYZE AGGREGATE count GROUP BY kernel", files, Options{}); err != nil {
		t.Fatal(err)
	}
	if trace.Enabled() {
		t.Error("EXPLAIN ANALYZE left span tracing enabled")
	}
}

// analyzed matches an EXPLAIN ANALYZE plan node and its measurement line.
var analyzed = regexp.MustCompile(`-> (\w+) .*\n\s+(spans=\d+ time=\S+)(.*)`)

// TestAnalyzeAndQueryStatsShareOneRecord: EXPLAIN ANALYZE and the run's
// /debug/queries record show the same measurements, to the nanosecond,
// because both read the run's profile — the phase spans timed once — and
// so does pquery.Timing. With telemetry on, the query ID tags spans without
// turning into a summed plan stat or costing the shard span an argument.
func TestAnalyzeAndQueryStatsShareOneRecord(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	files := explainDataset(t, 4)
	record := func(text string) obs.QueryStats {
		t.Helper()
		for _, s := range obs.QuerySnapshot() { // newest first
			if s.Text == text && s.Done {
				return s
			}
		}
		t.Fatalf("no /debug/queries record of %q", text)
		return obs.QueryStats{}
	}
	for i, m := range []struct {
		name        string
		ranks, jobs int
	}{{"serial", 0, 1}, {"sharded", 0, 3}, {"mpi", 4, 1}} {
		// a LIMIT of its own makes each mode's record findable by its text
		q := internalcalql.MustParse(fmt.Sprintf("EXPLAIN ANALYZE AGGREGATE sum(aggregate.count) GROUP BY kernel LIMIT %d", 100+i))
		out, err := explain(q.String(), files, Options{Ranks: m.ranks, Jobs: m.jobs})
		if err != nil {
			t.Fatal(err)
		}
		shown := map[string]string{}
		for _, n := range analyzed.FindAllStringSubmatch(out, -1) {
			shown[n[1]] = n[2]
			if strings.Contains(n[3], "qid=") {
				t.Errorf("%s: the query ID was summed into the %s node: %s", m.name, n[1], n[3])
			}
		}
		rec := record(q.String())
		compared := 0
		for _, ph := range rec.Phases {
			got, ok := shown[ph.Name]
			if !ok {
				continue // pquery.run has no plan node
			}
			if want := fmt.Sprintf("spans=%d time=%v", ph.Spans, time.Duration(ph.NS)); got != want {
				t.Errorf("%s: plan node %s shows %q, /debug/queries %q", m.name, ph.Name, got, want)
			}
			compared++
		}
		if compared < 4 {
			t.Errorf("%s: only %d phases in common between the plan and %+v:\n%s", m.name, compared, rec.Phases, out)
		}
		if m.name == "sharded" {
			if rec.Shards != 3 {
				t.Errorf("sharded record has %d shards, want 3", rec.Shards)
			}
			if !regexp.MustCompile(`-> shard .*\n.* bytes=\d+`).MatchString(out) {
				t.Errorf("shard node lost its bytes stat under telemetry:\n%s", out)
			}
		}
	}

	res, err := Run(context.Background(), "AGGREGATE count GROUP BY kernel LIMIT 99", files, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := record(internalcalql.MustParse("AGGREGATE count GROUP BY kernel LIMIT 99").String())
	for _, ph := range rec.Phases {
		if ph.Name == "run" && time.Duration(ph.NS) != res.Timing.TotalWall {
			t.Errorf("TotalWall %v, the record's run phase %v", res.Timing.TotalWall, time.Duration(ph.NS))
		}
		if ph.Name == "aggregate" && time.Duration(ph.MaxNS) != res.Timing.LocalWall {
			t.Errorf("LocalWall %v, the record's slowest local phase %v", res.Timing.LocalWall, time.Duration(ph.MaxNS))
		}
	}
	if res.Timing.TotalWall <= 0 || res.Timing.LocalWall <= 0 || res.Timing.LocalWall > res.Timing.TotalWall {
		t.Errorf("timing = %+v, want 0 < LocalWall <= TotalWall", res.Timing)
	}
}

// TestConcurrentExplainAnalyze: every EXPLAIN ANALYZE annotates its plan
// from its own run's profile, so concurrent runs count exactly their own
// spans (they used to read each other's out of the process-wide trace
// ring), and none turns process-wide span tracing on.
func TestConcurrentExplainAnalyze(t *testing.T) {
	prev := trace.SetEnabled(false)
	t.Cleanup(func() { trace.SetEnabled(prev) })
	files := explainDataset(t, 4)
	before := len(trace.Snapshot())
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		ranks := 4 * (i % 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := explain("EXPLAIN ANALYZE AGGREGATE count GROUP BY kernel", files, Options{Ranks: ranks})
			if err != nil {
				errs <- err
				return
			}
			want := fmt.Sprint(max(ranks, 1))
			if m := regexp.MustCompile(`-> read\s+\S.*\n\s+spans=(\d+)`).FindStringSubmatch(out); m == nil || m[1] != want {
				errs <- fmt.Errorf("%d ranks: read node %v, want spans=%s:\n%s", ranks, m, want, out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(trace.Snapshot()) - before; n != 0 {
		t.Errorf("EXPLAIN ANALYZE put %d spans into the trace ring with tracing off", n)
	}
}
