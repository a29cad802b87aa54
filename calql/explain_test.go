package calql

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

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

func TestExplainFilesPlanOnly(t *testing.T) {
	// EXPLAIN must not read the inputs: nonexistent files are fine
	out, err := ExplainFilesOpts(
		"EXPLAIN AGGREGATE count, sum(time.duration) WHERE kernel=advec GROUP BY kernel FORMAT csv",
		[]string{"/nonexistent/a.cali", "/nonexistent/b.cali"}, 0, 1, Options{})
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
	out, err := ExplainFilesOpts(
		"EXPLAIN ANALYZE AGGREGATE sum(aggregate.count) GROUP BY kernel", files, 0, 1, Options{})
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
	out, err := ExplainFilesOpts(
		"EXPLAIN ANALYZE AGGREGATE sum(aggregate.count) GROUP BY kernel", files, 4, 1, Options{})
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
	if _, err := ExplainFilesOpts("SELECT *", nil, 0, 1, Options{}); err == nil {
		t.Error("non-EXPLAIN statement accepted")
	}
	if _, err := ExplainFilesOpts("EXPLAIN GROUP BY k", nil, 0, 1, Options{}); err == nil {
		t.Error("invalid inner query accepted")
	}
	if _, err := ExplainFilesOpts(
		"EXPLAIN ANALYZE AGGREGATE count GROUP BY kernel",
		[]string{"/nonexistent/a.cali"}, 0, 1, Options{}); err == nil {
		t.Error("EXPLAIN ANALYZE over missing input should fail")
	}
}

func TestExplainFilesRestoresTracingState(t *testing.T) {
	files := explainDataset(t, 1)
	prev := trace.SetEnabled(false)
	t.Cleanup(func() { trace.SetEnabled(prev) })
	if _, err := ExplainFilesOpts("EXPLAIN ANALYZE AGGREGATE count GROUP BY kernel", files, 0, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	if trace.Enabled() {
		t.Error("EXPLAIN ANALYZE left span tracing enabled")
	}
}
