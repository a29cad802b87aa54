package calql

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"caligo/caliper"
)

// writeDataset runs a small instrumented workload and records its profile
// to a .cali file.
func writeDataset(t *testing.T, path string, rank int) {
	t.Helper()
	ch, err := caliper.NewChannel(caliper.Config{
		"services":          "event,timer,aggregate,recorder",
		"aggregate.key":     "kernel,mpi.rank",
		"aggregate.ops":     "count,sum(time.duration)",
		"recorder.filename": path,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	th.Set("mpi.rank", rank)
	for i := 0; i < 20; i++ {
		th.Begin("kernel", []string{"advec", "calc-dt"}[i%2])
		th.End("kernel")
	}
	if err := ch.FlushAndWrite(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryFiles(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for r := 0; r < 3; r++ {
		p := filepath.Join(dir, "rank"+string(rune('0'+r))+".cali")
		writeDataset(t, p, r)
		files = append(files, p)
	}
	rs, err := QueryFiles("AGGREGATE sum(aggregate.count) GROUP BY kernel", files)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, row := range rs.Rows {
		k, _ := row.GetByName("kernel")
		c, _ := row.GetByName("sum#aggregate.count")
		counts[k.String()] = c.AsInt()
	}
	// per file: 10 advec ends + 10 calc-dt ends attributed to the kernels
	if counts["advec"] != 30 || counts["calc-dt"] != 30 {
		t.Errorf("counts = %v, want advec=30 calc-dt=30", counts)
	}
}

func TestQueryFilesParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for r := 0; r < 8; r++ {
		p := filepath.Join(dir, "r"+string(rune('0'+r))+".cali")
		writeDataset(t, p, r)
		files = append(files, p)
	}
	const q = "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel"
	serial, err := QueryFiles(q, files)
	if err != nil {
		t.Fatal(err)
	}
	par, err := QueryFilesParallelOpt(q, files, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("rows: serial %d, parallel %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i].String() != par.Rows[i].String() {
			t.Errorf("row %d differs:\n serial %s\n parallel %s",
				i, serial.Rows[i], par.Rows[i])
		}
	}
	if par.Timing.TotalVirt <= 0 {
		t.Error("parallel timing missing")
	}
}

func TestQueryFilesParallelDefaults(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.cali")
	writeDataset(t, p, 0)
	res, err := QueryFilesParallelOpt("AGGREGATE count GROUP BY kernel", []string{p}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
	if _, err := QueryFilesParallelOpt("AGGREGATE count", nil, 0, Options{}); err == nil {
		t.Error("no files should error")
	}
}

func TestQueryChannel(t *testing.T) {
	ch, err := caliper.NewChannel(caliper.Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": "kernel",
		"aggregate.ops": "count,sum(time.duration)",
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	for i := 0; i < 6; i++ {
		th.Begin("kernel", "k")
		th.End("kernel")
	}
	rs, err := QueryChannel("SELECT kernel, aggregate.count AS count AGGREGATE count WHERE kernel GROUP BY kernel FORMAT csv", ch)
	if err != nil {
		t.Fatal(err)
	}
	out := rs.String()
	if !strings.Contains(out, "kernel,count") {
		t.Errorf("csv header missing:\n%s", out)
	}
	if !strings.Contains(out, "k,") {
		t.Errorf("kernel row missing:\n%s", out)
	}
}

// TestQueryFilesErrors checks that errors surface the same way in every
// execution mode: a bad query, a missing file and a corrupt file among
// good ones each return promptly with an error — naming the offending
// file — and leave no worker or rank goroutine behind.
func TestQueryFilesErrors(t *testing.T) {
	dir := t.TempDir()
	var good []string
	for r := 0; r < 4; r++ {
		p := filepath.Join(dir, "rank"+string(rune('0'+r))+".cali")
		writeDataset(t, p, r)
		good = append(good, p)
	}
	bad := filepath.Join(dir, "bad.cali")
	if err := os.WriteFile(bad, []byte("__rec=ctx,ref=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.cali")
	with := func(f string) []string { return []string{good[0], good[1], f, good[2], good[3]} }

	modes := []struct {
		name        string
		jobs, ranks int
	}{{"serial", 1, 0}, {"jobs=3", 3, 0}, {"ranks=3", 1, 3}}
	cases := []struct {
		name, query string
		files       []string
		wantInErr   string
	}{
		{"bad query", "FROB", good, ""},
		{"missing file", "AGGREGATE count", with(missing), missing},
		{"corrupt file", "AGGREGATE count", with(bad), bad},
	}
	before := runtime.NumGoroutine()
	for _, m := range modes {
		for _, c := range cases {
			_, _, err := run(c.query, c.files, m.jobs, m.ranks, Options{})
			if err == nil {
				t.Errorf("%s, %s: no error", m.name, c.name)
			} else if !strings.Contains(err.Error(), c.wantInErr) {
				t.Errorf("%s, %s: error %q does not name %s", m.name, c.name, err, c.wantInErr)
			}
		}
	}
	// every worker and rank is joined before run returns; give exiting
	// goroutines a moment to be reaped before counting
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the failing queries, %d after", before, n)
	}
}

func TestResultsetWriteTable(t *testing.T) {
	ch, _ := caliper.NewChannel(caliper.Config{
		"services":      "event,aggregate",
		"aggregate.key": "kernel",
		"aggregate.ops": "count",
	})
	th := ch.Thread()
	th.Begin("kernel", "z")
	th.End("kernel")
	rs, err := QueryChannel("AGGREGATE count WHERE kernel GROUP BY kernel", ch)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rs.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "z") {
		t.Errorf("table output:\n%s", sb.String())
	}
}
