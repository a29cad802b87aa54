package calql

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"caligo/caliper"
	"caligo/internal/testutil"
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
	rs, err := Run(context.Background(), "AGGREGATE sum(aggregate.count) GROUP BY kernel", files, Options{})
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
	serial, err := Run(context.Background(), q, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), q, files, Options{Ranks: 4})
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
	res, err := Run(context.Background(), "AGGREGATE count GROUP BY kernel", []string{p}, Options{Ranks: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
	if _, err := Run(context.Background(), "AGGREGATE count", nil, Options{Ranks: -1}); err == nil {
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

// recordStream is a .cali stream of n records on one rank, alternating
// between two kernels.
func recordStream(rank, n int) []byte {
	b := []byte("__rec=attr,id=0,name=mpi.rank,type=int,prop=nested\n" +
		"__rec=attr,id=1,name=kernel,type=string,prop=nested\n")
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, "__rec=ctx,attr=0:1,data=%d:%s\n", rank, []string{"advec", "calc-dt"}[i%2])
	}
	return b
}

// pipeWriter opens the write end of the named pipe at path once a reader
// has opened it, and gives up when stop closes. Writes fail rather than
// block for good once the reader is gone or after ten seconds.
func pipeWriter(path string, stop <-chan struct{}) (*os.File, error) {
	for {
		w, err := os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0)
		if err == nil {
			return w, w.SetWriteDeadline(time.Now().Add(10 * time.Second))
		}
		if !errors.Is(err, syscall.ENXIO) { // ENXIO: no reader yet
			return nil, err
		}
		select {
		case <-stop:
			return nil, err
		case <-time.After(time.Millisecond):
		}
	}
}

// TestQueryFilesErrors checks that errors surface the same way in every
// execution mode: a bad query, a missing file and a corrupt file among
// good ones each return promptly with an error — naming the offending
// file — and leave no worker or rank goroutine behind. So does a cancelled
// run, wherever the cancel lands: its error is context.Canceled.
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
		name string
		opts Options
	}{{"serial", Options{}}, {"jobs=3", Options{Jobs: 3}}, {"ranks=3", Options{Ranks: 3}}}
	cases := []struct {
		name, query string
		files       []string
		wantInErr   string
	}{
		{"bad query", "FROB", good, ""},
		{"missing file", "AGGREGATE count", with(missing), missing},
		{"corrupt file", "AGGREGATE count", with(bad), bad},
	}
	// The cancelled column. But for the first case, the run's last input
	// is a named pipe: the test writes the first keep lines of a stream to
	// it, waits stall, cancels, writes the lines from keep to upto and
	// closes it — or, with upto < 0, writes records for as long as the run
	// reads them. Each rank or worker the pipe does not hold up is by then
	// done with its files: in the reduce, or waiting to merge.
	stream := bytes.SplitAfter(recordStream(4, 4000), []byte("\n"))
	endless := bytes.Join(stream[2:], nil) // records only
	cancels := []struct {
		name       string
		keep, upto int
		stall      time.Duration
	}{
		{"before any file opens", 0, 0, 0},
		// the input never ends: only a drain can stop the run
		{"mid-decode", 1024, -1, 0},
		// 5 records follow the cancel, then EOF: no drain polls again
		// (it polls every 1024 records), the shard merge sees it
		{"during the shard merge", len(stream) - 5, len(stream), 0},
		{"during the reduce, one rank stalled", 2048, 2048, 50 * time.Millisecond},
	}
	cancelled := func(opts Options, keep, upto int, stall time.Duration) (time.Duration, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		files := good
		var cancelledAt time.Time
		var wg sync.WaitGroup
		ran := make(chan struct{}) // closed when Run has returned
		if keep == 0 {
			cancelledAt = time.Now()
			cancel()
		} else {
			pipe := filepath.Join(t.TempDir(), "stalled.cali")
			if err := syscall.Mkfifo(pipe, 0o600); err != nil {
				t.Fatal(err)
			}
			files = append(good[:len(good):len(good)], pipe)
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := pipeWriter(pipe, ran)
				if err != nil {
					return // the run never opened the pipe: reported below
				}
				defer w.Close()
				w.Write(bytes.Join(stream[:keep], nil))
				time.Sleep(stall)
				cancelledAt = time.Now()
				cancel()
				if upto >= 0 {
					w.Write(bytes.Join(stream[keep:upto], nil))
					return
				}
				// 64 copies outlast any buffer between the test and a
				// reader that stopped at the cancel: then a write fails
				for range 64 {
					if _, err := w.Write(endless); err != nil {
						return
					}
				}
				t.Error("the run read 64 copies of its input after the cancel")
			}()
		}
		_, err := Run(ctx, "AGGREGATE count GROUP BY kernel", files, opts)
		returned := time.Now()
		close(ran)
		wg.Wait()
		if cancelledAt.IsZero() {
			return 0, fmt.Errorf("returned before the cancel: %v", err)
		}
		return returned.Sub(cancelledAt), err
	}

	before := runtime.NumGoroutine()
	for _, m := range modes {
		for _, c := range cases {
			_, err := Run(context.Background(), c.query, c.files, m.opts)
			if err == nil {
				t.Errorf("%s, %s: no error", m.name, c.name)
			} else if !strings.Contains(err.Error(), c.wantInErr) {
				t.Errorf("%s, %s: error %q does not name %s", m.name, c.name, err, c.wantInErr)
			}
		}
		for _, c := range cancels {
			took, err := cancelled(m.opts, c.keep, c.upto, c.stall)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s, cancelled %s: error %v, want context.Canceled", m.name, c.name, err)
			}
			if took > time.Second {
				t.Errorf("%s, cancelled %s: returned %v after the cancel", m.name, c.name, took)
			}
		}
	}
	// every worker and rank is joined before Run returns; give exiting
	// goroutines a moment to be reaped before counting
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the failing queries, %d after", before, n)
	}
}

// TestRunAllocBudget holds the serial path through Run to the allocations
// a multi-file query made before Run replaced the entry points it had:
// per query, not per record, so the budget is the whole count.
func TestRunAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	files := explainDataset(t, 4)
	const q = "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel WHERE not(phase)"
	opts := Options{NoIndex: true, NoCache: true}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := Run(context.Background(), q, files, opts); err != nil {
			t.Fatal(err)
		}
	}); avg > 128 {
		t.Errorf("a serial query over %d files allocates %v objects, want <= 128", len(files), avg)
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
