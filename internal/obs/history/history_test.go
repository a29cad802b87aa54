package history_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"caligo/calql"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	. "caligo/internal/obs/history"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

func enableTelemetry(t *testing.T) {
	t.Helper()
	prev := telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(prev) })
}

// startRecorder starts a recorder over a private registry with a huge
// interval, so tests drive windows deterministically via CaptureNow.
func startRecorder(t *testing.T, reg *telemetry.Registry, opts Options) *Recorder {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.Interval = time.Hour
	opts.Registry = reg
	r, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

func TestHistoryWindows(t *testing.T) {
	enableTelemetry(t)
	reg := telemetry.NewRegistry()
	c := reg.Counter("test.requests")
	g := reg.Gauge("test.depth")
	h := reg.Histogram("test.lat.ns")
	rec := startRecorder(t, reg, Options{Rank: 3})

	// window 1
	c.Add(5)
	g.Set(7)
	h.Observe(100)
	h.Observe(5000)
	if _, err := rec.CaptureNow(); err != nil {
		t.Fatal(err)
	}
	// window 2: counter +2, gauge moves, one more observation
	c.Add(2)
	g.Set(-1)
	h.Observe(50)
	if _, err := rec.CaptureNow(); err != nil {
		t.Fatal(err)
	}

	wins := rec.Windows()
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	byName := func(w Window, name string) *WindowMetric {
		for i := range w.Metrics {
			if w.Metrics[i].Name == name {
				return &w.Metrics[i]
			}
		}
		return nil
	}
	w1, w2 := wins[0], wins[1]
	if w1.Rank != 3 || w2.Rank != 3 {
		t.Errorf("ranks = %d, %d, want 3", w1.Rank, w2.Rank)
	}
	if m := byName(w1, "test.requests"); m == nil || m.Delta != 5 || m.Total != 5 {
		t.Errorf("window 1 counter = %+v, want delta 5 total 5", m)
	}
	if m := byName(w2, "test.requests"); m == nil || m.Delta != 2 || m.Total != 7 {
		t.Errorf("window 2 counter = %+v, want delta 2 total 7", m)
	}
	if m := byName(w1, "test.depth"); m == nil || m.Value != 7 {
		t.Errorf("window 1 gauge = %+v, want value 7", m)
	}
	if m := byName(w2, "test.depth"); m == nil || m.Value != -1 {
		t.Errorf("window 2 gauge = %+v, want value -1", m)
	}
	if m := byName(w1, "test.lat.ns"); m == nil || m.Count != 2 || m.Sum != 5100 {
		t.Errorf("window 1 histogram = %+v, want count 2 sum 5100", m)
	}
	if m := byName(w2, "test.lat.ns"); m == nil || m.Count != 1 || m.Sum != 50 {
		t.Errorf("window 2 histogram = %+v, want count 1 sum 50", m)
	}
	if w2.Start < w1.Start {
		t.Error("windows out of order")
	}

	// counter delta series reassembles the cumulative total
	var deltaSum uint64
	for _, w := range wins {
		if m := byName(w, "test.requests"); m != nil {
			deltaSum += m.Delta
		}
	}
	if deltaSum != c.Value() {
		t.Errorf("sum of window deltas = %d, want cumulative %d", deltaSum, c.Value())
	}
}

// TestHistoryCalQLEquality pins the acceptance criterion: a CalQL query
// over the on-disk history ring is byte-identical to offline aggregation
// of the same windows (decode every ring file, aggregate the records
// in-memory with the same query).
func TestHistoryCalQLEquality(t *testing.T) {
	enableTelemetry(t)
	reg := telemetry.NewRegistry()
	c := reg.Counter("eq.requests")
	h := reg.Histogram("eq.lat.ns")
	rec := startRecorder(t, reg, Options{})

	for i := 1; i <= 3; i++ {
		c.Add(uint64(10 * i))
		h.Observe(int64(100 * i))
		h.Observe(int64(999 * i))
		if _, err := rec.CaptureNow(); err != nil {
			t.Fatal(err)
		}
	}
	files := rec.Files()
	if len(files) != 3 {
		t.Fatalf("ring files = %d, want 3", len(files))
	}

	const q = "AGGREGATE count, sum(metric.delta), sum(metric.count), sum(bin.count) " +
		"GROUP BY time.window.start, metric.name " +
		"ORDER BY time.window.start, metric.name"

	fromRing, err := calql.Run(context.Background(), q, files, calql.Options{})
	if err != nil {
		t.Fatalf("query over ring: %v", err)
	}

	// offline: decode the same files into memory, aggregate the records
	offReg := attr.NewRegistry()
	tree := contexttree.New()
	var recs []snapshot.FlatRecord
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rd := calformat.NewReader(bytes.NewReader(data), offReg, tree)
		rs, err := rd.ReadAll()
		if err != nil {
			t.Fatalf("decode %s: %v", f, err)
		}
		recs = append(recs, rs...)
	}
	offline, err := calql.QueryRecords(q, offReg, recs)
	if err != nil {
		t.Fatalf("QueryRecords offline: %v", err)
	}

	if got, want := fromRing.String(), offline.String(); got != want {
		t.Errorf("ring query and offline aggregation differ:\n-- ring --\n%s\n-- offline --\n%s", got, want)
	}
	if len(fromRing.Rows) == 0 {
		t.Fatal("equality query returned no rows")
	}
}

func TestHistoryRingRetention(t *testing.T) {
	enableTelemetry(t)
	reg := telemetry.NewRegistry()
	c := reg.Counter("ring.ticks")
	dir := t.TempDir()
	rec := startRecorder(t, reg, Options{Dir: dir, MaxFiles: 3})

	for i := 0; i < 6; i++ {
		c.Inc()
		if _, err := rec.CaptureNow(); err != nil {
			t.Fatal(err)
		}
	}
	files := rec.Files()
	if len(files) != 3 {
		t.Fatalf("retained files = %d, want 3", len(files))
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "history-*.cali"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 3 {
		t.Fatalf("on-disk files = %d, want 3 (%v)", len(onDisk), onDisk)
	}
	if len(rec.Windows()) != 3 {
		t.Fatalf("in-memory windows = %d, want 3 (same bound as files)", len(rec.Windows()))
	}
	// the retained tail is the newest windows: the last one carries total 6
	wins := rec.Windows()
	last := wins[len(wins)-1].Metrics
	if len(last) != 1 || last[0].Total != 6 {
		t.Errorf("newest window = %+v, want ring.ticks total 6", last)
	}
}

func TestHistoryAdoptExisting(t *testing.T) {
	enableTelemetry(t)
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	c := reg.Counter("adopt.ticks")
	rec := startRecorder(t, reg, Options{Dir: dir, MaxFiles: 4})
	c.Inc()
	if _, err := rec.CaptureNow(); err != nil {
		t.Fatal(err)
	}
	rec.Stop()
	before, _ := filepath.Glob(filepath.Join(dir, "history-*.cali"))
	if len(before) == 0 {
		t.Fatal("first recorder left no files")
	}

	// a second recorder over the same dir adopts the leftovers into its
	// ring so retention keeps holding across restarts
	reg2 := telemetry.NewRegistry()
	c2 := reg2.Counter("adopt.ticks")
	rec2 := startRecorder(t, reg2, Options{Dir: dir, MaxFiles: 4, Prefix: "history"})
	if got := len(rec2.Files()); got != len(before) {
		t.Fatalf("adopted files = %d, want %d", got, len(before))
	}
	for i := 0; i < 6; i++ {
		c2.Inc()
		if _, err := rec2.CaptureNow(); err != nil {
			t.Fatal(err)
		}
	}
	onDisk, _ := filepath.Glob(filepath.Join(dir, "history-*.cali"))
	if len(onDisk) > 4 {
		t.Errorf("retention did not cover adopted files: %d on disk", len(onDisk))
	}
}

func TestHistoryCounterResetRestartsDelta(t *testing.T) {
	schema, err := NewSchema(attr.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	prev := []telemetry.Metric{{Name: "a", Kind: telemetry.KindCounter, Counter: 100}}
	cur := []telemetry.Metric{{Name: "a", Kind: telemetry.KindCounter, Counter: 7}}
	recs := schema.AppendWindow(nil, 0, 1, 1, prev, cur)
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	v, ok := recs[0].GetByName(AttrDelta)
	if !ok || v.AsUint() != 7 {
		t.Errorf("reset delta = %v, want 7 (restart from current value)", v)
	}
}

// TestHistoryKillSwitch pins the overhead criterion: with capture
// disabled, a tick is one atomic load and allocates nothing.
func TestHistoryKillSwitch(t *testing.T) {
	enableTelemetry(t)
	reg := telemetry.NewRegistry()
	reg.Counter("kill.ticks").Add(3)
	rec := startRecorder(t, reg, Options{})

	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if Enabled() {
		t.Fatal("SetEnabled(false) did not take")
	}
	filesBefore := len(rec.Files())
	allocs := testing.AllocsPerRun(100, func() {
		path, err := rec.CaptureNow()
		if err != nil {
			t.Fatal(err)
		}
		if path != "" {
			t.Fatal("disabled capture wrote a file")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled capture allocates %v objects/op, want 0", allocs)
	}
	if got := len(rec.Files()); got != filesBefore {
		t.Errorf("disabled captures changed the ring: %d -> %d files", filesBefore, got)
	}

	SetEnabled(true)
	if path, err := rec.CaptureNow(); err != nil || path == "" {
		t.Fatalf("re-enabled capture = (%q, %v), want a file", path, err)
	}
}

// TestHistoryConcurrentQueries runs CalQL queries over the ring while the
// recorder keeps capturing — the -race acceptance scenario.
func TestHistoryConcurrentQueries(t *testing.T) {
	enableTelemetry(t)
	reg := telemetry.NewRegistry()
	c := reg.Counter("race.requests")
	h := reg.Histogram("race.lat.ns")
	// MaxFiles large enough that no file is evicted mid-query
	rec := startRecorder(t, reg, Options{MaxFiles: 256})
	c.Inc()
	h.Observe(10)
	if _, err := rec.CaptureNow(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Add(uint64(i%7) + 1)
			h.Observe(int64(i%100) * 10)
			if _, err := rec.CaptureNow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				files := rec.Files()
				res, err := calql.Run(context.Background(), "AGGREGATE sum(metric.delta) GROUP BY metric.name ORDER BY metric.name", files, calql.Options{})
				if err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
				_ = res.String()
				_ = rec.Windows()
			}
		}()
	}
	// let queries finish, then stop the capture loop
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent capture/query deadlocked")
	}
}

func TestFilterWindows(t *testing.T) {
	var windows []Window
	for i := 0; i < 6; i++ {
		windows = append(windows, Window{Start: int64(i), Rank: i % 2})
	}
	if got := FilterWindows(windows, 0, -1); len(got) != 6 {
		t.Errorf("no filter kept %d windows, want 6", len(got))
	}
	got := FilterWindows(windows, 2, -1)
	if len(got) != 2 || got[0].Start != 4 || got[1].Start != 5 {
		t.Errorf("lastN=2 = %+v, want the newest two", got)
	}
	got = FilterWindows(windows, 0, 1)
	if len(got) != 3 {
		t.Fatalf("rank=1 kept %d windows, want 3", len(got))
	}
	for _, w := range got {
		if w.Rank != 1 {
			t.Errorf("rank filter leaked rank %d", w.Rank)
		}
	}
	if got := FilterWindows(windows, 1, 0); len(got) != 1 || got[0].Start != 4 {
		t.Errorf("rank=0 lastN=1 = %+v, want window start 4", got)
	}
}

func TestStartRequiresDir(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Fatal("Start without Dir must fail")
	}
}

func TestStopIsIdempotentAndCapturesTail(t *testing.T) {
	enableTelemetry(t)
	reg := telemetry.NewRegistry()
	reg.Counter("tail.ticks").Add(2)
	rec := startRecorder(t, reg, Options{})
	rec.Stop()
	rec.Stop() // second Stop is a no-op
	wins := rec.Windows()
	if len(wins) != 1 {
		t.Fatalf("windows after Stop = %d, want 1 tail window", len(wins))
	}
	if len(wins[0].Metrics) != 1 || wins[0].Metrics[0].Total != 2 {
		t.Errorf("tail window = %+v, want tail.ticks total 2", wins[0].Metrics)
	}
}

// ExampleSchema_AppendWindow documents the record shape (also keeps the
// attribute-name constants honest in docs).
func ExampleSchema_AppendWindow() {
	schema, _ := NewSchema(attr.NewRegistry())
	cur := []telemetry.Metric{{Name: "demo.requests", Kind: telemetry.KindCounter, Counter: 42}}
	recs := schema.AppendWindow(nil, 1, 1000, 500, nil, cur)
	d, _ := recs[0].GetByName(AttrDelta)
	total, _ := recs[0].GetByName(AttrTotal)
	fmt.Println(len(recs), d.AsUint(), total.AsUint())
	// Output: 1 42 42
}
