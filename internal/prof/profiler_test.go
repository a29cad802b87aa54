package prof_test

import (
	. "caligo/internal/prof"
	"context"

	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caligo/calql"
	"caligo/internal/telemetry"
)

func TestCapturePointInTime(t *testing.T) {
	for _, kind := range []string{"heap", "goroutine", "allocs", "threadcreate"} {
		cali, stats, err := CaptureCali(kind, 0)
		if err != nil {
			t.Fatalf("CaptureCali(%s): %v", kind, err)
		}
		if len(cali) == 0 {
			t.Errorf("%s: empty .cali output", kind)
		}
		if len(stats.Metrics) == 0 {
			t.Errorf("%s: no metrics", kind)
		}
	}
	if _, _, err := CaptureCali("nonsense", 0); err == nil {
		t.Error("unknown kind: expected error")
	}
	if !KnownKind("cpu") || !KnownKind("heap") || KnownKind("nope") {
		t.Error("KnownKind misclassifies")
	}
}

func TestCaptureTelemetry(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(prev) })

	capturesBefore := telemetry.NewCounter("caligo.prof.captures").Value()
	recordsBefore := telemetry.NewCounter("caligo.prof.records").Value()
	convertBefore := telemetry.NewHistogram("caligo.prof.convert.ns").Count()
	captureBefore := telemetry.NewHistogram("caligo.prof.capture.ns").Count()

	if _, _, err := CaptureCali("goroutine", 0); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.NewCounter("caligo.prof.captures").Value(); got != capturesBefore+1 {
		t.Errorf("captures counter = %d, want %d", got, capturesBefore+1)
	}
	if got := telemetry.NewCounter("caligo.prof.records").Value(); got <= recordsBefore {
		t.Errorf("records counter did not advance (%d)", got)
	}
	if got := telemetry.NewHistogram("caligo.prof.convert.ns").Count(); got != convertBefore+1 {
		t.Errorf("convert.ns count = %d, want %d", got, convertBefore+1)
	}
	if got := telemetry.NewHistogram("caligo.prof.capture.ns").Count(); got != captureBefore+1 {
		t.Errorf("capture.ns count = %d, want %d", got, captureBefore+1)
	}
}

func TestProfilerRingRetention(t *testing.T) {
	dir := t.TempDir()
	p, err := Start(Options{
		Dir:       dir,
		Interval:  time.Hour, // no scheduled rounds during the test
		CPUWindow: -1,        // disable the initial CPU window
		Kinds:     []string{"goroutine"},
		MaxFiles:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// the startup round captures one goroutine profile in the background;
	// trigger more on demand and watch the ring stay bounded
	for i := 0; i < 6; i++ {
		if _, err := p.TriggerPoint("goroutine"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(p.Files()) <= 3 })
	files := p.Files()
	if len(files) == 0 || len(files) > 3 {
		t.Fatalf("ring holds %d files, want 1..3", len(files))
	}
	ondisk, err := filepath.Glob(filepath.Join(dir, "selfprof-*.cali"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ondisk) > 3 {
		t.Errorf("retention failed: %d files on disk", len(ondisk))
	}
	latest, ok := p.Latest("goroutine")
	if !ok {
		t.Fatal("Latest(goroutine) found nothing")
	}
	if KindOfFile(latest) != "goroutine" {
		t.Errorf("latest kind = %q", KindOfFile(latest))
	}
	if _, err := os.Stat(latest); err != nil {
		t.Errorf("latest file missing: %v", err)
	}
	if _, err := p.TriggerPoint("bogus"); err == nil {
		t.Error("TriggerPoint(bogus): expected error")
	}
}

func TestProfilerStopIdempotent(t *testing.T) {
	p, err := Start(Options{Dir: t.TempDir(), Interval: time.Hour, CPUWindow: -1, Kinds: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	p.Stop()
	p.Stop() // second Stop must not panic or deadlock
}

func TestProfilerAdoptsExistingFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "selfprof-000000-goroutine.cali")
	if err := os.WriteFile(stale, []byte("__rec=attr,id=0,name=x,type=int,prop=\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Start(Options{Dir: dir, Interval: time.Hour, CPUWindow: -1,
		Kinds: []string{}, MaxFiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	found := false
	for _, f := range p.Files() {
		if f == stale {
			found = true
		}
	}
	if !found {
		t.Errorf("existing ring file not adopted: %v", p.Files())
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Error("missing Dir: expected error")
	}
	if _, err := Start(Options{Dir: t.TempDir(), Kinds: []string{"cpu"}}); err == nil {
		t.Error("cpu in point-in-time kinds: expected error")
	}
	if _, err := Start(Options{Dir: t.TempDir(), Kinds: []string{"whatever"}}); err == nil {
		t.Error("unknown kind: expected error")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in 5s")
}

// TestProfSmoke is the end-to-end smoke run behind `make prof-smoke`:
// capture a 1s CPU window of this process, convert it, and answer the
// flagship question with CalQL over the resulting file.
func TestProfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping 1s profile window")
	}
	dir := t.TempDir()
	p, err := Start(Options{
		Dir:       dir,
		Interval:  time.Hour,
		CPUWindow: -1, // the explicit trigger below is the only capture
		Kinds:     []string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	var path string
	for _, window := range []time.Duration{time.Second, 2 * time.Second} {
		done := make(chan struct{})
		go burnCPU(done)
		go burnCPU(done)
		path, err = p.TriggerWindow(window)
		close(done)
		if err != nil {
			t.Fatalf("TriggerWindow: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("__rec=ctx")) {
			break
		}
		path = ""
	}
	if path == "" {
		t.Fatal("CPU windows captured no samples")
	}

	res, err := calql.Run(context.Background(), "SELECT prof.function, inclusive_sum(cpu.samples) "+
		"GROUP BY prof.function FORMAT tree", []string{path}, calql.Options{})
	if err != nil {
		t.Fatalf("smoke query: %v", err)
	}
	out := res.String()
	if len(res.Rows) == 0 {
		t.Fatal("smoke query returned no rows")
	}
	if !strings.Contains(out, "prof.function") && !strings.Contains(out, "inclusive_sum") {
		t.Errorf("unexpected tree output:\n%s", out)
	}
}

// BenchmarkCaptureConvertHeap measures the profiler's per-round overhead
// for a point-in-time capture (capture + decode + convert): this is the
// steady-state cost the scheduler pays outside CPU windows, and the
// number recorded in the caligo.prof.capture.ns / convert.ns histograms.
func BenchmarkCaptureConvertHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := CaptureCali("heap", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaptureConvertGoroutine is the cheapest capture kind — the
// floor of per-round scheduler overhead.
func BenchmarkCaptureConvertGoroutine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := CaptureCali("goroutine", 0); err != nil {
			b.Fatal(err)
		}
	}
}
