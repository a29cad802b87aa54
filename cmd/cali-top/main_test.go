package main

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"caligo/caliper"
	"caligo/internal/obs"
	"caligo/internal/obs/history"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// scrapeAt builds a scrapeState from an OpenMetrics exposition at a fixed
// timestamp.
func scrapeAt(t *testing.T, at time.Time, exposition string) *scrapeState {
	t.Helper()
	m, err := obs.ParseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	return &scrapeState{at: at, metrics: m}
}

func TestRate(t *testing.T) {
	t0 := time.Unix(100, 0)
	prev := scrapeAt(t, t0, "# TYPE caligo_query_records counter\ncaligo_query_records_total 100\n")

	t.Run("normal delta", func(t *testing.T) {
		cur := scrapeAt(t, t0.Add(2*time.Second), "# TYPE caligo_query_records counter\ncaligo_query_records_total 150\n")
		if got := rate(prev, cur, "caligo_query_records"); got != 25 {
			t.Fatalf("rate = %v, want 25", got)
		}
	})

	t.Run("counter reset clamps to zero", func(t *testing.T) {
		// The monitored process restarted between scrapes: the counter
		// dropped from 100 to 7. No meaningful rate exists for the
		// straddling interval — it must clamp to zero, not report 7/dt
		// (and certainly not a negative rate).
		cur := scrapeAt(t, t0.Add(2*time.Second), "# TYPE caligo_query_records counter\ncaligo_query_records_total 7\n")
		if got := rate(prev, cur, "caligo_query_records"); got != 0 {
			t.Fatalf("rate after counter reset = %v, want 0", got)
		}
	})

	t.Run("zero interval", func(t *testing.T) {
		cur := scrapeAt(t, t0, "# TYPE caligo_query_records counter\ncaligo_query_records_total 150\n")
		if got := rate(prev, cur, "caligo_query_records"); got != 0 {
			t.Fatalf("rate over zero interval = %v, want 0", got)
		}
	})
}

func TestSparkline(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []float64
		want string
	}{
		{"empty", nil, ""},
		{"flat", []float64{5, 5, 5}, "▁▁▁"},
		{"ramp", []float64{0, 1, 2, 3, 4, 5, 6, 7}, "▁▂▃▄▅▆▇█"},
		{"spike", []float64{0, 0, 10, 0}, "▁▁█▁"},
	} {
		if got := sparkline(tc.vals); got != tc.want {
			t.Errorf("%s: sparkline(%v) = %q, want %q", tc.name, tc.vals, got, tc.want)
		}
	}
}

func TestBuildSeriesAlignsAbsentMetrics(t *testing.T) {
	windows := []history.Window{
		{Start: 0, Dur: 1e9, Metrics: []history.WindowMetric{
			{Name: "a", Kind: "counter", Delta: 3},
		}},
		{Start: 1e9, Dur: 1e9, Metrics: []history.WindowMetric{
			{Name: "a", Kind: "counter", Delta: 5},
			{Name: "b", Kind: "gauge", Value: -2},
		}},
		{Start: 2e9, Dur: 1e9, Metrics: []history.WindowMetric{
			{Name: "b", Kind: "gauge", Value: 4},
		}},
	}
	series := buildSeries(windows)
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	// sorted by name; every series spans all windows, zero where absent
	a, b := series[0], series[1]
	if a.name != "a" || b.name != "b" {
		t.Fatalf("series order = %q, %q", a.name, b.name)
	}
	wantA := []float64{3, 5, 0}
	wantB := []float64{0, -2, 4}
	for i := range wantA {
		if a.vals[i] != wantA[i] {
			t.Errorf("a.vals[%d] = %v, want %v", i, a.vals[i], wantA[i])
		}
		if b.vals[i] != wantB[i] {
			t.Errorf("b.vals[%d] = %v, want %v", i, b.vals[i], wantB[i])
		}
	}
}

// TestCaliTopOnce runs a single-scrape -once pass against a live debug
// handler and checks the plain-text totals table carries the engine
// stats (no ANSI escapes, no second scrape).
func TestCaliTopOnce(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(prev) })
	obs.SampleRuntimeOnce()

	// a finished query so the table is non-empty
	aq := obs.BeginQuery("AGGREGATE count GROUP BY kernel", "sharded")
	var prof trace.Profile
	aq.SetPhases(&prof)
	for _, name := range []string{"query.shard", "query.shard", "query.merge"} {
		sp := prof.Begin(name, 0)
		sp.ArgInt("records", 1100)
		sp.End()
	}
	aq.SetRows(12)
	aq.End(nil)

	// index pruning counters light up the "index" line
	telemetry.NewCounter("caligo.index.files.indexed").Add(3)
	telemetry.NewCounter("caligo.index.blocks.pruned").Add(17)

	srv := httptest.NewServer(caliper.DebugHandler())
	defer srv.Close()

	// capture stdout across the run
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	start := time.Now()
	runErr := run([]string{"-once", "-i", "10s", srv.URL})
	elapsed := time.Since(start)
	os.Stdout = orig
	w.Close()
	outBytes := make([]byte, 1<<16)
	n, _ := r.Read(outBytes)
	r.Close()
	out := string(outBytes[:n])

	if runErr != nil {
		t.Fatalf("cali-top run: %v\noutput:\n%s", runErr, out)
	}
	for _, want := range []string{
		"cali-top", "queries", "runtime", "sharded", "AGGREGATE count GROUP BY kernel",
		"single scrape", "index", "pruned",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// one scrape only: -once must not sleep the (deliberately huge) interval
	if elapsed > 5*time.Second {
		t.Errorf("-once slept the scrape interval (%v)", elapsed)
	}
	if strings.Contains(out, "\x1b[") {
		t.Errorf("-once output contains ANSI escapes:\n%q", out)
	}
}

func TestCaliTopBadTarget(t *testing.T) {
	if err := run([]string{"-once", "-i", "10ms", "127.0.0.1:1"}); err == nil {
		t.Error("expected error for unreachable target")
	}
	if err := run([]string{}); err == nil {
		t.Error("expected error for missing target")
	}
}
