package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"caligo/internal/telemetry"
	"caligo/internal/testutil"
)

// withTelemetry scopes the telemetry kill switch for a test.
func withTelemetry(t *testing.T, on bool) {
	t.Helper()
	prev := telemetry.SetEnabled(on)
	t.Cleanup(func() { telemetry.SetEnabled(prev) })
}

func TestSanitizeName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"caligo.query.shards", "caligo_query_shards"},
		{"already_valid:name", "already_valid:name"},
		{"caligo.pquery.reduce.ns", "caligo_pquery_reduce_ns"},
		{"9starts.with.digit", "_starts_with_digit"},
		{"", "_"},
		{"spaces and-dashes", "spaces_and_dashes"},
		{"UPPER.case", "UPPER_case"},
	}
	for _, tc := range tests {
		if got := SanitizeName(tc.in); got != tc.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// stability: same input, same output
	if SanitizeName("a.b") != SanitizeName("a.b") {
		t.Error("SanitizeName not stable")
	}
}

func TestExporterText(t *testing.T) {
	withTelemetry(t, true)
	reg := telemetry.NewRegistry()
	reg.Counter("test.events").Add(42)
	reg.Gauge("test.depth").Set(-7)
	h := reg.Histogram("test.lat.ns")
	h.Observe(100)
	h.Observe(100)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := NewExporter(reg).Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE test_events counter\n",
		"test_events_total 42\n",
		"# TYPE test_depth gauge\n",
		"test_depth -7\n",
		"# TYPE test_lat_ns histogram\n",
		"test_lat_ns_sum 5200\n",
		"test_lat_ns_count 3\n",
		`test_lat_ns_bucket{le="+Inf"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("exposition does not end with # EOF:\n%s", out)
	}
}

func TestExporterRoundTrip(t *testing.T) {
	withTelemetry(t, true)
	reg := telemetry.NewRegistry()
	reg.Counter("rt.count").Add(9)
	reg.Gauge("rt.gauge").Set(123)
	h := reg.Histogram("rt.hist")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}

	var buf bytes.Buffer
	if err := NewExporter(reg).Write(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatalf("parse back exporter output: %v", err)
	}
	if !m.EOF {
		t.Error("round-trip lost the # EOF terminator")
	}
	if v, ok := m.Families["rt_count"].Value(); !ok || v != 9 {
		t.Errorf("rt_count = %v, %v; want 9", v, ok)
	}
	if v, ok := m.Families["rt_gauge"].Value(); !ok || v != 123 {
		t.Errorf("rt_gauge = %v, %v; want 123", v, ok)
	}
	f := m.Families["rt_hist"]
	if f == nil || f.Type != "histogram" {
		t.Fatalf("rt_hist family missing or wrong type: %+v", f)
	}
	if c, ok := f.HistCount(); !ok || c != 1000 {
		t.Errorf("rt_hist count = %v, %v; want 1000", c, ok)
	}
	if s, ok := f.suffixValue("_sum"); !ok || s != 500500 {
		t.Errorf("rt_hist sum = %v, %v; want 500500", s, ok)
	}
	// client-side quantile from the parsed buckets tracks the server-side
	// estimate within the histogram's relative-error bound
	want := h.Snapshot().Quantile(0.5)
	got, ok := f.HistQuantile(0.5)
	if !ok {
		t.Fatal("HistQuantile found no buckets")
	}
	if relErr := math.Abs(got-want) / want; relErr > 0.2 {
		t.Errorf("client p50 %g vs server p50 %g (relErr %g)", got, want, relErr)
	}
}

func TestExporterCumulativeBuckets(t *testing.T) {
	withTelemetry(t, true)
	reg := telemetry.NewRegistry()
	h := reg.Histogram("cum.hist")
	h.Observe(0)             // bottom bin (le="0")
	h.Observe(1)             // first positive bin
	h.Observe(10)            // later bin
	h.Observe(math.MaxInt64) // top finite bin

	var buf bytes.Buffer
	if err := NewExporter(reg).Write(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Families["cum_hist"]
	if f == nil {
		t.Fatal("cum_hist family missing")
	}
	// buckets must be cumulative and non-decreasing, ending at _count
	var prev float64 = -1
	var last float64
	sawZero, sawInf := false, false
	for _, s := range f.Samples {
		if s.Name != "cum_hist_bucket" {
			continue
		}
		if s.Value < prev {
			t.Errorf("bucket le=%q value %g below previous %g", s.Labels["le"], s.Value, prev)
		}
		prev = s.Value
		last = s.Value
		switch s.Labels["le"] {
		case "0":
			sawZero = true
			if s.Value != 1 {
				t.Errorf("le=0 bucket = %g, want 1", s.Value)
			}
		case "+Inf":
			sawInf = true
		}
	}
	if !sawZero {
		t.Error("bottom bin not exposed as le=\"0\"")
	}
	if !sawInf {
		t.Error("no le=\"+Inf\" bucket")
	}
	if c, _ := f.HistCount(); last != c || c != 4 {
		t.Errorf("+Inf bucket %g != count %g (want 4)", last, c)
	}
}

// TestExporterSteadyStateAllocs pins the exporter's steady-state scrape
// at zero allocations per run — and therefore zero per metric — once the
// snapshot storage, render buffer, and name cache have warmed up.
func TestExporterSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	withTelemetry(t, true)
	reg := telemetry.NewRegistry()
	for i := 0; i < 16; i++ {
		reg.Counter(fmt.Sprintf("steady.counter.%d", i)).Add(uint64(i))
		reg.Gauge(fmt.Sprintf("steady.gauge.%d", i)).Set(int64(i))
		h := reg.Histogram(fmt.Sprintf("steady.hist.%d", i))
		for v := int64(1); v < 1<<20; v *= 3 {
			h.Observe(v)
		}
	}
	e := NewExporter(reg)
	// warm up caches and buffers
	for i := 0; i < 3; i++ {
		if err := e.Write(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Write(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state scrape allocates %.1f times per run, want 0", allocs)
	}
}

// TestExporterScrapeWhileMutate hammers the exporter from several
// goroutines while other goroutines mutate every metric kind, under
// whatever detector the build has (-race in CI). Every scrape must stay
// parseable with cumulative buckets intact.
func TestExporterScrapeWhileMutate(t *testing.T) {
	withTelemetry(t, true)
	reg := telemetry.NewRegistry()
	c := reg.Counter("mut.count")
	g := reg.Gauge("mut.gauge")
	h := reg.Histogram("mut.hist")
	e := NewExporter(reg)

	stop := make(chan struct{})
	var mutators, scrapers sync.WaitGroup
	for w := 0; w < 4; w++ {
		mutators.Add(1)
		go func(seed int64) {
			defer mutators.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(v)
				h.Observe(v&0xffff + 1)
				// churn the registry map too: metric creation is the
				// only write path the registry lock guards
				reg.Counter("mut.count").Inc()
				v = v*6364136223846793005 + 1442695040888963407
			}
		}(int64(w + 1))
	}
	scrapeErrs := make(chan error, 8)
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := e.Write(&buf); err != nil {
					scrapeErrs <- err
					return
				}
				m, err := ParseMetrics(bytes.NewReader(buf.Bytes()))
				if err != nil {
					scrapeErrs <- fmt.Errorf("scrape %d unparseable: %w", i, err)
					return
				}
				if !m.EOF {
					scrapeErrs <- fmt.Errorf("scrape %d missing # EOF", i)
					return
				}
				f := m.Families["mut_hist"]
				if f != nil {
					var prev float64 = -1
					for _, smp := range f.Samples {
						if smp.Name != "mut_hist_bucket" {
							continue
						}
						if smp.Value < prev {
							scrapeErrs <- fmt.Errorf("scrape %d: bucket series not cumulative", i)
							return
						}
						prev = smp.Value
					}
				}
			}
		}()
	}
	// let the scrapers finish, then stop the mutators
	scrapers.Wait()
	close(stop)
	mutators.Wait()
	select {
	case err := <-scrapeErrs:
		t.Fatal(err)
	default:
	}
}

func TestParseMetricsErrors(t *testing.T) {
	bad := []string{
		"metric_without_value\n# EOF\n",
		"m{le=\"unterminated} 1\n# EOF\n",
		"m 1\n# EOF\nmore 2\n",
		"m notanumber\n# EOF\n",
	}
	for _, in := range bad {
		if _, err := ParseMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("ParseMetrics(%q) accepted malformed input", in)
		}
	}
	// plain Prometheus output (no # EOF) parses but reports EOF=false
	m, err := ParseMetrics(strings.NewReader("m 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.EOF {
		t.Error("EOF reported without terminator")
	}
}
