package telemetry

import (
	"math"
	"strings"
	"testing"
)

// withEnabled runs the test with the kill switch in the given state and
// restores the previous state afterwards.
func withEnabled(t *testing.T, on bool) {
	t.Helper()
	prev := SetEnabled(on)
	t.Cleanup(func() { SetEnabled(prev) })
}

func TestKillSwitch(t *testing.T) {
	withEnabled(t, false)
	r := NewRegistry()
	c := r.Counter("test.counter")
	g := r.Gauge("test.gauge")
	h := r.Histogram("test.hist")

	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Add(3)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatalf("disabled telemetry recorded: counter=%d gauge=%d hist=%d",
			c.Value(), g.Value(), h.Snapshot().Count)
	}

	SetEnabled(true)
	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Add(3)
	h.Observe(100)
	if c.Value() != 11 {
		t.Errorf("counter = %d, want 11", c.Value())
	}
	if g.Value() != 8 {
		t.Errorf("gauge = %d, want 8", g.Value())
	}
	if s := h.Snapshot(); s.Count != 1 || s.Sum != 100 {
		t.Errorf("hist count=%d sum=%d, want 1/100", s.Count, s.Sum)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Error("Histogram not idempotent")
	}
}

func TestRegistryExportSortedAndReset(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("m.gauge").Set(-7)
	r.Histogram("z.hist").Observe(42)

	ms := r.Export()
	if len(ms) != 4 {
		t.Fatalf("exported %d metrics, want 4", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Name > ms[i].Name {
			t.Errorf("export not sorted: %q before %q", ms[i-1].Name, ms[i].Name)
		}
	}
	if ms[0].Name != "a.count" || ms[0].Counter != 1 {
		t.Errorf("first metric = %+v, want a.count=1", ms[0])
	}

	r.Reset()
	for _, m := range r.Export() {
		if m.Counter != 0 || m.Gauge != 0 || m.Hist.Count != 0 {
			t.Errorf("metric %q not zeroed after Reset: %+v", m.Name, m)
		}
	}
}

func TestWriteReport(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	r.Counter("caligo.test.records").Add(7)
	r.Histogram("caligo.test.ns").Observe(1000)
	var sb strings.Builder
	if err := r.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"caligo.test.records", "7", "caligo.test.ns", "count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestExportMap(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Histogram("h").Observe(10)
	m := r.ExportMap()
	if m["c"] != uint64(3) {
		t.Errorf("c = %v, want 3", m["c"])
	}
	hm, ok := m["h"].(map[string]any)
	if !ok || hm["count"] != uint64(1) {
		t.Errorf("h = %v, want histogram map with count 1", m["h"])
	}
}

// TestDisabledPathAllocs proves the kill-switch path allocates nothing —
// the property that makes always-present instrumentation safe on hot
// paths.
func TestDisabledPathAllocs(t *testing.T) {
	withEnabled(t, false)
	r := NewRegistry()
	c := r.Counter("alloc.counter")
	g := r.Gauge("alloc.gauge")
	h := r.Histogram("alloc.hist")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(123)
	}); n != 0 {
		t.Errorf("disabled mutators allocate %v allocs/op, want 0", n)
	}
}

// TestEnabledPathAllocs proves the enabled path is allocation-free too:
// bins are preallocated, counters are plain atomics.
func TestEnabledPathAllocs(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	c := r.Counter("alloc.counter")
	h := r.Histogram("alloc.hist")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(123456)
	}); n != 0 {
		t.Errorf("enabled mutators allocate %v allocs/op, want 0", n)
	}
}

func TestQuantileAndMean(t *testing.T) {
	withEnabled(t, true)
	h := newHistogram("q")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1µs .. 1ms
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	p50 := s.Quantile(0.5)
	// log-linear bins with 8 sub-bins: relative error bound 12.5% + bin
	// midpoint rounding; allow 20%.
	if p50 < 400e3 || p50 > 620e3 {
		t.Errorf("p50 = %g, want ≈ 500000", p50)
	}
	mean := s.Mean()
	if mean < 490e3 || mean > 511e3 {
		t.Errorf("mean = %g, want ≈ 500500", mean)
	}
	max := s.Max()
	if max < 1e6 || max > 1.2e6 {
		t.Errorf("max = %g, want ≈ 1e6 (bin upper bound)", max)
	}
	if q := s.Quantile(0); q <= 0 {
		t.Errorf("q0 = %g, want > 0 (all observations positive)", q)
	}
	if q := s.Quantile(1); q < max/1.2 {
		t.Errorf("q1 = %g, want near max %g", q, max)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Error("empty snapshot should report zeros")
	}
}

func TestHistogramMonotoneBins(t *testing.T) {
	// bin index must be monotone in the value, and bounds must bracket it
	prev := 0
	for _, v := range []int64{1, 2, 3, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20,
		1<<40 + 12345, 1 << 62, math.MaxInt64} {
		i := binIndex(v)
		if i < prev {
			t.Errorf("binIndex(%d) = %d < previous %d (not monotone)", v, i, prev)
		}
		prev = i
		// float64(MaxInt64) rounds up to exactly 2^63, the exclusive upper
		// bound of the last regular bin; compare in integer space instead
		lo, hi := binLower(i), binUpper(i)
		if float64(v) < lo || (float64(v) >= hi && v != math.MaxInt64) {
			t.Errorf("value %d outside its bin [%g, %g)", v, lo, hi)
		}
	}
}
