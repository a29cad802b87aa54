// Package telemetry is the library's self-instrumentation layer: a
// stdlib-only, allocation-free-on-the-hot-path metrics library the
// profiler uses to observe itself. The paper's pitch is that flexible
// aggregation makes performance introspection cheap enough to leave on in
// production; this package applies the same standard to the profiler —
// every subsystem (snapshot engine, aggregation core, stream format,
// reduction network, parallel query) exposes counters and latency
// histograms through a process-global named-metric registry.
//
// Design constraints:
//
//   - The disabled path is a single atomic load. All mutators (Counter.Add,
//     Gauge.Set, Histogram.Observe) first check the package kill switch and
//     return immediately when telemetry is off, so instrumented hot paths
//     (snapshot take, aggregation-DB update) pay one atomic.Bool load and a
//     predictable branch — nothing else, and zero allocations.
//   - The enabled path is also allocation-free: counters and gauges are
//     single atomics, histogram bins are preallocated atomic arrays.
//   - Histograms are log-linear latency histograms in the style of
//     Circonus's circllhist (arXiv:2001.06561). They are deliberately
//     coarser than internal/core's fixed-range histogram operator: a fixed
//     relative error (≤ 1/8 per bin) over the full positive int64 range,
//     with no configuration.
//
// Metrics surface three ways: the caliper "metrics" runtime service
// flushes them as ordinary snapshot records (queryable with CalQL — the
// dogfooded channel), caliper.ServeDebug exposes them over expvar/HTTP,
// and the cali-query / cali-stat commands print a post-run report with
// -stats. See docs/OBSERVABILITY.md for the metric name catalogue.
package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// enabled is the package-level kill switch. Checking it is the entire
// cost of an instrumented hot path when telemetry is off.
var enabled atomic.Bool

// Enabled reports whether telemetry collection is on. Instrumented code
// that must do extra work to produce an observation (e.g. read a clock)
// should gate on this before computing the value.
func Enabled() bool { return enabled.Load() }

// Enable turns telemetry collection on.
func Enable() { enabled.Store(true) }

// Disable turns telemetry collection off. Recorded values are retained
// and remain readable.
func Disable() { enabled.Store(false) }

// SetEnabled sets the kill switch and returns the previous state, for
// scoped enablement in tests and tools.
func SetEnabled(on bool) (previous bool) { return enabled.Swap(on) }

// Kind discriminates metric types in exports.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the kind name used in reports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Counter is a monotonically increasing event counter.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if !enabled.Load() {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Reads work regardless of the kill
// switch.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (e.g. a current size).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a thread-safe named-metric table. Metric creation is
// idempotent per (kind, name): asking for an existing name returns the
// existing metric, so packages can declare their metrics independently
// with package-level variables.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// defaultRegistry is the process-global registry all instrumentation in
// this repository records into.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(name)
		r.hists[name] = h
	}
	return h
}

// NewCounter returns the named counter in the default registry.
func NewCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// NewGauge returns the named gauge in the default registry.
func NewGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// NewHistogram returns the named histogram in the default registry.
func NewHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// Reset zeroes every registered metric. Metrics stay registered (the
// pointers held by instrumented packages remain valid). Intended for
// tests and per-run reporting in tools.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Metric is one exported metric value. Exactly one of the value fields is
// meaningful, selected by Kind.
type Metric struct {
	Name    string
	Kind    Kind
	Counter uint64            // KindCounter
	Gauge   int64             // KindGauge
	Hist    HistogramSnapshot // KindHistogram
}

// Export returns a point-in-time copy of every registered metric, sorted
// by name (counters and gauges before histograms on name ties).
func (r *Registry) Export() []Metric { return r.ExportInto(nil) }

// ExportInto is Export appending into dst (reusing its backing array), so
// steady-state scrapers — the OpenMetrics exporter scraped every few
// seconds — can read the registry without allocating once dst has grown
// to the registered-metric count.
func (r *Registry) ExportInto(dst []Metric) []Metric {
	r.mu.RLock()
	out := dst[:0]
	if cap(out) == 0 {
		out = make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	}
	for _, c := range r.counters {
		out = append(out, Metric{Name: c.name, Kind: KindCounter, Counter: c.Value()})
	}
	for _, g := range r.gauges {
		out = append(out, Metric{Name: g.name, Kind: KindGauge, Gauge: g.Value()})
	}
	for _, h := range r.hists {
		out = append(out, Metric{Name: h.name, Kind: KindHistogram, Hist: h.Snapshot()})
	}
	r.mu.RUnlock()
	sortMetrics(out)
	return out
}

// sortMetrics orders metrics by (name, kind). Hand-written insertion sort
// rather than sort.Slice: the registry holds tens of metrics, map
// iteration order randomizes the input every export, and the reflection
// and closure machinery of the sort package allocates — this keeps the
// scrape path allocation-free for the OpenMetrics exporter.
func sortMetrics(m []Metric) {
	for i := 1; i < len(m); i++ {
		for j := i; j > 0 && metricLess(&m[j], &m[j-1]); j-- {
			m[j], m[j-1] = m[j-1], m[j]
		}
	}
}

func metricLess(a, b *Metric) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Kind < b.Kind
}

// ExportMap renders the registry as a JSON-encodable map, for expvar.
// Histograms export their summary statistics.
func (r *Registry) ExportMap() map[string]any {
	out := map[string]any{}
	for _, m := range r.Export() {
		switch m.Kind {
		case KindCounter:
			out[m.Name] = m.Counter
		case KindGauge:
			out[m.Name] = m.Gauge
		case KindHistogram:
			out[m.Name] = map[string]any{
				"count": m.Hist.Count,
				"sum":   m.Hist.Sum,
				"avg":   m.Hist.Mean(),
				"p50":   m.Hist.Quantile(0.50),
				"p95":   m.Hist.Quantile(0.95),
				"p99":   m.Hist.Quantile(0.99),
				"max":   m.Hist.Max(),
			}
		}
	}
	return out
}

// WriteReport writes a human-readable dump of every registered metric —
// the post-run report the -stats flags of cali-query and cali-stat print.
func (r *Registry) WriteReport(w io.Writer) error {
	metrics := r.Export()
	if _, err := fmt.Fprintf(w, "internal telemetry (%d metrics, collection enabled=%v):\n",
		len(metrics), Enabled()); err != nil {
		return err
	}
	for _, m := range metrics {
		var err error
		switch m.Kind {
		case KindCounter:
			_, err = fmt.Fprintf(w, "  %-44s %12d\n", m.Name, m.Counter)
		case KindGauge:
			_, err = fmt.Fprintf(w, "  %-44s %12d\n", m.Name, m.Gauge)
		case KindHistogram:
			_, err = fmt.Fprintf(w,
				"  %-44s count=%d sum=%d avg=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
				m.Name, m.Hist.Count, m.Hist.Sum, m.Hist.Mean(),
				m.Hist.Quantile(0.50), m.Hist.Quantile(0.95),
				m.Hist.Quantile(0.99), m.Hist.Max())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteReport writes the default registry's report.
func WriteReport(w io.Writer) error { return defaultRegistry.WriteReport(w) }

// Reset zeroes every metric in the default registry.
func Reset() { defaultRegistry.Reset() }

// Export returns the default registry's metrics.
func Export() []Metric { return defaultRegistry.Export() }

// ExportMap returns the default registry's metrics as an expvar-friendly map.
func ExportMap() map[string]any { return defaultRegistry.ExportMap() }
