// Package history turns the instantaneous telemetry registry into a
// queryable timeline: a background Recorder snapshots the registry every
// interval and writes each window as ordinary .cali records — counters as
// window deltas, gauges as samples, histograms as mergeable log-linear
// bin sets — stamped with time.window.start / time.window.dur / host.rank
// attributes, into a bounded on-disk retention ring (the internal/prof
// ring pattern). The full history is then CalQL-queryable:
//
//	SELECT time.window.start, metric.name, sum(metric.delta)
//	  GROUP BY time.window.start, metric.name        -- time series
//	AGGREGATE sum(metric.delta) GROUP BY host.rank   -- cross-rank skew
//
// On top of the per-rank timeline, cluster.go dogfoods the paper's own
// aggregation machinery on the telemetry itself: per-rank window records
// reduce through internal/rnet's tree into one cluster-wide core.DB
// (counters sum, histogram bins add, gauges keep min/max), published as
// the /debug/cluster view.
package history

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/obs"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// Self-instrumentation (see docs/OBSERVABILITY.md). The recorder records
// the registry it observes, so these metrics appear in their own history.
var (
	telWindows   = telemetry.NewCounter("caligo.history.windows")
	telRecords   = telemetry.NewCounter("caligo.history.records")
	telBytes     = telemetry.NewCounter("caligo.history.bytes.written")
	telErrors    = telemetry.NewCounter("caligo.history.errors")
	telDropped   = telemetry.NewCounter("caligo.history.dropped")
	telFiles     = telemetry.NewGauge("caligo.history.files")
	telCaptureNS = telemetry.NewHistogram("caligo.history.capture.ns")
)

// enabled is the package kill switch: when off, a capture tick is exactly
// one atomic load (no snapshot, no diff, no I/O). It defaults to on —
// recording is already opt-in via Start.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether history capture is on.
func Enabled() bool { return enabled.Load() }

// SetEnabled sets the capture kill switch and returns the previous state.
// A running Recorder keeps ticking but each tick returns after one atomic
// load while disabled.
func SetEnabled(on bool) (previous bool) { return enabled.Swap(on) }

// Attribute names of the history record schema. Window stamps and
// host.rank are the GROUP BY axes; the metric.* and bin.* attributes
// carry the per-window observations.
const (
	AttrWindowStart = "time.window.start" // int, window start, unix ns
	AttrWindowDur   = "time.window.dur"   // int, window length, ns
	AttrRank        = "host.rank"         // int, producing rank
	AttrMetricName  = "metric.name"       // string
	AttrMetricKind  = "metric.kind"       // string: counter|gauge|histogram
	AttrDelta       = "metric.delta"      // uint, counter increment this window
	AttrTotal       = "metric.total"      // uint, counter cumulative at window end
	AttrValue       = "metric.value"      // int, gauge sample at window end
	AttrCount       = "metric.count"      // uint, histogram observations this window
	AttrSum         = "metric.sum"        // int, histogram sum increment this window
	AttrBinUpper    = "bin.upper"         // float, histogram bin exclusive upper bound
	AttrBinCount    = "bin.count"         // uint, histogram bin increment this window
)

// Attribute properties follow the caliper metrics service conventions:
// every history attribute is an immediate value outside the context tree,
// and the measurement attributes are aggregation targets.
const (
	labelProps = attr.AsValue | attr.SkipEvents
	valueProps = attr.AsValue | attr.Aggregatable | attr.SkipEvents
)

// Schema holds the resolved history attributes of one registry, so window
// records can be built against any attr.Registry (the Recorder's private
// one, or a pquery rank's).
type Schema struct {
	reg         *attr.Registry
	windowStart attr.Attribute
	windowDur   attr.Attribute
	rank        attr.Attribute
	name        attr.Attribute
	kind        attr.Attribute
	delta       attr.Attribute
	total       attr.Attribute
	value       attr.Attribute
	count       attr.Attribute
	sum         attr.Attribute
	binUpper    attr.Attribute
	binCount    attr.Attribute
}

// NewSchema creates (idempotently) the history attributes in reg.
func NewSchema(reg *attr.Registry) (*Schema, error) {
	s := &Schema{reg: reg}
	for _, c := range []struct {
		dst   *attr.Attribute
		name  string
		typ   attr.Type
		props attr.Properties
	}{
		{&s.windowStart, AttrWindowStart, attr.Int, labelProps},
		{&s.windowDur, AttrWindowDur, attr.Int, labelProps},
		{&s.rank, AttrRank, attr.Int, labelProps},
		{&s.name, AttrMetricName, attr.String, labelProps},
		{&s.kind, AttrMetricKind, attr.String, labelProps},
		{&s.delta, AttrDelta, attr.Uint, valueProps},
		{&s.total, AttrTotal, attr.Uint, valueProps},
		{&s.value, AttrValue, attr.Int, valueProps},
		{&s.count, AttrCount, attr.Uint, valueProps},
		{&s.sum, AttrSum, attr.Int, valueProps},
		{&s.binUpper, AttrBinUpper, attr.Float, labelProps},
		{&s.binCount, AttrBinCount, attr.Uint, valueProps},
	} {
		a, err := reg.Create(c.name, c.typ, c.props)
		if err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
		*c.dst = a
	}
	return s, nil
}

// Registry returns the registry the schema's attributes live in.
func (s *Schema) Registry() *attr.Registry { return s.reg }

// stamp returns the common prefix entries of one window's records.
func (s *Schema) stamp(rank int, startNS, durNS int64, name string, kind telemetry.Kind) []attr.Entry {
	return []attr.Entry{
		{Attr: s.windowStart, Value: attr.IntV(startNS)},
		{Attr: s.windowDur, Value: attr.IntV(durNS)},
		{Attr: s.rank, Value: attr.IntV(int64(rank))},
		{Attr: s.name, Value: attr.StringV(name)},
		{Attr: s.kind, Value: attr.StringV(kind.String())},
	}
}

// AppendWindow appends the .cali records of one telemetry window to dst:
// the diff of two registry exports (both sorted by name then kind, as
// Registry.ExportInto returns them). prev may be nil for a one-shot
// window, in which case every cumulative value counts as this window's
// delta. Counters whose value went backwards (registry reset between
// snapshots) restart the delta from the current value. Metrics that did
// not change and are zero are skipped; touched metrics emit every window
// so time series have no gaps.
func (s *Schema) AppendWindow(dst []snapshot.FlatRecord, rank int, startNS, durNS int64, prev, cur []telemetry.Metric) []snapshot.FlatRecord {
	j := 0
	for i := range cur {
		c := &cur[i]
		// advance prev to the matching metric (both inputs are sorted)
		var p *telemetry.Metric
		for j < len(prev) && (prev[j].Name < c.Name || (prev[j].Name == c.Name && prev[j].Kind < c.Kind)) {
			j++
		}
		if j < len(prev) && prev[j].Name == c.Name && prev[j].Kind == c.Kind {
			p = &prev[j]
		}
		switch c.Kind {
		case telemetry.KindCounter:
			var base uint64
			if p != nil {
				base = p.Counter
			}
			delta := c.Counter - base
			if c.Counter < base { // reset between snapshots
				delta = c.Counter
			}
			if c.Counter == 0 && delta == 0 {
				continue
			}
			rec := append(s.stamp(rank, startNS, durNS, c.Name, c.Kind),
				attr.Entry{Attr: s.delta, Value: attr.UintV(delta)},
				attr.Entry{Attr: s.total, Value: attr.UintV(c.Counter)})
			dst = append(dst, rec)
		case telemetry.KindGauge:
			if c.Gauge == 0 && (p == nil || p.Gauge == 0) {
				continue
			}
			rec := append(s.stamp(rank, startNS, durNS, c.Name, c.Kind),
				attr.Entry{Attr: s.value, Value: attr.IntV(c.Gauge)})
			dst = append(dst, rec)
		case telemetry.KindHistogram:
			d := c.Hist
			if p != nil {
				d = c.Hist.Sub(p.Hist)
			}
			if d.Count == 0 {
				continue
			}
			rec := append(s.stamp(rank, startNS, durNS, c.Name, c.Kind),
				attr.Entry{Attr: s.count, Value: attr.UintV(d.Count)},
				attr.Entry{Attr: s.sum, Value: attr.IntV(d.Sum)})
			dst = append(dst, rec)
			d.EachBucket(func(upper float64, n uint64) {
				bin := append(s.stamp(rank, startNS, durNS, c.Name, c.Kind),
					attr.Entry{Attr: s.binUpper, Value: attr.FloatV(upper)},
					attr.Entry{Attr: s.binCount, Value: attr.UintV(n)})
				dst = append(dst, bin)
			})
		}
	}
	return dst
}

// WindowMetric is one metric's contribution to a window summary (the
// /debug/history JSON shape). Exactly the fields of the metric's kind are
// set.
type WindowMetric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Delta uint64 `json:"delta,omitempty"` // counter increment
	Total uint64 `json:"total,omitempty"` // counter cumulative
	Value int64  `json:"value,omitempty"` // gauge sample
	Count uint64 `json:"count,omitempty"` // histogram observations
	Sum   int64  `json:"sum,omitempty"`   // histogram sum increment
}

// Window is one captured telemetry window.
type Window struct {
	Start   int64          `json:"start_unix_ns"`
	Dur     int64          `json:"dur_ns"`
	Rank    int            `json:"rank"`
	File    string         `json:"file,omitempty"`
	Metrics []WindowMetric `json:"metrics"`
}

// summarize builds the JSON window summary alongside the .cali records.
func summarize(rank int, startNS, durNS int64, prev, cur []telemetry.Metric) Window {
	w := Window{Start: startNS, Dur: durNS, Rank: rank}
	j := 0
	for i := range cur {
		c := &cur[i]
		var p *telemetry.Metric
		for j < len(prev) && (prev[j].Name < c.Name || (prev[j].Name == c.Name && prev[j].Kind < c.Kind)) {
			j++
		}
		if j < len(prev) && prev[j].Name == c.Name && prev[j].Kind == c.Kind {
			p = &prev[j]
		}
		switch c.Kind {
		case telemetry.KindCounter:
			var base uint64
			if p != nil {
				base = p.Counter
			}
			delta := c.Counter - base
			if c.Counter < base {
				delta = c.Counter
			}
			if c.Counter == 0 && delta == 0 {
				continue
			}
			w.Metrics = append(w.Metrics, WindowMetric{Name: c.Name, Kind: c.Kind.String(), Delta: delta, Total: c.Counter})
		case telemetry.KindGauge:
			if c.Gauge == 0 && (p == nil || p.Gauge == 0) {
				continue
			}
			w.Metrics = append(w.Metrics, WindowMetric{Name: c.Name, Kind: c.Kind.String(), Value: c.Gauge})
		case telemetry.KindHistogram:
			d := c.Hist
			if p != nil {
				d = c.Hist.Sub(p.Hist)
			}
			if d.Count == 0 {
				continue
			}
			w.Metrics = append(w.Metrics, WindowMetric{Name: c.Name, Kind: c.Kind.String(), Count: d.Count, Sum: d.Sum})
		}
	}
	return w
}

// Options configures a Recorder.
type Options struct {
	// Dir receives the .cali window files. Required.
	Dir string
	// Interval is the capture cadence (default 10s).
	Interval time.Duration
	// MaxFiles bounds the on-disk retention ring: when more window files
	// exist, the oldest are removed (default 64, minimum 2). The in-memory
	// window summaries served by /debug/history honor the same bound.
	MaxFiles int
	// Prefix names the files: <prefix>-<seq>.cali (default "history").
	Prefix string
	// Rank stamps every record's host.rank attribute (default 0).
	Rank int
	// Registry is the telemetry registry to observe (default
	// telemetry.Default()).
	Registry *telemetry.Registry
	// MaxPending bounds the window records buffered for the cluster
	// reduction (rnet.SyncTelemetry); the oldest are dropped — and counted
	// in caligo.history.dropped — when no epoch drains them in time
	// (default 4096 records).
	MaxPending int
}

func (o *Options) fill() error {
	if o.Dir == "" {
		return fmt.Errorf("history: Options.Dir is required")
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	o.MaxFiles = obs.RingSize(o.MaxFiles, 64)
	if o.Prefix == "" {
		o.Prefix = "history"
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default()
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	return nil
}

// Recorder is the background telemetry-history scheduler: every Interval
// it diffs the registry against the previous snapshot, writes the window
// as one .cali ring file, keeps an in-memory summary for /debug/history,
// and buffers the records for the next cluster reduction epoch.
type Recorder struct {
	*obs.FileRing // the retained window files; Files lists them
	opts          Options
	log           *slog.Logger
	schema        *Schema

	mu      sync.Mutex
	seq     int
	windows []Window // in-memory summaries, oldest first, the ring's bound
	prev    []telemetry.Metric
	cur     []telemetry.Metric
	lastAt  time.Time // wall time of the previous snapshot
	buf     bytes.Buffer
	pending []snapshot.FlatRecord // records awaiting a cluster epoch
	done    chan struct{}
	wg      sync.WaitGroup
}

// Start begins continuous history capture. The baseline registry snapshot
// is taken immediately; the first window lands after one Interval (or at
// Stop, whichever comes first — short runs still produce one window).
func Start(opts Options) (*Recorder, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	schema, err := NewSchema(attr.NewRegistry())
	if err != nil {
		return nil, err
	}
	log := obs.Logger("history")
	r := &Recorder{
		FileRing: obs.NewFileRing(opts.Dir, opts.Prefix, opts.MaxFiles, telFiles, log),
		opts:     opts,
		log:      log,
		schema:   schema,
		done:     make(chan struct{}),
	}
	r.mu.Lock()
	r.prev = opts.Registry.ExportInto(r.prev)
	r.lastAt = time.Now()
	r.mu.Unlock()
	r.wg.Add(1)
	go r.loop()
	return r, nil
}

// Stop halts the scheduler, waits for an in-flight capture, and captures
// one final tail window covering the time since the last tick. Retained
// files stay on disk.
func (r *Recorder) Stop() {
	r.mu.Lock()
	select {
	case <-r.done:
		r.mu.Unlock()
		return
	default:
		close(r.done)
	}
	r.mu.Unlock()
	r.wg.Wait()
	if _, err := r.CaptureNow(); err != nil {
		r.log.Warn("final window capture failed", "err", err)
	}
}

func (r *Recorder) loop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
			if _, err := r.CaptureNow(); err != nil {
				r.log.Warn("window capture failed", "err", err)
			}
		}
	}
}

// CaptureNow synchronously captures one window (the time since the last
// snapshot) into the ring and returns the written file path. When the
// kill switch is off it returns ("", nil) after one atomic load. A window
// in which nothing changed writes an empty (globals-only) file so the
// timeline has no gaps.
func (r *Recorder) CaptureNow() (string, error) {
	if !enabled.Load() {
		return "", nil
	}
	start := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()

	startNS := r.lastAt.UnixNano()
	durNS := start.Sub(r.lastAt).Nanoseconds()
	r.cur = r.opts.Registry.ExportInto(r.cur)

	recs := r.schema.AppendWindow(nil, r.opts.Rank, startNS, durNS, r.prev, r.cur)
	win := summarize(r.opts.Rank, startNS, durNS, r.prev, r.cur)

	// encode the window as a .cali stream
	r.buf.Reset()
	w := calformat.NewWriter(&r.buf, r.schema.reg, contexttree.New())
	for _, rec := range recs {
		if err := w.WriteFlat(rec); err != nil {
			telErrors.Inc()
			return "", fmt.Errorf("history: encode window: %w", err)
		}
	}
	if err := w.WriteGlobals([]attr.Entry{
		{Attr: r.schema.windowStart, Value: attr.IntV(startNS)},
		{Attr: r.schema.windowDur, Value: attr.IntV(durNS)},
		{Attr: r.schema.rank, Value: attr.IntV(int64(r.opts.Rank))},
	}); err != nil {
		telErrors.Inc()
		return "", fmt.Errorf("history: encode globals: %w", err)
	}
	if err := w.Flush(); err != nil {
		telErrors.Inc()
		return "", fmt.Errorf("history: encode window: %w", err)
	}

	name := fmt.Sprintf("%s-%06d.cali", r.opts.Prefix, r.seq)
	r.seq++
	path := filepath.Join(r.opts.Dir, name)
	if err := os.WriteFile(path, r.buf.Bytes(), 0o644); err != nil {
		telErrors.Inc()
		return "", fmt.Errorf("history: write %s: %w", path, err)
	}
	win.File = path

	// rotate state: the captured snapshot becomes the next baseline
	r.prev, r.cur = r.cur, r.prev
	r.lastAt = start

	// retention: files and in-memory summaries share the bound
	r.Add(path)
	r.windows = append(r.windows, win)
	if n := len(r.windows) - r.opts.MaxFiles; n > 0 {
		r.windows = append(r.windows[:0], r.windows[n:]...)
	}

	// buffer records for the next cluster epoch, bounded
	r.pending = append(r.pending, recs...)
	if n := len(r.pending) - r.opts.MaxPending; n > 0 {
		r.pending = append(r.pending[:0], r.pending[n:]...)
		telDropped.Add(uint64(n))
	}

	telWindows.Inc()
	telRecords.Add(uint64(len(recs)))
	telBytes.Add(uint64(r.buf.Len()))
	telCaptureNS.Observe(time.Since(start).Nanoseconds())
	return path, nil
}

// Registry returns the private attribute registry the recorder's window
// records resolve against — the registry to build the cluster-epoch
// core.DB over.
func (r *Recorder) Registry() *attr.Registry { return r.schema.reg }

// Schema returns the recorder's resolved history schema.
func (r *Recorder) Schema() *Schema { return r.schema }

// Options returns the recorder's effective (defaulted) options.
func (r *Recorder) Options() Options { return r.opts }

// Windows returns copies of the retained window summaries, oldest first.
func (r *Recorder) Windows() []Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Window, len(r.windows))
	copy(out, r.windows)
	return out
}

// TakePending removes and returns the window records buffered since the
// last cluster epoch (resolving against Registry()). Called by
// rnet.SyncTelemetry on the rank's goroutine.
func (r *Recorder) TakePending() []snapshot.FlatRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.pending
	r.pending = nil
	return out
}
