package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"caligo/internal/telemetry"
)

// The benchmark's own span recorder. Spans are recorded around the calls
// into each layer's exported functions, kept in memory, and written as
// Chrome trace JSON when the benchmark ends. It is independent of
// internal/trace, whose cost is one of the things being measured.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // shared by all spans of one operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counters holds the non-zero telemetry counter deltas across a stage.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// layerAcc accumulates everything measured under one layer name.
type layerAcc struct {
	stages   int64 // stage spans recorded
	stageNS  int64 // their summed wall time
	callNS   int64 // summed time of the per-call spans (CPU-like under parallel stages)
	units    int64 // records, buckets, rows ... whatever the layer counts
	calls    int64
	mallocs  uint64
	bytes    uint64
	counters map[string]uint64
	perUnit  *telemetry.Histogram // per-call picoseconds per unit
}

type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	nextOp int
	layers map[string]*layerAcc
	hists  *telemetry.Registry
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: map[string]*layerAcc{}, hists: telemetry.NewRegistry()}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) begin(name string, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) int64 {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	return s.End - s.Start
}

func (t *tracer) layer(name string) *layerAcc {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.layers[name]
	if l == nil {
		l = &layerAcc{counters: map[string]uint64{}, perUnit: t.hists.Histogram(name)}
		t.layers[name] = l
	}
	return l
}

// opSpan is the root span of one traced operation: a fused op, one staged
// replay, or one batch of isolated sub-measurements.
type opSpan struct {
	t        *tracer
	id, op   int
	stagedNS int64 // summed wall time of the op's stage spans
}

func (t *tracer) beginOp(name string) *opSpan {
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return &opSpan{t: t, id: t.begin(name, 0, op), op: op}
}

func (o *opSpan) end() time.Duration { return time.Duration(o.t.end(o.id)) }

// stageCtx is handed to a stage body so it can record one child span per
// call into the layer.
type stageCtx struct {
	t      *tracer
	layer  string
	id, op int
}

// call times fn as one call into the stage's layer; fn returns the units
// of work (records, buckets, rows) the call covered. It is safe to use
// from the goroutines of a parallel stage.
func (s *stageCtx) call(fn func() (int, error)) error { return s.callAs(s.layer, fn) }

// callAs is call for work that belongs to another layer than the stage's,
// such as the wire decode inside a reduction step.
func (s *stageCtx) callAs(layer string, fn func() (int, error)) error {
	acc := s.t.layer(layer)
	id := s.t.begin(layer, s.id, s.op)
	units, err := fn()
	ns := s.t.end(id)
	s.t.mu.Lock()
	acc.callNS += ns
	acc.units += int64(units)
	acc.calls++
	s.t.mu.Unlock()
	if units > 0 {
		acc.perUnit.Observe(ns * 1000 / int64(units))
	}
	return err
}

// stage runs body as one stage of op, under a span named after the layer.
// Heap and telemetry counters are read at the stage boundaries, outside
// the span, so their cost is not charged to the layer.
func (o *opSpan) stage(layer string, body func(*stageCtx) error) error {
	acc := o.t.layer(layer)
	var m0, m1 runtime.MemStats
	c0 := counterValues()
	runtime.ReadMemStats(&m0)
	id := o.t.begin(layer, o.id, o.op)
	err := body(&stageCtx{t: o.t, layer: layer, id: id, op: o.op})
	ns := o.t.end(id)
	runtime.ReadMemStats(&m1)
	delta := counterDelta(c0, counterValues())
	o.stagedNS += ns
	o.t.mu.Lock()
	acc.stages++
	acc.stageNS += ns
	acc.mallocs += m1.Mallocs - m0.Mallocs
	acc.bytes += m1.TotalAlloc - m0.TotalAlloc
	for k, v := range delta {
		acc.counters[k] += v
	}
	o.t.spans[id-1].Counters = delta
	o.t.mu.Unlock()
	return err
}

// single is a stage made of one call.
func (o *opSpan) single(layer string, fn func() (int, error)) error {
	return o.stage(layer, func(st *stageCtx) error { return st.call(fn) })
}

// counterValues reads the program's telemetry counters (all zero unless
// telemetry is enabled, which it is in the traced run only).
func counterValues() map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range telemetry.Export() {
		if m.Kind == telemetry.KindCounter {
			out[m.Name] = m.Counter
		}
	}
	return out
}

func counterDelta(before, after map[string]uint64) map[string]uint64 {
	var out map[string]uint64
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			if out == nil {
				out = map[string]uint64{}
			}
			out[k] = d
		}
	}
	return out
}

// per divides a total accumulated under the layer by its units of work.
func (l *layerAcc) per(total float64) float64 {
	if l.units == 0 {
		return 0
	}
	return total / float64(l.units)
}

// nsPerUnit is the layer's cost per unit of work, from its call spans;
// allocsPerUnit and bytesPerUnit are its heap use, from its stage spans.
func (l *layerAcc) nsPerUnit() float64     { return l.per(float64(l.callNS)) }
func (l *layerAcc) allocsPerUnit() float64 { return l.per(float64(l.mallocs)) }
func (l *layerAcc) bytesPerUnit() float64  { return l.per(float64(l.bytes)) }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover (children of a
// parallel stage overlap, so the cover is the union of their intervals).
func (t *tracer) selfTimes() map[string]int64 {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var cover, hi int64
		hi = s.Start
		for _, c := range iv {
			lo := max(c[0], hi)
			if c[1] > lo {
				cover += c[1] - lo
				hi = c[1]
			}
		}
		self[s.Name] += s.End - s.Start - cover
	}
	return self
}

// writeChromeTrace writes the spans in the Chrome trace event format
// (chrome://tracing, Perfetto). Every event carries its span id, parent id
// and op id in args, so the causal tree survives the export.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
		for k, v := range s.Counters {
			args[k] = v
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Op, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
