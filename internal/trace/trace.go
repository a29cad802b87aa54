// Package trace is the library's span tracer: the second leg of the
// self-observability layer next to internal/telemetry's counters. Where
// telemetry answers "how much, in aggregate", spans answer "where did
// *this* run spend its time": every pipeline phase (snapshot → local
// reduce → cross-process reduction → post-process → format) opens a span
// with a begin and end timestamp, optional key/value attributes, and the
// emulated MPI rank it ran on, so one query's execution can be laid out
// on a timeline and inspected in Perfetto / chrome://tracing.
//
// Design constraints (shared with internal/telemetry):
//
//   - Stdlib only, process-global, kill-switched. The disabled path is a
//     single atomic load and zero allocations: Begin returns a zero Span
//     value, and every Span method checks one flag and returns.
//   - The enabled path is allocation-free too: completed spans are copied
//     into a preallocated ring buffer; integer attributes are stored as
//     int64 and formatted only at export time.
//   - Spans are mergeable across emulated MPI ranks by construction:
//     ranks are goroutines in one process recording into the same ring,
//     and each span carries its rank id, which becomes the Chrome trace
//     "process" lane at export.
//
// Collected spans surface two ways: Chrome trace-event JSON (WriteTrace /
// caliper.WriteTrace, the -trace flag of cali-query, cali-stat and
// cleverleaf, and the /debug/trace endpoint) and the sorted plain-text
// report (WriteReport). A query's phase spans are also opened on the
// query's Profile, which times them whether or not the kill switch is on:
// that per-query record is what EXPLAIN ANALYZE, /debug/queries and the
// parallel query's wall-clock timing read. See docs/OBSERVABILITY.md for
// the span catalogue.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the package-level kill switch. Checking it is the entire
// cost of an instrumented call site when tracing is off.
var enabled atomic.Bool

// Enabled reports whether span collection is on. Call sites that must do
// extra work to label a span (e.g. render a value to a string) should
// gate on Span.Active instead.
func Enabled() bool { return enabled.Load() }

// Enable turns span collection on.
func Enable() { enabled.Store(true) }

// SetEnabled sets the kill switch and returns the previous state, for
// scoped enablement in tests and tools.
func SetEnabled(on bool) (previous bool) { return enabled.Swap(on) }

// epoch anchors span timestamps; Start values are nanoseconds since it.
var epoch = time.Now()

// MaxArgs is the number of attributes one span can carry. Excess Arg
// calls are dropped silently — spans are diagnostics, not records.
const MaxArgs = 4

// Arg is one span attribute. Integer attributes are kept numeric so the
// recording path never formats; Value renders either form.
type Arg struct {
	key   string
	str   string
	num   int64
	isNum bool
}

// Key returns the attribute name.
func (a Arg) Key() string { return a.key }

// Value returns the attribute value as a string.
func (a Arg) Value() string {
	if a.isNum {
		return formatInt(a.num)
	}
	return a.str
}

// formatInt is strconv.FormatInt(v, 10) without the import (kept local
// so the package's only dependencies are sync, sync/atomic, and time).
func formatInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	u := uint64(v)
	if v < 0 {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	if v < 0 {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// Span is one in-flight span. It is a value type: Begin returns it on the
// stack and End copies the completed span into the ring buffer (and, for a
// span opened on a Profile, folds it into the profile), so the disabled
// path allocates nothing. A Span must End on the goroutine that Began it.
type Span struct {
	name  string
	rank  int32
	tid   int32
	start int64
	args  [MaxArgs]Arg
	nargs uint8
	ok    bool     // tracing was on at Begin: End records into the ring
	prof  *Profile // End records into this query's profile
}

// now reads the span clock: nanoseconds since the trace epoch.
func now() int64 { return time.Since(epoch).Nanoseconds() }

// Begin opens a span with rank and tid 0 (the process-local lane).
func Begin(name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{name: name, start: now(), ok: true}
}

// BeginRank opens a span tagged with an emulated MPI rank; the rank
// becomes the span's process lane in the Chrome trace export.
func BeginRank(name string, rank int) Span {
	s := Begin(name)
	s.rank = int32(rank)
	return s
}

// Active reports whether the span is recording — into the ring (tracing
// was enabled when it began) or a profile. Use it to skip work that only
// produces span labels.
func (s *Span) Active() bool { return s.ok || s.prof != nil }

// SetTid tags the span with a thread index (Chrome trace tid).
func (s *Span) SetTid(tid int) {
	if s.Active() {
		s.tid = int32(tid)
	}
}

// Arg attaches a string attribute. At most MaxArgs attach; extras drop.
func (s *Span) Arg(key, value string) {
	if !s.Active() || s.nargs >= MaxArgs {
		return
	}
	s.args[s.nargs] = Arg{key: key, str: value}
	s.nargs++
}

// ArgInt attaches an integer attribute without formatting it.
func (s *Span) ArgInt(key string, value int64) {
	if !s.Active() || s.nargs >= MaxArgs {
		return
	}
	s.args[s.nargs] = Arg{key: key, num: value, isNum: true}
	s.nargs++
}

// End completes the span and returns its length in nanoseconds: it folds
// into the profile the span was opened on, if any, and is recorded into
// the ring buffer if tracing was enabled at Begin — one clock reading for
// both. End on a span that records nowhere (tracing disabled at Begin, no
// profile) reads no clock and returns 0, as does a second End.
func (s *Span) End() int64 {
	if !s.Active() {
		return 0
	}
	dur := now() - s.start
	if s.prof != nil {
		s.prof.add(phaseOf(s.name), dur, s.args[:s.nargs])
	}
	if s.ok {
		d := SpanData{
			Name:  s.name,
			Rank:  s.rank,
			Tid:   s.tid,
			Start: s.start,
			Dur:   dur,
			args:  s.args,
			nargs: s.nargs,
		}
		if s.prof != nil {
			d.QID = s.prof.QID
		}
		ring.append(d)
	}
	s.ok, s.prof = false, nil
	return dur
}

// SpanData is one completed span as stored in the ring buffer.
type SpanData struct {
	// Seq is the global completion sequence number (1-based); spans with
	// higher Seq ended later.
	Seq uint64
	// Name identifies the span (see the catalogue in docs/OBSERVABILITY.md).
	Name string
	// Rank is the emulated MPI rank lane ("process" in the Chrome trace).
	Rank int32
	// Tid is the thread lane within the rank.
	Tid int32
	// Start is nanoseconds since the process trace epoch.
	Start int64
	// Dur is the span length in nanoseconds.
	Dur int64
	// QID is the query the span was measured for (Profile.QID; 0: none).
	QID uint64

	args  [MaxArgs]Arg
	nargs uint8
}

// Args returns the span's attributes in attachment order.
func (d *SpanData) Args() []Arg { return d.args[:d.nargs] }

// defaultCapacity bounds the ring buffer: old spans are overwritten once
// the buffer is full (Dropped counts them).
const defaultCapacity = 1 << 14

// ringBuffer is a mutex-protected fixed-capacity span ring. A mutex (not
// a lock-free scheme) is deliberate: End is called at phase granularity,
// not per record, so contention is negligible and the code stays obvious.
// total is the monotonic completion sequence; the valid region is the
// last `size` appends, ending at slot (total-1) % capacity.
type ringBuffer struct {
	mu      sync.Mutex
	slots   []SpanData
	total   uint64 // spans ever appended (== last assigned Seq)
	size    int    // buffered spans, <= len(slots)
	dropped uint64 // spans overwritten by wrap-around
}

var ring = &ringBuffer{slots: make([]SpanData, defaultCapacity)}

func (r *ringBuffer) append(d SpanData) {
	r.mu.Lock()
	d.Seq = r.total + 1
	if r.size == len(r.slots) {
		r.dropped++
	} else {
		r.size++
	}
	r.slots[r.total%uint64(len(r.slots))] = d
	r.total++
	r.mu.Unlock()
}

// Snapshot returns a copy of the buffered spans, oldest first (ascending
// Seq). Reads work regardless of the kill switch.
func Snapshot() []SpanData {
	ring.mu.Lock()
	defer ring.mu.Unlock()
	cp := uint64(len(ring.slots))
	out := make([]SpanData, 0, ring.size)
	for i := ring.total - uint64(ring.size); i < ring.total; i++ {
		out = append(out, ring.slots[i%cp])
	}
	return out
}

// Dropped returns the number of spans lost to ring wrap-around.
func Dropped() uint64 {
	ring.mu.Lock()
	defer ring.mu.Unlock()
	return ring.dropped
}

// Reset discards all buffered spans and the wrap-around drop count. The
// sequence counter keeps increasing.
func Reset() {
	ring.mu.Lock()
	defer ring.mu.Unlock()
	ring.size = 0
	ring.dropped = 0
}
