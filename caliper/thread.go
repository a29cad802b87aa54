package caliper

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"caligo/internal/attr"
	"caligo/internal/blackboard"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// Thread is one thread of execution's measurement state: its blackboard
// and per-thread service data (e.g. its slice of the aggregation
// database). A Thread is confined to the goroutine that created it; when a
// sampler service is active, a lock serializes annotation updates against
// asynchronous snapshot collection (Go's substitute for Caliper's
// async-signal-safe implementation).
//
// Callback phases: trigger callbacks (the event service) run outside the
// thread lock and may take snapshots; measurement callbacks (the timer
// service) run under the lock together with the blackboard mutation.
// Snapshots at region begin are taken before the blackboard update, so
// the time since the previous snapshot is attributed to the enclosing
// region; snapshots at region end are taken before the region is popped,
// attributing the region's own time to it. This yields correct exclusive
// time profiles under "AGGREGATE sum(time.duration)".
type Thread struct {
	ch    *Channel
	bb    *blackboard.Blackboard
	index int

	// mu is non-nil only when sampling is enabled.
	mu *sync.Mutex

	// state holds per-service thread state, indexed by the slot
	// Channel.addThreadState gave the service. Filled by Channel.Thread and
	// never written again, so reading it takes no lock.
	state []any

	// sb and flat are the snapshot scratch: takeSnapshot assembles every
	// record in sb, and processing services expand it into flat. Both are
	// touched only inside takeSnapshot (under the thread lock when
	// sampling), and what they hold is overwritten by the next snapshot.
	sb   snapshot.Builder
	flat snapshot.FlatRecord

	// virtNow is the thread's virtual-time source in nanoseconds, used by
	// the timer service when the channel is configured with
	// "timer.source": "virtual". Owner-goroutine access only.
	virtNow int64

	snapshots atomic.Uint64

	// traceRank is the emulated MPI rank attached to this thread's trace
	// spans (the Chrome trace process lane). Atomic: the sampler goroutine
	// reads it in takeSnapshot while the owner may still be setting it.
	traceRank atomic.Int32
	// regions is the stack of open annotation-region trace spans; pushed
	// in Begin and popped by the matching End. Empty unless tracing is on.
	regions []regionSpan
}

// regionSpan pairs an open region span with the attribute that opened it,
// so End can pop the right span even when regions of different attributes
// interleave.
type regionSpan struct {
	attr attr.ID
	span trace.Span
}

func (t *Thread) lock() {
	if t.mu != nil {
		t.mu.Lock()
	}
}

func (t *Thread) unlock() {
	if t.mu != nil {
		t.mu.Unlock()
	}
}

// Channel returns the channel this thread belongs to.
func (t *Thread) Channel() *Channel { return t.ch }

// Updates reports the number of blackboard updates on this thread.
func (t *Thread) Updates() uint64 { return t.bb.Updates() }

// Snapshots reports the number of snapshots taken on this thread.
func (t *Thread) Snapshots() uint64 { return t.snapshots.Load() }

// resolve finds or creates the attribute for an annotation. New attributes
// default to nested regions (begin/end stack semantics) of the value's
// type.
func (t *Thread) resolve(name string, v attr.Variant) (attr.Attribute, error) {
	if a, ok := t.ch.reg.Find(name); ok {
		return a, nil
	}
	typ := v.Kind()
	if typ == attr.Inv {
		typ = attr.String
	}
	return t.ch.reg.Create(name, typ, attr.Nested)
}

// coerce converts v to the attribute's type if needed.
func coerce(a attr.Attribute, v attr.Variant, op, name string) (attr.Variant, error) {
	if a.Type() == v.Kind() {
		return v, nil
	}
	conv, err := attr.ParseAs(v.String(), a.Type())
	if err != nil {
		return attr.Variant{}, fmt.Errorf("caliper: %s(%s): value %q does not match attribute type %v",
			op, name, v.String(), a.Type())
	}
	return conv, nil
}

// Begin opens an annotated region: it pushes value onto the named
// attribute's stack. The attribute is created on first use with nested
// region semantics. Services observe the update; with the event service
// enabled, a snapshot is triggered before the update.
func (t *Thread) Begin(name string, value any) error {
	v := attr.GuessV(value)
	a, err := t.resolve(name, v)
	if err != nil {
		return err
	}
	v, err = coerce(a, v, "Begin", name)
	if err != nil {
		return err
	}
	events := a.Properties()&attr.SkipEvents == 0
	if events {
		for _, fn := range t.ch.preBeginTrig {
			fn(t, a, v)
		}
	}
	t.lock()
	if events {
		for _, fn := range t.ch.preBeginMeas {
			fn(t, a, v)
		}
	}
	err = t.bb.Begin(a, v)
	t.unlock()
	if err == nil && trace.Enabled() { // format the span name only when it is recorded
		if sp := trace.BeginRank(v.String(), int(t.traceRank.Load())); sp.Active() {
			sp.SetTid(t.index)
			sp.Arg("attr", name)
			t.regions = append(t.regions, regionSpan{attr: a.ID(), span: sp})
		}
	}
	return err
}

// End closes the innermost open region of the named attribute. With the
// event service enabled, a snapshot is taken before the region is popped,
// so its data is still attributed to the region. An End that fails — no
// open region, mismatched nesting — fires no callback and takes no snapshot.
func (t *Thread) End(name string) error {
	a, ok := t.ch.reg.Find(name)
	if !ok {
		return fmt.Errorf("caliper: End(%s): unknown attribute", name)
	}
	// An End that will fail announces nothing; bb.End below reports it. Only
	// the owner changes the blackboard, so it checks without the lock.
	events := a.Properties()&attr.SkipEvents == 0 && t.bb.CheckEnd(a) == nil
	if events {
		t.lock()
		for _, fn := range t.ch.preEndMeas {
			fn(t, a)
		}
		t.unlock()
		for _, fn := range t.ch.preEndTrig {
			fn(t, a)
		}
	}
	t.lock()
	err := t.bb.End(a)
	t.unlock()
	if err == nil {
		// pop the innermost region span opened by this attribute
		for i := len(t.regions) - 1; i >= 0; i-- {
			if t.regions[i].attr == a.ID() {
				t.regions[i].span.End()
				t.regions = append(t.regions[:i], t.regions[i+1:]...)
				break
			}
		}
	}
	return err
}

// Set replaces the innermost value of the named attribute (opening a
// region if none is open). Services observe the update like Begin.
func (t *Thread) Set(name string, value any) error {
	v := attr.GuessV(value)
	a, err := t.resolve(name, v)
	if err != nil {
		return err
	}
	v, err = coerce(a, v, "Set", name)
	if err != nil {
		return err
	}
	events := a.Properties()&attr.SkipEvents == 0
	if events {
		for _, fn := range t.ch.preBeginTrig {
			fn(t, a, v)
		}
	}
	t.lock()
	if events {
		for _, fn := range t.ch.preBeginMeas {
			fn(t, a, v)
		}
	}
	err = t.bb.Set(a, v)
	t.unlock()
	return err
}

// Snapshot explicitly triggers a snapshot on this thread: the current
// blackboard contents are captured, measurement services append their
// data, and processing services consume the record.
func (t *Thread) Snapshot() {
	t.takeSnapshot()
}

// takeSnapshot builds and dispatches one snapshot record. The whole
// capture-measure-process sequence runs under the thread lock (when
// sampling), so owner-triggered and sampler-triggered snapshots serialize
// against blackboard updates and per-thread service state. The record is
// assembled in the thread's reused builder, so processing callbacks borrow
// it: it is valid for the call, and a service that keeps it clones it.
func (t *Thread) takeSnapshot() {
	var snapStart time.Time
	if telemetry.Enabled() {
		snapStart = time.Now()
	}
	sp := trace.BeginRank("caliper.snapshot", int(t.traceRank.Load()))
	sp.SetTid(t.index)
	defer sp.End()
	t.lock()
	defer t.unlock()
	t.sb.Reset()
	t.bb.Snapshot(&t.sb)
	for _, fn := range t.ch.onSnapshot {
		fn(t, &t.sb)
	}
	rec := t.sb.Record()
	t.snapshots.Add(1)
	t.ch.snapshots.Add(1)
	for _, fn := range t.ch.procSnap {
		fn(t, rec)
	}
	if !snapStart.IsZero() {
		telSnapshotNS.Observe(time.Since(snapStart).Nanoseconds())
	}
}

// SetTraceRank tags this thread's trace spans with an emulated MPI rank;
// the rank becomes the span's process lane in the Chrome trace export.
func (t *Thread) SetTraceRank(rank int) { t.traceRank.Store(int32(rank)) }

// SetVirtualTime sets the thread's virtual clock (nanoseconds). Only
// meaningful with "timer.source": "virtual"; must be called from the
// owning goroutine. Virtual time never runs backwards: setting an earlier
// time is a no-op.
func (t *Thread) SetVirtualTime(ns int64) {
	if ns > t.virtNow {
		t.virtNow = ns
	}
}

// AdvanceVirtualTime adds to the thread's virtual clock.
func (t *Thread) AdvanceVirtualTime(ns int64) {
	if ns > 0 {
		t.virtNow += ns
	}
}
