// Package caliper is the public runtime API of this library: a Go
// reproduction of the Caliper performance introspection framework as
// described in "Flexible Data Aggregation for Performance Profiling"
// (Böhme, Beckingsale, Schulz; CLUSTER 2017).
//
// The runtime is organized like the original: independent building-block
// services (event triggers, timers, on-line aggregation, tracing,
// sampling, output recording) are combined at startup through a runtime
// configuration profile, and communicate through a callback API. Source
// code annotations update attributes on a per-thread blackboard; snapshots
// capture compressed copies of the blackboard that services process — the
// aggregation service maintains the in-memory aggregation database of
// Section IV-B, driven by a user-provided aggregation scheme in the
// description language of Section III-B.
//
// Minimal usage:
//
//	ch, _ := caliper.NewChannel(caliper.Config{
//	    "services":      "event,timer,aggregate",
//	    "aggregate.key": "function,loop.iteration",
//	    "aggregate.ops": "count,sum(time.duration)",
//	})
//	th := ch.Thread()
//	th.Begin("function", "main")
//	// ... work ...
//	th.End("function")
//	rows, _ := ch.Flush()
package caliper

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"caligo/internal/attr"
	"caligo/internal/blackboard"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// Self-instrumentation (see docs/OBSERVABILITY.md). All metrics are
// no-ops (one atomic load) unless telemetry is enabled — enabling happens
// via the "metrics" service, cali-* -stats flags, or telemetry.Enable().
var (
	telSnapshotNS   = telemetry.NewHistogram("caligo.snapshot.ns")
	telFlushCount   = telemetry.NewCounter("caligo.flush.count")
	telFlushRecords = telemetry.NewCounter("caligo.flush.records")
	telFlushNS      = telemetry.NewHistogram("caligo.flush.ns")
)

// Config is a runtime configuration profile: string key/value settings
// selecting and parameterizing services (the equivalent of Caliper's
// configuration files / environment variables).
type Config map[string]string

// service is one composable building block. Services register callbacks
// on the channel at creation time.
type service interface {
	// name returns the service identifier used in the "services" config.
	name() string
}

// flusher is implemented by services that emit records at flush time.
type flusher interface {
	flush(ch *Channel, emit func(snapshot.FlatRecord) error) error
}

// finisher is implemented by services that need teardown (e.g. sampler).
type finisher interface {
	finish(ch *Channel) error
}

// serviceFactory creates a service from the channel config.
type serviceFactory func(ch *Channel, cfg Config) (service, error)

// registry of available services.
var serviceFactories = map[string]serviceFactory{
	"event":     newEventService,
	"timer":     newTimerService,
	"aggregate": newAggregateService,
	"trace":     newTraceService,
	"recorder":  newRecorderService,
	"sampler":   newSamplerService,
	"metrics":   newMetricsService,
}

// Channel is one measurement configuration instance: it owns the attribute
// registry, the context tree, the selected services, and the per-thread
// measurement states created from it. Multiple channels can coexist with
// different configurations.
type Channel struct {
	reg  *attr.Registry
	tree *contexttree.Tree
	cfg  Config
	name string

	services []service

	// callback lists, populated by services at startup. Trigger callbacks
	// run outside the thread lock (and may snapshot); measurement
	// callbacks run under it, together with the blackboard mutation.
	preBeginTrig []func(t *Thread, a attr.Attribute, v attr.Variant)
	preBeginMeas []func(t *Thread, a attr.Attribute, v attr.Variant)
	preEndMeas   []func(t *Thread, a attr.Attribute)
	preEndTrig   []func(t *Thread, a attr.Attribute)
	onSnapshot   []func(t *Thread, sb *snapshot.Builder)
	// procSnap callbacks borrow rec: it lives in the thread's reused
	// builder and is valid only for the call.
	procSnap []func(t *Thread, rec snapshot.Record)

	// threadState holds one constructor per service that keeps per-thread
	// state, in slot order (addThreadState); Thread runs them all.
	threadState []func() any

	mu      sync.Mutex
	threads []*Thread
	globals []attr.Entry

	// snapshots counts all snapshots processed across threads.
	snapshots atomic.Uint64

	// sampling marks that a sampler service is active, enabling per-thread
	// locking (Go's substitute for async-signal-safe sampling).
	sampling bool

	// virtualTimer marks that the timer service reads thread virtual
	// clocks instead of host time ("timer.source": "virtual").
	virtualTimer bool
}

// NewChannel creates a measurement channel from a configuration profile.
// The "services" key lists the enabled services, comma separated.
func NewChannel(cfg Config) (*Channel, error) {
	ch := &Channel{
		reg:  attr.NewRegistry(),
		tree: contexttree.New(),
		cfg:  cfg,
		name: cfg["channel.name"],
	}
	if ch.name == "" {
		ch.name = fmt.Sprintf("channel-%d", channelSeq.Add(1))
	}
	names := splitNonEmpty(cfg["services"])
	// deterministic startup order: sort, but keep "event" and "timer"
	// before "aggregate"/"trace" so measurement callbacks run first —
	// callback registration order defines invocation order.
	sort.SliceStable(names, func(i, j int) bool {
		return serviceOrder(names[i]) < serviceOrder(names[j])
	})
	for _, n := range names {
		factory, ok := serviceFactories[n]
		if !ok {
			return nil, fmt.Errorf("caliper: unknown service %q", n)
		}
		svc, err := factory(ch, cfg)
		if err != nil {
			return nil, fmt.Errorf("caliper: service %s: %w", n, err)
		}
		ch.services = append(ch.services, svc)
	}
	return ch, nil
}

// channelSeq numbers channels that were not given an explicit
// "channel.name", so the dogfooded metrics service can always label its
// records with a channel identity.
var channelSeq atomic.Uint64

// serviceOrder gives measurement services (timer) precedence over
// processing services (aggregate, trace, recorder) in callback order.
// The metrics service flushes last so its records follow the channel's
// regular output.
func serviceOrder(name string) int {
	switch name {
	case "timer":
		return 0
	case "event", "sampler":
		return 1
	case "aggregate", "trace":
		return 2
	case "metrics":
		return 4
	default:
		return 3
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if part := trimSpace(s[start:i]); part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// Name returns the channel's name: the "channel.name" config value, or a
// generated "channel-N" identifier.
func (ch *Channel) Name() string { return ch.name }

// Registry exposes the channel's attribute registry.
func (ch *Channel) Registry() *attr.Registry { return ch.reg }

// Snapshots returns the number of snapshots processed so far.
func (ch *Channel) Snapshots() uint64 { return ch.snapshots.Load() }

// VirtualTimer reports whether the channel's timer service reads thread
// virtual clocks ("timer.source": "virtual") rather than host time.
// Instrumentation layers that drive simulated clocks (e.g. the emulated
// MPI wrapper) use this to know they must synchronize thread time.
func (ch *Channel) VirtualTimer() bool { return ch.virtualTimer }

// CreateAttribute pre-registers an attribute with explicit type and
// properties, overriding the defaults the annotation API would choose.
func (ch *Channel) CreateAttribute(name string, typ attr.Type, props attr.Properties) (attr.Attribute, error) {
	return ch.reg.Create(name, typ, props)
}

// SetGlobal records per-run metadata (e.g. the experiment name, problem
// size, or host) that the recorder writes into the dataset as a globals
// record. Globals are not part of snapshot records.
func (ch *Channel) SetGlobal(name string, value any) error {
	v := attr.GuessV(value)
	typ := v.Kind()
	if typ == attr.Inv {
		typ = attr.String
	}
	a, err := ch.reg.Create(name, typ, attr.Global)
	if err != nil {
		return err
	}
	if a.Type() != v.Kind() {
		conv, err := attr.ParseAs(v.String(), a.Type())
		if err != nil {
			return fmt.Errorf("caliper: SetGlobal(%s): %w", name, err)
		}
		v = conv
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for i, e := range ch.globals {
		if e.Attr.ID() == a.ID() {
			ch.globals[i].Value = v
			return nil
		}
	}
	ch.globals = append(ch.globals, attr.Entry{Attr: a, Value: v})
	return nil
}

// Globals returns the recorded per-run metadata entries.
func (ch *Channel) Globals() []attr.Entry {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return append([]attr.Entry(nil), ch.globals...)
}

// Thread creates a new per-thread measurement state. Each goroutine that
// annotates must use its own Thread handle; handles must not be shared
// across goroutines (this mirrors Caliper's per-thread blackboards and
// aggregation databases, which avoid locks on the hot path).
func (ch *Channel) Thread() *Thread {
	t := &Thread{
		ch:    ch,
		bb:    blackboard.New(ch.tree, ch.reg),
		state: make([]any, len(ch.threadState)),
	}
	for slot, mk := range ch.threadState {
		t.state[slot] = mk()
	}
	if ch.sampling {
		t.mu = &sync.Mutex{}
	}
	ch.mu.Lock()
	t.index = len(ch.threads)
	ch.threads = append(ch.threads, t)
	ch.mu.Unlock()
	return t
}

// addThreadState registers a service's per-thread state constructor and
// returns the slot of Thread.state that will hold its result. Services call
// it while the channel is being built, before any thread exists.
func (ch *Channel) addThreadState(mk func() any) (slot int) {
	ch.threadState = append(ch.threadState, mk)
	return len(ch.threadState) - 1
}

// Flush collects the output records of all processing services across all
// threads (aggregation results or trace buffers), in deterministic order.
// Flush also stops the sampler, if one is running. The channel remains
// usable; aggregation databases keep accumulating unless Clear-ed by the
// service semantics (the aggregate service drains on flush).
func (ch *Channel) Flush() ([]snapshot.FlatRecord, error) {
	var out []snapshot.FlatRecord
	err := ch.FlushEmit(func(r snapshot.FlatRecord) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// FlushEmit streams flush output through emit.
func (ch *Channel) FlushEmit(emit func(snapshot.FlatRecord) error) error {
	var flushStart time.Time
	if telemetry.Enabled() {
		flushStart = time.Now()
		inner := emit
		emit = func(r snapshot.FlatRecord) error {
			telFlushRecords.Inc()
			return inner(r)
		}
	}
	sp := trace.Begin("caliper.flush")
	if sp.Active() {
		var emitted int64
		inner := emit
		emit = func(r snapshot.FlatRecord) error {
			emitted++
			return inner(r)
		}
		defer func() {
			sp.ArgInt("records", emitted)
			sp.End()
		}()
	}
	for _, svc := range ch.services {
		if f, ok := svc.(finisher); ok {
			if err := f.finish(ch); err != nil {
				return err
			}
		}
	}
	for _, svc := range ch.services {
		if f, ok := svc.(flusher); ok {
			if err := f.flush(ch, emit); err != nil {
				return err
			}
		}
	}
	telFlushCount.Inc()
	if !flushStart.IsZero() {
		telFlushNS.Observe(time.Since(flushStart).Nanoseconds())
	}
	return nil
}

// threadsSnapshot returns a copy of the thread list.
func (ch *Channel) threadsSnapshot() []*Thread {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return append([]*Thread(nil), ch.threads...)
}
