package caliper

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/core"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// ---------------------------------------------------------------------------
// event service: triggers a snapshot on every annotation update
// (synchronous, instrumentation-driven data collection).

type eventService struct{}

func newEventService(ch *Channel, _ Config) (service, error) {
	svc := &eventService{}
	ch.preBeginTrig = append(ch.preBeginTrig, func(t *Thread, _ attr.Attribute, _ attr.Variant) {
		t.takeSnapshot()
	})
	ch.preEndTrig = append(ch.preEndTrig, func(t *Thread, _ attr.Attribute) {
		t.takeSnapshot()
	})
	return svc, nil
}

func (*eventService) name() string { return "event" }

// ---------------------------------------------------------------------------
// timer service: appends time.duration (nanoseconds since the previous
// snapshot on the thread) to every snapshot, and optionally
// time.inclusive.duration at region end events.

// DurationAttr is the label of the snapshot-duration measurement.
const DurationAttr = "time.duration"

// InclusiveDurationAttr is the label of the region-inclusive duration
// measurement (enabled with "timer.inclusive": "true").
const InclusiveDurationAttr = "time.inclusive.duration"

type timerService struct {
	durAttr  attr.Attribute
	inclAttr attr.Attribute
	incl     bool
	epoch    time.Time
	virtual  bool
}

type timerState struct {
	last       int64 // ns on the service's time source; -1 = no snapshot yet
	beginStack []int64
	pending    int64 // pending inclusive duration, ns; -1 = none
}

// now reads the service's time source for a thread: host-monotonic
// nanoseconds by default, the thread's virtual clock with
// "timer.source": "virtual" (used when an instrumented simulator drives
// time itself — see the emulated MPI layer).
func (svc *timerService) now(t *Thread) int64 {
	if svc.virtual {
		return t.virtNow
	}
	return time.Since(svc.epoch).Nanoseconds()
}

func newTimerService(ch *Channel, cfg Config) (service, error) {
	svc := &timerService{epoch: time.Now()}
	switch cfg["timer.source"] {
	case "", "real":
	case "virtual":
		svc.virtual = true
		ch.virtualTimer = true
	default:
		return nil, fmt.Errorf("unknown timer.source %q", cfg["timer.source"])
	}
	var err error
	svc.durAttr, err = ch.reg.Create(DurationAttr, attr.Int,
		attr.AsValue|attr.Aggregatable|attr.SkipEvents)
	if err != nil {
		return nil, err
	}
	svc.incl = cfg["timer.inclusive"] == "true"
	if svc.incl {
		svc.inclAttr, err = ch.reg.Create(InclusiveDurationAttr, attr.Int,
			attr.AsValue|attr.Aggregatable|attr.SkipEvents)
		if err != nil {
			return nil, err
		}
	}

	slot := ch.addThreadState(func() any { return &timerState{pending: -1, last: -1} })
	state := func(t *Thread) *timerState { return t.state[slot].(*timerState) }

	if svc.incl {
		ch.preBeginMeas = append(ch.preBeginMeas, func(t *Thread, a attr.Attribute, _ attr.Variant) {
			if a.IsNested() {
				st := state(t)
				st.beginStack = append(st.beginStack, svc.now(t))
			}
		})
		ch.preEndMeas = append(ch.preEndMeas, func(t *Thread, a attr.Attribute) {
			if !a.IsNested() {
				return
			}
			st := state(t)
			if n := len(st.beginStack); n > 0 {
				st.pending = svc.now(t) - st.beginStack[n-1]
				st.beginStack = st.beginStack[:n-1]
			}
		})
	}

	ch.onSnapshot = append(ch.onSnapshot, func(t *Thread, sb *snapshot.Builder) {
		st := state(t)
		now := svc.now(t)
		if st.last >= 0 {
			sb.AddImmediate(svc.durAttr, attr.IntV(now-st.last))
		}
		st.last = now
		if svc.incl && st.pending >= 0 {
			sb.AddImmediate(svc.inclAttr, attr.IntV(st.pending))
			st.pending = -1
		}
	})
	return svc, nil
}

func (*timerService) name() string { return "timer" }

// ---------------------------------------------------------------------------
// aggregate service: on-line event aggregation (Section IV-B). Keeps one
// aggregation database per thread (no locks on the update path); the
// per-thread databases are merged at flush time.

type aggregateService struct {
	scheme *core.Scheme
	where  []calql.Condition
	slot   int // of the per-thread aggregateState
}

// aggregateState is one thread's share of the service: its database and
// its own compiled WHERE (query.Where is not safe to share across threads).
type aggregateState struct {
	db    *core.DB
	where query.Where
}

func newAggregateService(ch *Channel, cfg Config) (service, error) {
	opsText := cfg["aggregate.ops"]
	if opsText == "" {
		opsText = "count"
	}
	queryText := "AGGREGATE " + opsText
	if key := cfg["aggregate.key"]; key != "" {
		queryText += " GROUP BY " + key
	}
	if where := cfg["aggregate.where"]; where != "" {
		queryText += " WHERE " + where
	}
	q, err := calql.Parse(queryText)
	if err != nil {
		return nil, fmt.Errorf("invalid aggregation scheme: %w", err)
	}
	scheme, err := q.Scheme()
	if err != nil {
		return nil, err
	}
	svc := &aggregateService{scheme: scheme, where: q.Where}

	svc.slot = ch.addThreadState(func() any {
		db, err := core.NewDB(svc.scheme, ch.reg)
		if err != nil {
			panic(err) // scheme was validated at startup
		}
		return &aggregateState{db: db, where: query.CompileWhere(svc.where, ch.reg)}
	})
	ch.procSnap = append(ch.procSnap, func(t *Thread, rec snapshot.Record) {
		st := svc.state(t)
		var err error
		if t.flat, err = rec.UnpackInto(t.flat, ch.tree, ch.reg); err != nil {
			return // skip malformed records
		}
		// Neither keeps the record: Update copies what it aggregates.
		if st.where.Match(t.flat) {
			st.db.Update(t.flat)
		}
	})
	return svc, nil
}

func (svc *aggregateService) state(t *Thread) *aggregateState {
	return t.state[svc.slot].(*aggregateState)
}

func (*aggregateService) name() string { return "aggregate" }

// flush merges all per-thread aggregation databases and emits the
// combined results, then clears the databases.
func (svc *aggregateService) flush(ch *Channel, emit func(snapshot.FlatRecord) error) error {
	merged, err := core.NewDB(svc.scheme, ch.reg)
	if err != nil {
		return err
	}
	for _, t := range ch.threadsSnapshot() {
		db := svc.state(t).db
		if err := merged.Merge(db); err != nil {
			return err
		}
		db.Clear()
	}
	return merged.Flush(emit)
}

// OutputRecords reports the current number of unique aggregation records
// across all threads (Table I's "output records" column), without
// flushing.
func (ch *Channel) OutputRecords() int {
	for _, svc := range ch.services {
		agg, ok := svc.(*aggregateService)
		if !ok {
			continue
		}
		// count distinct keys across threads by merging into a scratch DB
		merged, err := core.NewDB(agg.scheme, ch.reg)
		if err != nil {
			return 0
		}
		for _, t := range ch.threadsSnapshot() {
			// under the thread lock: a sampler may still be snapshotting
			t.lock()
			err := merged.Merge(agg.state(t).db)
			t.unlock()
			if err != nil {
				return 0
			}
		}
		return merged.Len()
	}
	return 0
}

// ---------------------------------------------------------------------------
// trace service: stores every snapshot record (per thread), emitting them
// at flush. This is the configuration the paper's overhead study compares
// aggregation against.

type traceService struct {
	slot int // of the per-thread traceState
}

type traceState struct {
	records []snapshot.Record
}

func newTraceService(ch *Channel, _ Config) (service, error) {
	svc := &traceService{slot: ch.addThreadState(func() any { return &traceState{} })}
	ch.procSnap = append(ch.procSnap, func(t *Thread, rec snapshot.Record) {
		st := svc.state(t)
		st.records = append(st.records, rec.Clone()) // rec is borrowed
	})
	return svc, nil
}

func (svc *traceService) state(t *Thread) *traceState {
	return t.state[svc.slot].(*traceState)
}

func (*traceService) name() string { return "trace" }

func (svc *traceService) flush(ch *Channel, emit func(snapshot.FlatRecord) error) error {
	for _, t := range ch.threadsSnapshot() {
		st := svc.state(t)
		for _, rec := range st.records {
			flat, err := rec.Unpack(ch.tree, ch.reg)
			if err != nil {
				return err
			}
			if err := emit(flat); err != nil {
				return err
			}
		}
		st.records = nil
	}
	return nil
}

// TraceLength reports the number of buffered trace records across threads.
func (ch *Channel) TraceLength() int {
	n := 0
	for _, svc := range ch.services {
		ts, ok := svc.(*traceService)
		if !ok {
			continue
		}
		for _, t := range ch.threadsSnapshot() {
			t.lock()
			n += len(ts.state(t).records)
			t.unlock()
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// recorder service: writes flush output to a .cali file
// ("recorder.filename").

type recorderService struct {
	filename string
}

func newRecorderService(_ *Channel, cfg Config) (service, error) {
	fn := cfg["recorder.filename"]
	if fn == "" {
		return nil, fmt.Errorf("recorder.filename is required")
	}
	return &recorderService{filename: fn}, nil
}

func (*recorderService) name() string { return "recorder" }

// WriteFlushToFile flushes the channel and writes the records to the
// recorder's configured file in .cali format. It is invoked by FlushAndWrite.
func (svc *recorderService) writeFlush(ch *Channel) error {
	f, err := os.Create(svc.filename)
	if err != nil {
		return err
	}
	defer f.Close()
	w := calformat.NewWriter(f, ch.reg, ch.tree)
	if err := w.WriteGlobals(ch.Globals()); err != nil {
		return err
	}
	err = ch.FlushEmit(func(r snapshot.FlatRecord) error {
		return w.WriteFlat(r)
	})
	if err != nil {
		return err
	}
	return w.Flush()
}

// FlushAndWrite flushes the channel through its recorder service, writing
// the output records to the configured file. Without a recorder service it
// returns an error.
func (ch *Channel) FlushAndWrite() error {
	for _, svc := range ch.services {
		if rec, ok := svc.(*recorderService); ok {
			return rec.writeFlush(ch)
		}
	}
	return fmt.Errorf("caliper: FlushAndWrite: no recorder service configured")
}

// ---------------------------------------------------------------------------
// sampler service: asynchronous time-based snapshot collection. A ticker
// goroutine snapshots every registered thread at the configured frequency.
// (The original uses POSIX timer signals with an async-signal-safe
// runtime; a ticker goroutine is the Go substitute and produces the same
// snapshot stream.)

type samplerService struct {
	period time.Duration
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
}

func newSamplerService(ch *Channel, cfg Config) (service, error) {
	freq := 100.0
	if s := cfg["sampler.frequency"]; s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("invalid sampler.frequency %q", s)
		}
		freq = f
	}
	svc := &samplerService{
		period: time.Duration(float64(time.Second) / freq),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	ch.sampling = true
	go svc.run(ch)
	return svc, nil
}

func (*samplerService) name() string { return "sampler" }

func (svc *samplerService) run(ch *Channel) {
	defer close(svc.done)
	tick := time.NewTicker(svc.period)
	defer tick.Stop()
	for {
		select {
		case <-svc.stop:
			return
		case <-tick.C:
			for _, t := range ch.threadsSnapshot() {
				t.takeSnapshot()
			}
		}
	}
}

// finish stops the sampling goroutine before flush.
func (svc *samplerService) finish(_ *Channel) error {
	svc.once.Do(func() { close(svc.stop) })
	<-svc.done
	return nil
}

// ---------------------------------------------------------------------------
// metrics service: dogfooded self-instrumentation output. The library's
// own telemetry is emitted as ordinary snapshot records at flush time, so
// it flows through the same recorder/.cali/CalQL pipeline as application
// data ("AGGREGATE sum(caligo.snapshots) GROUP BY caligo.channel" works).
// Enabling the service turns the global telemetry collection on.

// Attribute labels emitted by the metrics service. Per-thread records
// carry MetricsChannelAttr, MetricsThreadAttr, MetricsSnapshotsAttr and
// MetricsUpdatesAttr; one per-process record carries MetricsChannelAttr
// plus every metric of the global telemetry registry under its own name
// (histograms expand to <name>.count/.sum/.avg/.p50/.p95/.max).
const (
	MetricsChannelAttr   = "caligo.channel"
	MetricsThreadAttr    = "caligo.thread"
	MetricsSnapshotsAttr = "caligo.snapshots"
	MetricsUpdatesAttr   = "caligo.updates"
)

const (
	metricsLabelProps = attr.AsValue | attr.SkipEvents
	metricsValueProps = attr.AsValue | attr.Aggregatable | attr.SkipEvents
)

type metricsService struct {
	chanAttr    attr.Attribute
	threadAttr  attr.Attribute
	snapsAttr   attr.Attribute
	updatesAttr attr.Attribute
}

func newMetricsService(ch *Channel, _ Config) (service, error) {
	telemetry.Enable()
	svc := &metricsService{}
	var err error
	if svc.chanAttr, err = ch.reg.Create(MetricsChannelAttr, attr.String, metricsLabelProps); err != nil {
		return nil, err
	}
	if svc.threadAttr, err = ch.reg.Create(MetricsThreadAttr, attr.Int, metricsLabelProps); err != nil {
		return nil, err
	}
	if svc.snapsAttr, err = ch.reg.Create(MetricsSnapshotsAttr, attr.Uint, metricsValueProps); err != nil {
		return nil, err
	}
	if svc.updatesAttr, err = ch.reg.Create(MetricsUpdatesAttr, attr.Uint, metricsValueProps); err != nil {
		return nil, err
	}
	return svc, nil
}

func (*metricsService) name() string { return "metrics" }

// flush emits one record per thread (snapshot and blackboard-update
// counts, labeled by channel and thread index) followed by one record
// holding the process-global telemetry registry. It runs after the other
// flushers (serviceOrder), so flush-phase metrics are already up to date.
func (svc *metricsService) flush(ch *Channel, emit func(snapshot.FlatRecord) error) error {
	for _, t := range ch.threadsSnapshot() {
		rec := snapshot.FlatRecord{
			{Attr: svc.chanAttr, Value: attr.StringV(ch.Name())},
			{Attr: svc.threadAttr, Value: attr.IntV(int64(t.index))},
			{Attr: svc.snapsAttr, Value: attr.UintV(t.Snapshots())},
			{Attr: svc.updatesAttr, Value: attr.UintV(t.Updates())},
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	rec := snapshot.FlatRecord{{Attr: svc.chanAttr, Value: attr.StringV(ch.Name())}}
	addEntry := func(name string, typ attr.Type, v attr.Variant) error {
		a, err := ch.reg.Create(name, typ, metricsValueProps)
		if err != nil {
			return err
		}
		rec = append(rec, attr.Entry{Attr: a, Value: v})
		return nil
	}
	for _, m := range telemetry.Export() {
		var err error
		switch m.Kind {
		case telemetry.KindCounter:
			err = addEntry(m.Name, attr.Uint, attr.UintV(m.Counter))
		case telemetry.KindGauge:
			err = addEntry(m.Name, attr.Int, attr.IntV(m.Gauge))
		case telemetry.KindHistogram:
			if m.Hist.Count == 0 {
				continue
			}
			s := m.Hist
			for _, e := range []struct {
				suffix string
				typ    attr.Type
				v      attr.Variant
			}{
				{".count", attr.Uint, attr.UintV(s.Count)},
				{".sum", attr.Int, attr.IntV(s.Sum)},
				{".avg", attr.Float, attr.FloatV(s.Mean())},
				{".p50", attr.Float, attr.FloatV(s.Quantile(0.5))},
				{".p95", attr.Float, attr.FloatV(s.Quantile(0.95))},
				{".max", attr.Float, attr.FloatV(s.Max())},
			} {
				if err = addEntry(m.Name+e.suffix, e.typ, e.v); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return emit(rec)
}

// ---------------------------------------------------------------------------
// helpers shared by services

// SortedServiceNames lists the services available in this build.
func SortedServiceNames() []string {
	names := make([]string, 0, len(serviceFactories))
	for n := range serviceFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
