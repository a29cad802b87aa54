package obs

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// Per-query attribution: every calql/pquery run gets a process-unique
// query ID, threaded through shard workers and trace spans, and its
// wall time, record/byte throughput, heap allocation, phase breakdown,
// and shard skew are accounted into a bounded most-recent table served
// at /debug/queries. The phase breakdown is not measured here: it is read
// from the query's trace.Profile — the record its executor's spans end
// into, the same one EXPLAIN ANALYZE prints — live while the query runs.
// Queries slower than a configurable threshold also emit a structured
// slow-query log entry carrying the full CalQL text — the "which query is
// slow and why" answer without re-running anything under EXPLAIN ANALYZE.
// The design follows the lightweight per-target attribution approach of
// Atys (Sun et al. 2025): cheap always-on bookkeeping at query
// granularity, detail on demand.
//
// Attribution follows the telemetry kill switch: with telemetry off,
// BeginQuery returns nil and every ActiveQuery method is a nil-receiver
// no-op, so the query hot paths pay one atomic load.

// Aggregate query metrics (see docs/OBSERVABILITY.md).
var (
	telQueries      = telemetry.NewCounter("caligo.query.queries")
	telQueryNS      = telemetry.NewHistogram("caligo.query.ns")
	telQueryRecords = telemetry.NewCounter("caligo.query.records")
	telQueryBytes   = telemetry.NewCounter("caligo.query.bytes")
	telQueryErrors  = telemetry.NewCounter("caligo.query.errors")
	telQuerySlow    = telemetry.NewCounter("caligo.query.slow")
	gActiveQueries  = telemetry.NewGauge("caligo.query.active")
)

// PhaseTiming is one execution phase of a query as its spans measured it:
// the EXPLAIN ANALYZE plan node of the same name, with span count, summed
// and extreme span time, and summed span arguments.
type PhaseTiming = trace.Phase

// PhaseSource is what an attribution record reads its phases from: the
// query's trace.Profile.
type PhaseSource interface{ Phases() []PhaseTiming }

// QueryStats is the attribution record of one query run.
type QueryStats struct {
	ID         uint64        `json:"id"`
	Text       string        `json:"query"`
	Engine     string        `json:"engine"` // "serial", "sharded", "mpi"
	Start      time.Time     `json:"start"`
	DurationNS int64         `json:"duration_ns"`
	Records    uint64        `json:"records"`
	Bytes      uint64        `json:"bytes"`
	AllocBytes uint64        `json:"alloc_bytes"` // heap allocated during the run (process-wide delta)
	Rows       int           `json:"rows"`
	Shards     int           `json:"shards,omitempty"`     // spans of the shard phase
	ShardSkew  float64       `json:"shard_skew,omitempty"` // (max-min)/max shard wall time
	Phases     []PhaseTiming `json:"phases,omitempty"`

	// Aggregate-cache outcome per input file (zero when caching was off):
	// the hits, misses and incremental stats of the cache phase.
	CacheHits        uint64 `json:"cache_hits,omitempty"`
	CacheMisses      uint64 `json:"cache_misses,omitempty"`
	CacheIncremental uint64 `json:"cache_incremental,omitempty"`
	Err              string `json:"error,omitempty"`
	Slow             bool   `json:"slow,omitempty"`
	Done             bool   `json:"done"`
}

// queryIDs issues process-unique query IDs, starting at 1.
var queryIDs atomic.Uint64

// slowThresholdNS is the slow-query log threshold (0 disables).
var slowThresholdNS atomic.Int64

func init() { slowThresholdNS.Store(int64(time.Second)) }

// SetSlowQueryThreshold sets the duration above which a finished query
// emits a structured slow-query log entry (default 1s; 0 disables) and
// returns the previous threshold.
func SetSlowQueryThreshold(d time.Duration) time.Duration {
	return time.Duration(slowThresholdNS.Swap(int64(d)))
}

// queryLog is the bounded most-recently-finished query table plus the
// currently-running set.
type queryLog struct {
	mu     sync.Mutex
	done   []QueryStats // ring, newest overwrite oldest
	next   int
	total  uint64
	active map[uint64]*ActiveQuery
}

const defaultQueryLogCap = 128

var qlog = &queryLog{
	done:   make([]QueryStats, 0, defaultQueryLogCap),
	active: map[uint64]*ActiveQuery{},
}

// ActiveQuery accumulates attribution for one in-flight query. Methods
// are safe for concurrent use by shard workers, and all methods are
// nil-receiver no-ops so call sites need no enabled-checks.
type ActiveQuery struct {
	mu         sync.Mutex
	stats      QueryStats
	startAlloc uint64
	phases     PhaseSource
}

// BeginQuery opens an attribution record for a query run. Returns nil
// (and records nothing) when telemetry is disabled.
func BeginQuery(text, engine string) *ActiveQuery {
	if !telemetry.Enabled() {
		return nil
	}
	aq := &ActiveQuery{
		stats: QueryStats{
			ID:     queryIDs.Add(1),
			Text:   text,
			Engine: engine,
			Start:  time.Now(),
		},
		startAlloc: heapAllocBytes(),
	}
	qlog.mu.Lock()
	qlog.active[aq.stats.ID] = aq
	qlog.mu.Unlock()
	gActiveQueries.Add(1)
	return aq
}

// ID returns the query ID (0 for a nil receiver, which span annotation
// treats as "don't tag").
func (aq *ActiveQuery) ID() uint64 {
	if aq == nil {
		return 0
	}
	return aq.stats.ID
}

// SetPhases attaches the query's phase record: snapshots read the phases
// from it while the query runs, and End keeps its final state. The input
// records and bytes are the read and shard phases' stats, the shard count
// and skew derive from the shard phase, the cache outcome from the cache
// phase.
func (aq *ActiveQuery) SetPhases(src PhaseSource) {
	if aq == nil {
		return
	}
	aq.mu.Lock()
	aq.phases = src
	aq.mu.Unlock()
}

// snapshot returns the record as of now with its phases read from the
// source. aq.mu is held.
func (aq *ActiveQuery) snapshot() QueryStats {
	s := aq.stats
	if aq.phases == nil {
		return s
	}
	s.Phases = aq.phases.Phases()
	for _, p := range s.Phases {
		if p.Name == "shard" && p.MaxNS > 0 {
			s.Shards = p.Spans
			s.ShardSkew = float64(p.MaxNS-p.MinNS) / float64(p.MaxNS)
		}
		scans := p.Name == "read" || p.Name == "shard"
		for _, st := range p.Stats {
			v := uint64(st.Value)
			switch {
			case scans && st.Name == "records":
				s.Records += v
			case scans && st.Name == "bytes":
				s.Bytes += v
			case p.Name == "cache" && st.Name == "hits":
				s.CacheHits = v
			case p.Name == "cache" && st.Name == "misses":
				s.CacheMisses = v
			case p.Name == "cache" && st.Name == "incremental":
				s.CacheIncremental = v
			}
		}
	}
	return s
}

// SetRows records the result row count.
func (aq *ActiveQuery) SetRows(n int) {
	if aq == nil {
		return
	}
	aq.mu.Lock()
	aq.stats.Rows = n
	aq.mu.Unlock()
}

// End closes the attribution record: reads its phases one last time and
// computes duration and allocation delta; feeds the caligo.query.*
// aggregate metrics; moves the record into the bounded finished table;
// and emits the slow-query log entry (or an error entry when err != nil).
// End is idempotent-unsafe by design — call it exactly once, typically
// deferred.
func (aq *ActiveQuery) End(err error) {
	if aq == nil {
		return
	}
	aq.mu.Lock()
	final := aq.snapshot()
	aq.mu.Unlock()
	final.DurationNS = time.Since(final.Start).Nanoseconds()
	if alloc := heapAllocBytes(); alloc >= aq.startAlloc {
		final.AllocBytes = alloc - aq.startAlloc
	}
	if err != nil {
		final.Err = err.Error()
	}
	threshold := slowThresholdNS.Load()
	final.Slow = threshold > 0 && final.DurationNS >= threshold
	final.Done = true

	telQueries.Inc()
	telQueryNS.Observe(final.DurationNS)
	telQueryRecords.Add(final.Records)
	telQueryBytes.Add(final.Bytes)
	if err != nil {
		telQueryErrors.Inc()
	}
	gActiveQueries.Add(-1)

	qlog.mu.Lock()
	delete(qlog.active, final.ID)
	if len(qlog.done) < cap(qlog.done) {
		qlog.done = append(qlog.done, final)
	} else if cap(qlog.done) > 0 {
		qlog.done[qlog.next] = final
	}
	qlog.next = (qlog.next + 1) % cap(qlog.done)
	qlog.total++
	qlog.mu.Unlock()

	if err != nil {
		queryLogger.Error("query failed",
			"qid", final.ID,
			"engine", final.Engine,
			"calql", final.Text,
			"duration", time.Duration(final.DurationNS).String(),
			"error", final.Err,
		)
	}
	if final.Slow {
		telQuerySlow.Inc()
		args := make([]any, 0, 18)
		args = append(args,
			"qid", final.ID,
			"engine", final.Engine,
			"calql", final.Text,
			"duration", time.Duration(final.DurationNS).String(),
			"records", final.Records,
			"bytes", final.Bytes,
			"alloc_bytes", final.AllocBytes,
		)
		if final.Shards > 0 {
			args = append(args, "shards", final.Shards, "shard_skew", final.ShardSkew)
		}
		for _, p := range final.Phases {
			args = append(args, "phase."+p.Name+".ns", p.NS)
		}
		queryLogger.Warn("slow query", args...)
	}
}

// QuerySnapshot returns the attribution table: currently-running queries
// first (oldest first), then finished queries newest-first.
func QuerySnapshot() []QueryStats {
	qlog.mu.Lock()
	defer qlog.mu.Unlock()
	out := make([]QueryStats, 0, len(qlog.active)+len(qlog.done))
	for _, aq := range qlog.active {
		aq.mu.Lock()
		s := aq.snapshot()
		aq.mu.Unlock()
		s.DurationNS = time.Since(s.Start).Nanoseconds()
		out = append(out, s)
	}
	// active queries sorted oldest first (stable order for the monitor)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start.Before(out[j-1].Start); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	n := len(qlog.done)
	for i := 0; i < n; i++ {
		idx := (qlog.next - 1 - i + n) % n
		out = append(out, qlog.done[idx])
	}
	return out
}

// QueryStatsDoc is the JSON document served at /debug/queries: the
// total number of queries ever finished plus the attribution table.
type QueryStatsDoc struct {
	Total   uint64       `json:"total"`
	Queries []QueryStats `json:"queries"`
}

// WriteQueryStats writes the attribution table as a QueryStatsDoc.
func WriteQueryStats(w io.Writer) error {
	qlog.mu.Lock()
	total := qlog.total
	qlog.mu.Unlock()
	doc := QueryStatsDoc{Total: total, Queries: QuerySnapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ParseQueryStats decodes a QueryStatsDoc — the client side of
// /debug/queries, used by cali-top.
func ParseQueryStats(r io.Reader) (*QueryStatsDoc, error) {
	var doc QueryStatsDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// ResetQueryStats clears the finished-query table (tests).
func ResetQueryStats() {
	qlog.mu.Lock()
	qlog.done = qlog.done[:0]
	qlog.next = 0
	qlog.total = 0
	qlog.mu.Unlock()
}

// heapAllocBytes reads cumulative heap allocation via runtime/metrics
// (cheap, no stop-the-world — unlike runtime.ReadMemStats).
var heapAllocSample = func() []metrics.Sample {
	s := make([]metrics.Sample, 1)
	s[0].Name = "/gc/heap/allocs:bytes"
	return s
}()
var heapAllocMu sync.Mutex

func heapAllocBytes() uint64 {
	heapAllocMu.Lock()
	defer heapAllocMu.Unlock()
	metrics.Read(heapAllocSample)
	if heapAllocSample[0].Value.Kind() == metrics.KindUint64 {
		return heapAllocSample[0].Value.Uint64()
	}
	return 0
}
