package query

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"caligo/internal/attr"
	"caligo/internal/calql"
	"caligo/internal/obs"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// One executor (DESIGN.md, "Query execution"). The paper's query
// application (Section IV-C) has a single shape — every process aggregates
// its own inputs, then partial databases reduce up a tree — and Exec.Local
// is the first half of it in every mode: scan units go round-robin to
// workers, each worker drains its units into a private engine — and so a
// private aggregation-database shard — and the shards fold into worker
// 0's with the same DB.Merge the cross-process reduction uses. Serial
// execution is one worker on the caller's goroutine; an emulated MPI rank
// is one worker over the rank's share of the input, whose engine
// internal/pquery then reduces across ranks over mpi.Comm.
//
// Output is byte-identical for every worker count: unit→worker assignment
// and the merge order are static functions of (len(units), workers),
// aggregation state merges exactly (integer sums stay integers), the
// flush order is the sorted key encoding (insertion-order independent),
// and non-aggregating rows are reassembled in file order.

var (
	telShards  = telemetry.NewCounter("caligo.query.shards")
	telMergeNS = telemetry.NewCounter("caligo.query.merge.ns")
)

// Mode is an execution mode. The modes run the same code and differ only
// in these labels: the obs engine label, the span pair around a whole
// local phase (aggregate nested in read, so EXPLAIN ANALYZE sees the same
// phase structure serially and per rank) and the span around each worker.
// An empty name emits nothing.
type Mode struct {
	Engine                  string
	read, aggregate, worker string
}

var (
	Serial  = &Mode{Engine: "serial", read: "query.read", aggregate: "query.aggregate"}
	Sharded = &Mode{Engine: "sharded", worker: "query.shard"}
	MPI     = &Mode{Engine: "mpi", read: "pquery.read", aggregate: "pquery.aggregate"}
)

// Workers resolves a requested worker count against the scan units there
// are to hand out — one per input file, so the count is known before any
// input is opened: jobs <= 0 means one per CPU — workers are CPU-bound on
// decoding — and no worker goes without a unit. EXPLAIN and the executor
// both resolve -j here, so a plan names the worker count its run uses.
func Workers(jobs, units int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > units {
		jobs = units
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// Input is what one local phase scans: .cali files, planned into units
// through their sidecar indexes and the aggregate cache, or one open .cali
// stream, read to EOF and closed. The zero Input is a process with
// nothing to read.
type Input struct {
	Files  []string
	Stream io.ReadCloser
}

// Exec is one query's execution state, shared by all of its local phases
// (one per emulated rank, or the only one): the query, the compiled scan
// plan whose Stats they accumulate into, the query's profile and the mode.
type Exec struct {
	Q    *calql.Query
	Plan *ScanPlan
	// Prof is the query's one record of its phases: every phase span of
	// the run — the executor's, the scan plan's, the engines' — ends into
	// it, and EXPLAIN ANALYZE, the attribution record (/debug/queries) and
	// pquery.Timing read their times from it.
	Prof *trace.Profile
	mode *Mode
}

// NewExec compiles q's scan plan for a run in the given mode and attaches
// the run's profile to the attribution record aq (nil when telemetry is
// off).
func NewExec(q *calql.Query, opts ScanOptions, mode *Mode, aq *obs.ActiveQuery) *Exec {
	x := &Exec{Q: q, Plan: NewScanPlan(q, opts), Prof: &trace.Profile{QID: aq.ID()}, mode: mode}
	x.Plan.prof = x.Prof
	aq.SetPhases(x.Prof)
	return x
}

// Span opens a phase span on rank's lane in the query's profile. An empty
// name opens nothing.
func (x *Exec) Span(name string, rank int) trace.Span {
	if name == "" {
		return trace.Span{}
	}
	return x.Prof.Begin(name, rank)
}

// Finalize is the package Finalize, timed as the query's postprocess
// phase.
func (x *Exec) Finalize(reg *attr.Registry, rows []snapshot.FlatRecord) []snapshot.FlatRecord {
	return finalize(x.Prof, x.Q, reg, rows)
}

// Write renders rows in the query's FORMAT, timed as its format phase.
func (x *Exec) Write(w io.Writer, reg *attr.Registry, rows []snapshot.FlatRecord) error {
	eng, err := New(x.Q, reg)
	if err != nil {
		return err
	}
	eng.prof = x.Prof
	return eng.Write(w, rows)
}

// shard is one worker's outcome.
type shard struct {
	eng     *Engine
	records int
	bytes   int64
	err     error
}

// Local runs one process's local phase: it scans in with up to jobs
// workers (see Workers; fewer when index pruning drops whole files) and
// returns the engine holding the merged result — not finalized, so the
// caller can reduce it further or call Results — the number of records
// read, and the local phase's wall time as its span measured it (0 in a
// mode without a local-phase span). reg is the process's registry, shared
// by the workers (it is mutex-protected) so attribute ids, LET definitions
// and result attributes resolve identically across shards; rank labels the
// spans. Once ctx is done, Local stops early and returns ctx.Err().
func (x *Exec) Local(ctx context.Context, reg *attr.Registry, in Input, jobs, rank int) (*Engine, int, time.Duration, error) {
	var rsp trace.Span
	if in.Stream != nil || len(in.Files) > 0 {
		// a rank with no input reads nothing, but still reports the
		// aggregate phase so every rank has the same span set
		rsp = x.Span(x.mode.read, rank)
	}
	asp := x.Span(x.mode.aggregate, rank)
	defer rsp.End()
	defer asp.End()

	units := x.Plan.PlanUnits(in.Files, 0)
	if in.Stream != nil {
		units = []Unit{{File: "input stream", stream: in.Stream}}
	}
	shards := make([]shard, Workers(jobs, len(units)))
	if x.mode == Sharded {
		telShards.Add(uint64(len(shards)))
	}
	// per-unit row collection for non-aggregating queries on several
	// workers: they write disjoint indices, and concatenating in index
	// order restores the serial (file, record) order
	var rowsByUnit [][]snapshot.FlatRecord
	if len(shards) == 1 {
		x.work(ctx, &shards[0], 0, 1, reg, rank, units, nil)
	} else {
		if !x.Q.HasAggregation() {
			rowsByUnit = make([][]snapshot.FlatRecord, len(units))
		}
		var wg sync.WaitGroup
		for w := range shards {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				x.work(ctx, &shards[w], w, len(shards), reg, rank, units, rowsByUnit)
			}(w)
		}
		wg.Wait()
	}
	records, bytes := 0, int64(0)
	for i := range shards {
		if shards[i].err != nil {
			return nil, 0, 0, shards[i].err
		}
		records += shards[i].records
		bytes += shards[i].bytes
	}
	root := shards[0].eng
	if err := x.fold(ctx, shards, rank); err != nil {
		return nil, 0, 0, err
	}
	for _, rows := range rowsByUnit {
		root.rows = append(root.rows, rows...)
	}

	asp.ArgInt("records_in", int64(records))
	asp.ArgInt("records_out", int64(root.Size()))
	rsp.ArgInt("files", int64(len(in.Files)))
	rsp.ArgInt("records", int64(records))
	rsp.ArgInt("bytes", bytes)
	wall := asp.End()
	return root, records, time.Duration(wall), nil
}

// work is one worker: it builds a private engine and drains its
// round-robin share of the units (w, w+workers, ...) into it.
func (x *Exec) work(ctx context.Context, s *shard, w, workers int, reg *attr.Registry, rank int, units []Unit, rowsByUnit [][]snapshot.FlatRecord) {
	sp := x.Span(x.mode.worker, rank)
	sp.SetTid(w)
	defer sp.End()

	if s.eng, s.err = New(x.Q, reg); s.err != nil {
		return
	}
	s.eng.prof = x.Prof
	defer s.eng.releaseReader()
	nunits := 0
	for ui := w; ui < len(units); ui += workers {
		if s.err = ctx.Err(); s.err != nil {
			return
		}
		n, nb, err := x.Plan.scanUnit(ctx, s.eng, units[ui], reg, nil)
		s.records += n
		s.bytes += nb
		if err != nil {
			s.err = err
			return
		}
		if rowsByUnit != nil {
			// steal the rows collected for this unit so they can be
			// reassembled in unit order
			rowsByUnit[ui], s.eng.rows = s.eng.rows, nil
		}
		nunits++
	}
	sp.ArgInt("units", int64(nunits))
	sp.ArgInt("records", int64(s.records))
	sp.ArgInt("bytes", s.bytes)
}

// fold merges the workers' aggregation databases into worker 0's with a
// pairwise tree reduction: at stride s, shard i+s folds into shard i.
// Merges within a level touch disjoint (dst, src) pairs and run
// concurrently; the merge order is a static function of the worker count,
// so grouping — and with it the output — is deterministic. ctx is checked
// before every level and after the last.
func (x *Exec) fold(ctx context.Context, shards []shard, rank int) error {
	for stride := 1; ; stride *= 2 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if stride >= len(shards) || shards[0].eng.db == nil {
			break
		}
		var wg sync.WaitGroup
		for i := 0; i+stride < len(shards); i += 2 * stride {
			wg.Add(1)
			go func(dst, src int) {
				defer wg.Done()
				sp := x.Span("query.merge", rank)
				db := shards[dst].eng.db
				if err := db.Merge(shards[src].eng.db); err != nil {
					shards[dst].err = fmt.Errorf("query: merge shard %d into %d: %w", src, dst, err)
				}
				sp.ArgInt("buckets", int64(db.Len()))
				telMergeNS.Add(uint64(sp.End()))
			}(i, i+stride)
		}
		wg.Wait()
	}
	for i := range shards {
		if shards[i].err != nil {
			return shards[i].err
		}
	}
	return nil
}
