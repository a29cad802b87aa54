package query

import (
	"fmt"
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

// Sharded multi-core execution of file queries: the scan plan (scan.go)
// turns the input files into scan units — whole unindexed files, or block
// ranges of indexed ones, with index-excluded files and blocks already
// dropped — and the units are fanned out round-robin to worker goroutines.
// Each worker owns a private read path (one calformat reader per unit)
// and a private engine — and therefore a private aggregation-database
// shard — and the shards are folded together with the same DB.Merge the
// cross-process reduction uses (Section IV-C), applied in-process up a
// pairwise tree. The attribute registry is shared (it is
// mutex-protected), so attribute ids, LET definitions, and result
// attributes resolve identically across shards.
//
// Because indexed files split into block-range units, a single large file
// parallelizes across workers; without an index the unit is the file, as
// before.
//
// Output is byte-identical to serial execution: unit→worker assignment
// and the merge order are static functions of (len(units), jobs),
// aggregation state merges exactly (integer sums stay integers), the
// flush order is the sorted key encoding (insertion-order independent),
// and non-aggregating rows are reassembled in (file, block) order.

var (
	telShards  = telemetry.NewCounter("caligo.query.shards")
	telMergeNS = telemetry.NewCounter("caligo.query.merge.ns")
)

// DefaultJobs is the worker count used when jobs <= 0: one per available
// CPU, the sweet spot for the read+aggregate workers (they are CPU-bound
// on decoding).
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// shardState is one worker's private execution state.
type shardState struct {
	eng *Engine
}

// RunShardedFiles executes q over the files with up to jobs parallel
// read+aggregate workers and returns the finalized result rows. jobs <= 0
// selects DefaultJobs(); the effective worker count never exceeds the
// scan-unit count. The registry is shared across workers and carries the
// result attributes afterwards, exactly as with serial execution.
// Sidecar indexes are used when present.
func RunShardedFiles(q *calql.Query, reg *attr.Registry, files []string, jobs int) ([]snapshot.FlatRecord, error) {
	return RunShardedFilesObs(q, reg, files, jobs, nil)
}

// RunShardedFilesObs is RunShardedFiles with per-query attribution: shard
// wall times and throughput are accounted into aq (nil disables
// attribution at zero cost), and the query ID is stamped on the shard and
// merge spans so traces correlate with the slow-query log.
func RunShardedFilesObs(q *calql.Query, reg *attr.Registry, files []string, jobs int, aq *obs.ActiveQuery) ([]snapshot.FlatRecord, error) {
	return RunShardedFilesOpts(q, reg, files, jobs, aq, ScanOptions{UseIndex: true})
}

// RunShardedFilesOpts is RunShardedFilesObs with explicit scan options
// (index use on or off).
func RunShardedFilesOpts(q *calql.Query, reg *attr.Registry, files []string, jobs int, aq *obs.ActiveQuery, opts ScanOptions) ([]snapshot.FlatRecord, error) {
	return RunShardedPlan(NewScanPlan(q, opts), q, reg, files, jobs, aq)
}

// RunShardedPlan executes q over the files using a caller-provided scan
// plan, so the caller can read the plan's scan statistics afterwards
// (EXPLAIN ANALYZE does).
func RunShardedPlan(plan *ScanPlan, q *calql.Query, reg *attr.Registry, files []string, jobs int, aq *obs.ActiveQuery) ([]snapshot.FlatRecord, error) {
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	units := plan.PlanUnits(files, jobs)
	if jobs > len(units) {
		jobs = len(units)
	}
	if jobs < 1 {
		jobs = 1
	}
	telShards.Add(uint64(jobs))

	shards := make([]*shardState, jobs)
	// per-unit row collection for non-aggregating queries: workers write
	// disjoint indices, and concatenating in index order restores the
	// serial (file, record) order (units are sorted by file, then block)
	rowsByUnit := make([][]snapshot.FlatRecord, len(units))
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		shards[w] = &shardState{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runShard(plan, q, reg, units, jobs, w, shards[w], rowsByUnit, aq)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	root := shards[0].eng
	if root.db != nil {
		// pairwise tree reduction over the shard databases: at stride s,
		// shard i+s folds into shard i. Merges within a level touch
		// disjoint (dst, src) pairs and run concurrently; the merge order
		// is a static function of the worker count, so grouping — and
		// with it the output — is deterministic.
		start := time.Now()
		for stride := 1; stride < jobs; stride *= 2 {
			var mw sync.WaitGroup
			for i := 0; i+stride < jobs; i += 2 * stride {
				mw.Add(1)
				go func(dst, src int) {
					defer mw.Done()
					sp := trace.Begin("query.merge")
					if qid := aq.ID(); qid != 0 {
						sp.ArgInt("qid", int64(qid))
					}
					sp.ArgInt("dst", int64(dst))
					sp.ArgInt("src", int64(src))
					if err := shards[dst].eng.db.Merge(shards[src].eng.db); err != nil {
						errs[dst] = fmt.Errorf("query: merge shard %d into %d: %w", src, dst, err)
					}
					sp.ArgInt("buckets", int64(shards[dst].eng.db.Len()))
					sp.End()
				}(i, i+stride)
			}
			mw.Wait()
		}
		mergeWall := time.Since(start)
		telMergeNS.Add(uint64(mergeWall.Nanoseconds()))
		aq.Phase("merge", mergeWall)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		// non-aggregating query: reassemble collected rows in unit order
		var rows []snapshot.FlatRecord
		for _, rs := range rowsByUnit {
			rows = append(rows, rs...)
		}
		root.rows = rows
	}
	if st := plan.Stats(); st.CacheHits+st.CacheMisses+st.CacheIncremental > 0 {
		aq.CacheStats(uint64(st.CacheHits), uint64(st.CacheMisses), uint64(st.CacheIncremental))
	}
	// the shared postprocess tail (post-ops, ORDER BY, LIMIT) runs once,
	// over the fully merged shard 0
	var postStart time.Time
	if aq != nil {
		postStart = time.Now()
	}
	rows, err := root.Results()
	if aq != nil {
		aq.Phase("postprocess", time.Since(postStart))
	}
	return rows, err
}

// runShard is one worker: it builds a private engine, scans its
// round-robin unit subset (units w, w+jobs, ...), and feeds every
// surviving record through the engine.
func runShard(plan *ScanPlan, q *calql.Query, reg *attr.Registry, units []Unit, jobs, w int,
	st *shardState, rowsByUnit [][]snapshot.FlatRecord, aq *obs.ActiveQuery) error {
	sp := trace.Begin("query.shard")
	sp.SetTid(w)
	defer sp.End()
	if qid := aq.ID(); qid != 0 {
		sp.ArgInt("qid", int64(qid))
	}
	var shardStart time.Time
	if aq != nil {
		shardStart = time.Now()
	}

	eng, err := New(q, reg)
	if err != nil {
		return err
	}
	st.eng = eng
	var nunits, records int
	var bytes int64
	for ui := w; ui < len(units); ui += jobs {
		n, nb, err := plan.ScanUnit(eng, units[ui], reg, nil)
		if err != nil {
			return err
		}
		if eng.db == nil {
			// steal the rows collected for this unit so they can be
			// reassembled in unit order
			rowsByUnit[ui] = eng.rows
			eng.rows = nil
		}
		nunits++
		records += n
		bytes += nb
	}
	sp.ArgInt("worker", int64(w))
	sp.ArgInt("units", int64(nunits))
	sp.ArgInt("records", int64(records))
	sp.ArgInt("bytes", bytes)
	if aq != nil {
		aq.ShardDone(time.Since(shardStart), uint64(records), uint64(bytes))
	}
	return nil
}
