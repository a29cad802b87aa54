// Package calql is the public interface to the aggregation description
// language and query engine: parse queries in the SQL-like language of
// Section III-B and run them over .cali datasets — serially or with the
// emulated-MPI parallel query application of Section IV-C — or over
// records flushed from a live caliper.Channel (on-line analytical
// aggregation).
package calql

import (
	"fmt"
	"io"
	"os"
	"time"

	"caligo/caliper"
	"caligo/internal/attr"
	internalcalql "caligo/internal/calql"
	"caligo/internal/mpi"
	"caligo/internal/obs"
	"caligo/internal/pquery"
	"caligo/internal/qcache"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/trace"
)

// Query is a parsed query in the aggregation description language.
type Query = internalcalql.Query

// ExplainMode marks EXPLAIN / EXPLAIN ANALYZE statements on a Query.
type ExplainMode = internalcalql.ExplainMode

// Explain modes (the Query.Explain field).
const (
	ExplainNone    = internalcalql.ExplainNone
	ExplainPlan    = internalcalql.ExplainPlan
	ExplainAnalyze = internalcalql.ExplainAnalyze
)

// Parse parses a query, e.g.
//
//	AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration
func Parse(text string) (*Query, error) { return internalcalql.Parse(text) }

// MustParse is Parse panicking on error, for static query definitions.
func MustParse(text string) *Query { return internalcalql.MustParse(text) }

// Resultset holds query output rows together with the attribute registry
// they resolve against.
type Resultset struct {
	Rows  []snapshot.FlatRecord
	Reg   *attr.Registry
	Query *Query
}

// Render writes the resultset in the query's FORMAT (default: table).
func (rs *Resultset) Render(w io.Writer) error {
	eng, err := query.New(rs.Query, rs.Reg)
	if err != nil {
		return err
	}
	return eng.Write(w, rs.Rows)
}

// String renders the resultset as text.
func (rs *Resultset) String() string {
	var sb stringsBuilder
	if err := rs.Render(&sb); err != nil {
		return fmt.Sprintf("<error: %v>", err)
	}
	return sb.String()
}

// stringsBuilder avoids importing strings just for Builder.
type stringsBuilder struct{ buf []byte }

func (b *stringsBuilder) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}
func (b *stringsBuilder) String() string { return string(b.buf) }

// Options control query execution across the QueryFiles* entry points.
// The zero value is the default behavior.
type Options struct {
	// NoIndex disables sidecar index use: every file is fully decoded,
	// with no file/block pruning and no projection pushdown. The output is
	// byte-identical either way; the flag exists for comparison and as an
	// escape hatch.
	NoIndex bool
	// CacheDir enables the per-file aggregate state cache (internal/
	// qcache) rooted at the given directory. Empty falls back to the
	// CALIGO_CACHE environment variable; if that is empty too, caching is
	// off. The output is byte-identical either way.
	CacheDir string
	// NoCache force-disables the aggregate cache, overriding CacheDir and
	// CALIGO_CACHE.
	NoCache bool
}

// cacheDir resolves the effective cache directory ("" = caching off).
func (o Options) cacheDir() string {
	if o.NoCache {
		return ""
	}
	if o.CacheDir != "" {
		return o.CacheDir
	}
	return os.Getenv("CALIGO_CACHE")
}

func (o Options) scan() query.ScanOptions {
	so := query.ScanOptions{UseIndex: !o.NoIndex}
	if dir := o.cacheDir(); dir != "" {
		// an unopenable cache directory silently disables caching: the
		// query must answer regardless
		if store, err := qcache.Shared(dir); err == nil {
			so.Cache = store
		}
	}
	return so
}

// QueryFiles runs a query serially over the given .cali files, merging
// them into one dataset first (the off-line analytical aggregation path).
// Sidecar block indexes (see calformat.BuildFileIndex) are consulted when
// present: files and blocks the WHERE clause cannot match are skipped,
// and aggregating queries decode only the attributes they reference.
func QueryFiles(queryText string, files []string) (*Resultset, error) {
	return QueryFilesOpt(queryText, files, Options{})
}

// QueryFilesOpt is QueryFiles with explicit execution options.
func QueryFilesOpt(queryText string, files []string, opts Options) (*Resultset, error) {
	aq := obs.BeginQuery(queryText, "serial")
	rs, err := queryFilesObs(queryText, files, opts, aq)
	if rs != nil {
		aq.SetRows(len(rs.Rows))
	}
	aq.End(err)
	return rs, err
}

// queryFilesObs is the serial execution body, accounting into aq (nil
// disables attribution).
func queryFilesObs(queryText string, files []string, opts Options, aq *obs.ActiveQuery) (*Resultset, error) {
	q, err := Parse(queryText)
	if err != nil {
		return nil, err
	}
	reg := attr.NewRegistry()
	eng, err := query.New(q, reg)
	if err != nil {
		return nil, err
	}
	// Records stream straight from the decoder into the engine through one
	// reused record (no whole-dataset buffering). The read and aggregate
	// spans still both appear — aggregate nested inside read — so EXPLAIN
	// ANALYZE sees the same phase structure as the parallel path. The scan
	// plan emits its own query.index spans alongside.
	rsp := trace.Begin("query.read")
	asp := trace.Begin("query.aggregate")
	if qid := aq.ID(); qid != 0 {
		rsp.ArgInt("qid", int64(qid))
		asp.ArgInt("qid", int64(qid))
	}
	var readStart time.Time
	if aq != nil {
		readStart = time.Now()
	}
	plan := query.NewScanPlan(q, opts.scan())
	nrecs, bytesRead, err := plan.ScanFiles(eng, files, reg, nil)
	if err != nil {
		asp.End()
		rsp.End()
		return nil, err
	}
	asp.ArgInt("records_in", int64(nrecs))
	asp.ArgInt("records_out", int64(eng.Size()))
	asp.End()
	rsp.ArgInt("files", int64(len(files)))
	rsp.ArgInt("records", int64(nrecs))
	rsp.ArgInt("bytes", bytesRead)
	rsp.End()
	var postStart time.Time
	if aq != nil {
		aq.Phase("read+aggregate", time.Since(readStart))
		aq.AddRecords(uint64(nrecs))
		aq.AddBytes(uint64(bytesRead))
		if st := plan.Stats(); st.CacheHits+st.CacheMisses+st.CacheIncremental > 0 {
			aq.CacheStats(uint64(st.CacheHits), uint64(st.CacheMisses), uint64(st.CacheIncremental))
		}
		postStart = time.Now()
	}
	rows, err := eng.Results()
	if aq != nil {
		aq.Phase("postprocess", time.Since(postStart))
	}
	if err != nil {
		return nil, err
	}
	return &Resultset{Rows: rows, Reg: reg, Query: q}, nil
}

// QueryFilesJobs runs a query over the given .cali files with up to jobs
// in-process read+aggregate workers (sharded multi-core execution): files
// are fanned out round-robin, each worker aggregates its subset into a
// private database shard, and the shards are folded together with a
// pairwise merge tree before the shared postprocess tail. The output is
// byte-identical to QueryFiles. jobs <= 0 selects one worker per CPU;
// jobs == 1 shares the code path but runs a single worker.
func QueryFilesJobs(queryText string, files []string, jobs int) (*Resultset, error) {
	return QueryFilesJobsOpt(queryText, files, jobs, Options{})
}

// QueryFilesJobsOpt is QueryFilesJobs with explicit execution options.
// With indexing enabled (the default), indexed files additionally shard
// internally: block ranges of one large file fan out across the workers.
func QueryFilesJobsOpt(queryText string, files []string, jobs int, opts Options) (*Resultset, error) {
	aq := obs.BeginQuery(queryText, "sharded")
	q, err := Parse(queryText)
	if err != nil {
		aq.End(err)
		return nil, err
	}
	reg := attr.NewRegistry()
	rows, err := query.RunShardedFilesOpts(q, reg, files, jobs, aq, opts.scan())
	if err != nil {
		aq.End(err)
		return nil, err
	}
	aq.SetRows(len(rows))
	aq.End(nil)
	return &Resultset{Rows: rows, Reg: reg, Query: q}, nil
}

// ParallelTiming re-exports the parallel query phase breakdown.
type ParallelTiming = pquery.Timing

// ParallelResult bundles a parallel query's resultset with its timing.
type ParallelResult struct {
	*Resultset
	Timing           ParallelTiming
	RecordsProcessed uint64
}

// QueryFilesParallel runs a query with the emulated-MPI parallel query
// application: ranks MPI processes are spawned, files are distributed
// round-robin (one subset per rank, as in the paper's weak-scaling setup),
// each rank aggregates its subset locally, and the partial aggregation
// databases are combined in a logarithmic tree reduction.
func QueryFilesParallel(queryText string, files []string, ranks int) (*ParallelResult, error) {
	return QueryFilesParallelOpt(queryText, files, ranks, Options{})
}

// QueryFilesParallelOpt is QueryFilesParallel with explicit execution
// options. Each rank scans its file subset through the index-aware scan
// layer, so sidecar indexes prune files and blocks per rank.
func QueryFilesParallelOpt(queryText string, files []string, ranks int, opts Options) (*ParallelResult, error) {
	if ranks <= 0 {
		ranks = len(files)
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("calql: no input files")
	}
	aq := obs.BeginQuery(queryText, "mpi")
	world, err := mpi.NewWorld(ranks)
	if err != nil {
		aq.End(err)
		return nil, err
	}
	filesFor := func(rank int) []string {
		// round-robin assignment: rank r reads files r, r+ranks, ...
		var fl []string
		for i := rank; i < len(files); i += ranks {
			fl = append(fl, files[i])
		}
		return fl
	}
	res, err := pquery.RunFilesObs(world, queryText, filesFor, 0, aq, opts.scan())
	if err != nil {
		aq.End(err)
		return nil, err
	}
	aq.Phase("local", res.Timing.LocalWall)
	if reduceWall := res.Timing.TotalWall - res.Timing.LocalWall; reduceWall > 0 {
		aq.Phase("reduce", reduceWall)
	}
	aq.SetRows(len(res.Rows))
	aq.End(nil)
	return &ParallelResult{
		Resultset:        &Resultset{Rows: res.Rows, Reg: res.Reg, Query: res.Query},
		Timing:           res.Timing,
		RecordsProcessed: res.RecordsProcessed,
	}, nil
}

// countingReader counts consumed bytes for the read span's bytes arg.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ExplainFiles executes an EXPLAIN or EXPLAIN ANALYZE statement against
// the given .cali files and returns the rendered plan. With ranks > 0 the
// plan describes (and, for ANALYZE, measures) the parallel query
// application; otherwise the serial path. EXPLAIN resolves the plan
// without touching the inputs; EXPLAIN ANALYZE runs the wrapped query
// with span tracing scoped to the run and annotates each plan node with
// measured wall time, record counts, and byte counts.
func ExplainFiles(queryText string, files []string, ranks int) (string, error) {
	return ExplainFilesJobs(queryText, files, ranks, 1)
}

// ExplainFilesJobs is ExplainFiles with a sharded-execution worker count:
// with ranks == 0 and jobs != 1 the plan describes (and, for ANALYZE,
// measures) the sharded multi-core path with that many workers (jobs <= 0
// resolves to one worker per CPU, capped at the file count, matching
// QueryFilesJobs). Ranks take precedence: the emulated-MPI path has its
// own internal parallelism.
func ExplainFilesJobs(queryText string, files []string, ranks, jobs int) (string, error) {
	return ExplainFilesOpts(queryText, files, ranks, jobs, Options{})
}

// ExplainFilesOpts is ExplainFilesJobs with explicit execution options.
// The plan's index node reports the prunable conditions and decode
// projection (or that indexing is disabled); under ANALYZE it carries the
// measured block skip statistics.
func ExplainFilesOpts(queryText string, files []string, ranks, jobs int, eopts Options) (string, error) {
	q, err := Parse(queryText)
	if err != nil {
		return "", err
	}
	if q.Explain == ExplainNone {
		return "", fmt.Errorf("calql: not an EXPLAIN statement: %s", queryText)
	}
	if jobs <= 0 {
		jobs = query.DefaultJobs()
	}
	if jobs > len(files) {
		jobs = len(files)
	}
	opts := query.PlanOptions{Inputs: len(files), UseIndex: !eopts.NoIndex}
	if dir := eopts.cacheDir(); dir != "" {
		opts.Cache = true
		opts.CacheDir = dir
	}
	if ranks > 0 {
		opts.Ranks = ranks
		opts.Fanin = 2
	} else if jobs > 1 {
		opts.Jobs = jobs
	}
	plan, err := query.BuildPlan(q, opts)
	if err != nil {
		return "", err
	}
	if q.Explain == ExplainAnalyze {
		// scope span collection with Mark/Since rather than Reset, so a
		// concurrent collection (e.g. a -trace flag) keeps its spans
		prev := trace.SetEnabled(true)
		mark := trace.Mark()
		innerText := q.WithoutExplain().String()
		var runErr error
		switch {
		case ranks > 0:
			var res *ParallelResult
			res, runErr = QueryFilesParallelOpt(innerText, files, ranks, eopts)
			if runErr == nil {
				runErr = res.Render(io.Discard)
			}
		case jobs > 1:
			var res *Resultset
			res, runErr = QueryFilesJobsOpt(innerText, files, jobs, eopts)
			if runErr == nil {
				runErr = res.Render(io.Discard)
			}
		default:
			var res *Resultset
			res, runErr = QueryFilesOpt(innerText, files, eopts)
			if runErr == nil {
				runErr = res.Render(io.Discard)
			}
		}
		spans := trace.Since(mark)
		trace.SetEnabled(prev)
		if runErr != nil {
			return "", runErr
		}
		plan.Annotate(spans)
	}
	var sb stringsBuilder
	if err := plan.Write(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// QueryChannel flushes a live measurement channel and runs a query over
// the flushed records (on-line analytical aggregation). The channel's
// registry is shared, so result attributes resolve consistently.
func QueryChannel(queryText string, ch *caliper.Channel) (*Resultset, error) {
	q, err := Parse(queryText)
	if err != nil {
		return nil, err
	}
	eng, err := query.New(q, ch.Registry())
	if err != nil {
		return nil, err
	}
	if err := ch.FlushEmit(eng.Process); err != nil {
		return nil, err
	}
	rows, err := eng.Results()
	if err != nil {
		return nil, err
	}
	return &Resultset{Rows: rows, Reg: ch.Registry(), Query: q}, nil
}

// QueryRecords runs a query over in-memory records resolved against reg.
func QueryRecords(queryText string, reg *attr.Registry, recs []snapshot.FlatRecord) (*Resultset, error) {
	q, err := Parse(queryText)
	if err != nil {
		return nil, err
	}
	rows, err := query.Run(q, reg, recs)
	if err != nil {
		return nil, err
	}
	return &Resultset{Rows: rows, Reg: reg, Query: q}, nil
}
