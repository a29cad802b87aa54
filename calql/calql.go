// Package calql is the public interface to the aggregation description
// language and query engine: parse queries in the SQL-like language of
// Section III-B and run them over .cali datasets, or over records flushed
// from a live caliper.Channel (on-line analytical aggregation).
//
// Every file query — serial (QueryFiles, QueryFilesOpt), sharded across
// in-process workers (QueryFilesJobsOpt), the emulated-MPI parallel query
// application of Section IV-C (QueryFilesParallelOpt), EXPLAIN ANALYZE
// (ExplainFilesOpts) — runs through the one executor in internal/query;
// the entry points differ only in the worker and rank counts they pass.
package calql

import (
	"fmt"
	"io"
	"os"
	"strings"

	"caligo/caliper"
	"caligo/internal/attr"
	internalcalql "caligo/internal/calql"
	"caligo/internal/mpi"
	"caligo/internal/obs"
	"caligo/internal/pquery"
	"caligo/internal/qcache"
	"caligo/internal/query"
	"caligo/internal/snapshot"
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
	var sb strings.Builder
	if err := rs.Render(&sb); err != nil {
		return fmt.Sprintf("<error: %v>", err)
	}
	return sb.String()
}

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
	return QueryFilesJobsOpt(queryText, files, 1, opts)
}

// QueryFilesJobsOpt runs a query over the given .cali files with up to
// jobs in-process read+aggregate workers (sharded multi-core execution):
// the files are fanned out round-robin, each worker aggregates its files
// into a private database shard, and the shards are folded together with
// a pairwise merge tree before the shared postprocess tail. The output is
// byte-identical for every jobs. jobs <= 0 selects one worker per CPU; no
// worker goes without a file, so jobs == 1 — or a single file — is serial
// execution.
func QueryFilesJobsOpt(queryText string, files []string, jobs int, opts Options) (*Resultset, error) {
	res, _, err := run(queryText, files, jobs, 0, opts)
	if err != nil {
		return nil, err
	}
	return res.Resultset, nil
}

// ParallelTiming re-exports the parallel query phase breakdown.
type ParallelTiming = pquery.Timing

// ParallelResult bundles a parallel query's resultset with its timing.
type ParallelResult struct {
	*Resultset
	Timing           ParallelTiming
	RecordsProcessed uint64
}

// QueryFilesParallelOpt runs a query with the emulated-MPI parallel query
// application: ranks MPI processes are spawned (ranks <= 0: one per
// file), files are distributed round-robin (one subset per rank, as in
// the paper's weak-scaling setup), each rank aggregates its subset
// locally through the index-aware scan layer, and the partial aggregation
// databases are combined in a logarithmic tree reduction.
func QueryFilesParallelOpt(queryText string, files []string, ranks int, opts Options) (*ParallelResult, error) {
	if ranks <= 0 {
		ranks = len(files)
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("calql: no input files")
	}
	res, _, err := run(queryText, files, 1, ranks, opts)
	return res, err
}

// resolve maps a requested (jobs, ranks) to the execution mode and worker
// count of a query over nfiles files. Ranks take precedence: each rank of
// the emulated-MPI path is one worker. run and EXPLAIN both resolve here,
// without opening an input — a scan unit is a file, whatever its index or
// cache state — so a plan describes the run it stands for.
func resolve(jobs, ranks, nfiles int) (*query.Mode, int) {
	if ranks > 0 {
		return query.MPI, 1
	}
	if jobs = query.Workers(jobs, nfiles); jobs > 1 {
		return query.Sharded, jobs
	}
	return query.Serial, 1
}

// run is the one way a query over files executes: parse → registry → scan
// plan → the executor's local phase (per rank when ranks > 0, followed by
// the cross-rank tree reduce) → result rows, with query attribution
// around it all. It returns the executor too: its profile holds the run's
// phase times.
func run(queryText string, files []string, jobs, ranks int, opts Options) (res *ParallelResult, x *query.Exec, err error) {
	mode, jobs := resolve(jobs, ranks, len(files))
	aq := obs.BeginQuery(queryText, mode.Engine)
	defer func() {
		if res != nil {
			aq.SetRows(len(res.Rows))
		}
		aq.End(err)
	}()
	q, err := Parse(queryText)
	if err != nil {
		return nil, nil, err
	}
	x = query.NewExec(q, opts.scan(), mode, aq)
	if mode == query.MPI {
		world, err := mpi.NewWorld(ranks)
		if err != nil {
			return nil, nil, err
		}
		pr, err := pquery.RunFiles(world, x, files)
		if err != nil {
			return nil, nil, err
		}
		res = &ParallelResult{
			Resultset:        &Resultset{Rows: pr.Rows, Reg: pr.Reg, Query: q},
			Timing:           pr.Timing,
			RecordsProcessed: pr.RecordsProcessed,
		}
	} else {
		reg := attr.NewRegistry()
		eng, n, _, err := x.Local(reg, query.Input{Files: files}, jobs, 0)
		if err != nil {
			return nil, nil, err
		}
		// the shared postprocess tail (post-ops, ORDER BY, LIMIT) runs
		// once, over the fully merged engine
		rows, err := eng.Results()
		if err != nil {
			return nil, nil, err
		}
		res = &ParallelResult{
			Resultset:        &Resultset{Rows: rows, Reg: reg, Query: q},
			RecordsProcessed: uint64(n),
		}
	}
	return res, x, nil
}

// ExplainFilesOpts executes an EXPLAIN or EXPLAIN ANALYZE statement
// against the given .cali files and returns the rendered plan. The plan
// describes — and, for ANALYZE, measures — the execution QueryFilesJobsOpt
// (ranks == 0) or QueryFilesParallelOpt (ranks > 0) would run with the
// same arguments. EXPLAIN resolves the plan without touching the inputs;
// EXPLAIN ANALYZE runs the wrapped query, renders its rows, and annotates
// each plan node with the run's profile — the spans it measured, the same
// record /debug/queries serves: wall time, record counts, byte counts.
// The plan's index node reports the prunable conditions and decode
// projection (or that indexing is disabled); under ANALYZE it carries the
// measured block skip statistics and the reason of every index fallback.
func ExplainFilesOpts(queryText string, files []string, ranks, jobs int, eopts Options) (string, error) {
	q, err := Parse(queryText)
	if err != nil {
		return "", err
	}
	if q.Explain == ExplainNone {
		return "", fmt.Errorf("calql: not an EXPLAIN statement: %s", queryText)
	}
	mode, jobs := resolve(jobs, ranks, len(files))
	opts := query.PlanOptions{Inputs: len(files), UseIndex: !eopts.NoIndex, Jobs: jobs}
	if dir := eopts.cacheDir(); dir != "" {
		opts.Cache = true
		opts.CacheDir = dir
	}
	if mode == query.MPI {
		opts.Ranks = ranks // BuildPlan's default fan-in is pquery's: 2
	}
	plan, err := query.BuildPlan(q, opts)
	if err != nil {
		return "", err
	}
	if q.Explain == ExplainAnalyze {
		res, x, err := run(q.WithoutExplain().String(), files, jobs, ranks, eopts)
		if err == nil {
			err = x.Write(io.Discard, res.Reg, res.Rows)
		}
		if err != nil {
			return "", err
		}
		plan.Annotate(x.Prof.Phases())
	}
	var sb strings.Builder
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
