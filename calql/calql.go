// Package calql is the public interface to the aggregation description
// language and query engine: parse queries in the SQL-like language of
// Section III-B and run them over .cali datasets, or over records flushed
// from a live caliper.Channel (on-line analytical aggregation).
//
// Run is the one way to query files. Its Options pick the execution —
// serial, sharded across in-process workers, or the emulated-MPI parallel
// query application of Section IV-C — and every choice runs through the
// one executor in internal/query and yields the same rows. EXPLAIN and
// EXPLAIN ANALYZE are statements passed to Run like any other query;
// Result.Plan holds the plan. QueryChannel and QueryRecords query data
// already in memory.
package calql

import (
	"cmp"
	"context"
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
	"caligo/internal/trace"
)

// Query is a parsed query in the aggregation description language.
type Query = internalcalql.Query

// Parse parses a query, e.g.
//
//	AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration
func Parse(text string) (*Query, error) { return internalcalql.Parse(text) }

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

// Options control how Run executes a query; the zero value runs it
// serially. Jobs and Ranks share one rule: 0 means one worker and no
// emulated MPI, a negative count one per CPU (Jobs) or one per file
// (Ranks).
type Options struct {
	// Jobs is the number of in-process read+aggregate workers: each
	// aggregates a round-robin share of the files into a private database
	// shard, and the shards fold in a pairwise merge tree. No worker goes
	// without a file.
	Jobs int
	// Ranks runs the emulated-MPI query application of Section IV-C: each
	// rank aggregates a round-robin share of the files, as in the paper's
	// weak-scaling setup, and the partial databases combine in a
	// logarithmic tree reduction. A rank is one worker: Ranks overrides
	// Jobs.
	Ranks int
	// NoIndex disables sidecar index use: every file is fully decoded,
	// with no file/block pruning and no projection pushdown.
	NoIndex bool
	// CacheDir enables the per-file aggregate state cache (internal/
	// qcache) rooted at the given directory. Empty falls back to the
	// CALIGO_CACHE environment variable; if that is empty too, caching is
	// off.
	CacheDir string
	// NoCache force-disables the aggregate cache, overriding CacheDir and
	// CALIGO_CACHE.
	NoCache bool
}

// execution is Options resolved against the input file count, before any
// input is opened — a scan unit is a file, whatever its index or cache
// state — so the plan EXPLAIN prints describes the run it stands for.
type execution struct {
	mode                *query.Mode
	inputs, jobs, ranks int
	useIndex            bool
	cacheDir            string // "" = caching off
}

func (o Options) resolve(nfiles int) (execution, error) {
	e := execution{mode: query.Serial, inputs: nfiles, jobs: 1, useIndex: !o.NoIndex}
	if !o.NoCache {
		e.cacheDir = cmp.Or(o.CacheDir, os.Getenv("CALIGO_CACHE"))
	}
	switch {
	case o.Ranks < 0 && nfiles == 0:
		return e, fmt.Errorf("calql: no input files")
	case o.Ranks != 0:
		e.mode, e.ranks = query.MPI, cmp.Or(max(o.Ranks, 0), nfiles)
	case o.Jobs != 0:
		if e.jobs = query.Workers(o.Jobs, nfiles); e.jobs > 1 {
			e.mode = query.Sharded
		}
	}
	return e, nil
}

func (e execution) scan() query.ScanOptions {
	so := query.ScanOptions{UseIndex: e.useIndex}
	if e.cacheDir != "" {
		// an unopenable cache directory silently disables caching: the
		// query must answer regardless
		if store, err := qcache.Shared(e.cacheDir); err == nil {
			so.Cache = store
		}
	}
	return so
}

// explain renders q's plan, annotated with a run's phases if any.
func (e execution) explain(q *Query, phases []trace.Phase) (string, error) {
	plan, err := query.BuildPlan(q, query.PlanOptions{
		Inputs: e.inputs, Ranks: e.ranks, Jobs: e.jobs, // BuildPlan's default fan-in is pquery's: 2
		UseIndex: e.useIndex, Cache: e.cacheDir != "", CacheDir: e.cacheDir,
	})
	if err != nil {
		return "", err
	}
	plan.Annotate(phases)
	var sb strings.Builder
	err = plan.Write(&sb)
	return sb.String(), err
}

// ParallelTiming re-exports the parallel query phase breakdown.
type ParallelTiming = pquery.Timing

// Result is a query's rows with the records it read and, with Ranks set,
// its phase timing. Plan is the rendered plan of an EXPLAIN statement,
// which reads no input and has no rows, or of an EXPLAIN ANALYZE one,
// which runs the query and annotates each plan node with what the run
// measured; "" for any other statement.
type Result struct {
	*Resultset
	Timing           ParallelTiming
	RecordsProcessed uint64
	Plan             string
}

// Run parses a query once and runs it over .cali files, the off-line
// analytical aggregation path, as opts says. Sidecar block indexes (see
// calformat.BuildFileIndex) prune files and blocks the WHERE clause
// cannot match, and aggregating queries decode only the attributes they
// reference. The output is the same bytes for every Options.
//
// Cancelling ctx stops the run between scan units, every 1024 records and
// between merge levels, and releases emulated ranks blocked in
// communication; Run then returns an error wrapping ctx.Err(). A read
// blocked on its input finishes first.
func Run(ctx context.Context, queryText string, files []string, opts Options) (res *Result, err error) {
	e, err := opts.resolve(len(files))
	if err != nil {
		return nil, err
	}
	q, err := Parse(queryText)
	if err == nil && q.Explain == internalcalql.ExplainPlan {
		plan, err := e.explain(q, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Resultset: &Resultset{Reg: attr.NewRegistry(), Query: q}, Plan: plan}, nil
	}
	aq := obs.BeginQuery(queryText, e.mode.Engine)
	defer func() {
		if res != nil {
			aq.SetRows(len(res.Rows))
		}
		aq.End(err)
	}()
	if err != nil {
		return nil, err
	}
	inner := q
	if q.Explain == internalcalql.ExplainAnalyze {
		inner = q.WithoutExplain()
	}
	res, x, err := e.run(ctx, inner, files, aq)
	if err != nil || inner == q {
		return res, err
	}
	// EXPLAIN ANALYZE: time the format phase too, then annotate the plan
	if err = x.Write(io.Discard, res.Reg, res.Rows); err == nil {
		res.Plan, err = e.explain(q, x.Prof.Phases())
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run is the one way a query over files executes: scan plan → the
// executor's local phase (per rank in the MPI mode, then the cross-rank
// tree reduce) → result rows. It returns the executor too: its profile
// holds the run's phase times.
func (e execution) run(ctx context.Context, q *Query, files []string, aq *obs.ActiveQuery) (*Result, *query.Exec, error) {
	x := query.NewExec(q, e.scan(), e.mode, aq)
	res := &Result{Resultset: &Resultset{Query: q}}
	if e.mode == query.MPI {
		world, err := mpi.NewWorld(e.ranks)
		if err != nil {
			return nil, nil, err
		}
		pr, err := pquery.RunFiles(ctx, world, x, files)
		if err != nil {
			return nil, nil, err
		}
		res.Rows, res.Reg, res.Timing, res.RecordsProcessed = pr.Rows, pr.Reg, pr.Timing, pr.RecordsProcessed
		return res, x, nil
	}
	res.Reg = attr.NewRegistry()
	eng, n, _, err := x.Local(ctx, res.Reg, query.Input{Files: files}, e.jobs, 0)
	if err == nil {
		// the shared postprocess tail (post-ops, ORDER BY, LIMIT) runs
		// once, over the fully merged engine
		res.Rows, err = eng.Results()
	}
	if err != nil {
		return nil, nil, err
	}
	res.RecordsProcessed = uint64(n)
	return res, x, nil
}

// QueryFilesOpt is Run serially. bench/ only.
func QueryFilesOpt(queryText string, files []string, opts Options) (*Resultset, error) {
	return QueryFilesJobsOpt(queryText, files, 1, opts)
}

// QueryFilesJobsOpt is Run with up to jobs workers, jobs <= 0 meaning one
// per CPU. bench/ only.
func QueryFilesJobsOpt(queryText string, files []string, jobs int, opts Options) (*Resultset, error) {
	opts.Jobs, opts.Ranks = cmp.Or(max(jobs, 0), -1), 0
	res, err := Run(context.Background(), queryText, files, opts)
	if err != nil {
		return nil, err
	}
	return res.Resultset, nil
}

// QueryFilesParallelOpt is Run on ranks emulated MPI ranks, ranks <= 0
// meaning one per file. bench/ only.
func QueryFilesParallelOpt(queryText string, files []string, ranks int, opts Options) (*Result, error) {
	opts.Jobs, opts.Ranks = 0, cmp.Or(max(ranks, 0), -1)
	return Run(context.Background(), queryText, files, opts)
}

// QueryChannel flushes a live measurement channel and runs a query over
// the flushed records (on-line analytical aggregation), resolved against
// the channel's registry. It takes no context: it works in memory, with no
// I/O to wait on. The flush drains the channel: a second QueryChannel sees
// only what was recorded after the first, and the final flush sees nothing
// a query saw. It must not run while threads annotate the channel: the
// flush merges and clears each thread's database without its lock.
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
// Like QueryChannel it takes no context: there is no I/O to wait on.
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
