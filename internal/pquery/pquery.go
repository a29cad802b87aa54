// Package pquery implements the scalable MPI-based query application of
// Section IV-C: each process is assigned a subset of the input datasets
// and first applies the query locally; the processes are then organized
// in a tree based on their rank and perform a logarithmic reduction —
// leaf processes send local aggregation results to their parent, where
// the partial results are aggregated again, level by level up to the
// root process.
//
// The MPI layer is emulated (internal/mpi); the reduction tree and the
// messages on it are those of a real MPI deployment. The reduction is a
// fold into live state (mpi.Comm.ReduceFold): each rank deserializes its
// children's partial results straight into the aggregation database its
// local phase built, and serializes that database once, for its parent.
// The root serializes nothing and renders the result from its own database
// against its own registry — the one its local phase read its input with.
package pquery

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/mpi"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// Self-instrumentation (see docs/OBSERVABILITY.md). All metrics are
// no-ops (one atomic load) unless telemetry is enabled. Phase histograms
// record per-rank wall time, one observation per rank per phase.
var (
	telRecords  = telemetry.NewCounter("caligo.pquery.records")
	telLocalNS  = telemetry.NewHistogram("caligo.pquery.local.ns")
	telReduceNS = telemetry.NewHistogram("caligo.pquery.reduce.ns")
)

// Timing reports the phase breakdown the paper's Figure 4 plots: the time
// to read and process process-local input, the time for the tree-based
// cross-process reduction, and the total. Virtual times come from the MPI
// cost model and reflect the emulated network; wall times are host
// measurements, read from the query's profile (query.Exec.Prof) — the
// spans EXPLAIN ANALYZE and /debug/queries report, not a clock of their own.
type Timing struct {
	LocalWall  time.Duration // the slowest rank's local read+process phase (its pquery.aggregate span)
	TotalWall  time.Duration // the whole job (the pquery.run span)
	LocalVirt  float64       // ns, rank 0 local phase on the virtual clock
	ReduceVirt float64       // ns, reduction phase on the virtual clock
	TotalVirt  float64       // ns, LocalVirt + ReduceVirt
}

// Result is the outcome of a parallel query, valid on the root.
type Result struct {
	Rows   []snapshot.FlatRecord
	Reg    *attr.Registry // registry the rows resolve against
	Timing Timing
	// RecordsProcessed counts input records across all ranks.
	RecordsProcessed uint64
}

// InputProvider supplies the dataset assigned to one rank as a reader of
// .cali stream data. Returning a nil reader means the rank has no input.
type InputProvider func(rank int) (io.ReadCloser, error)

// defaultFanin is the tree arity; the paper uses a binary ("logarithmic")
// reduction. RunFanin exposes other arities for the ablation bench.
const defaultFanin = 2

// Virtual-clock cost model for the query application's compute phases.
// Host wall-clock measurements are unusable for the scaling figure when
// hundreds of emulated ranks time-share few cores (a goroutine's wall time
// then includes its peers' execution), so the virtual clock charges
// deterministic per-record and per-bucket costs calibrated to the real
// single-rank throughput of the engine. Wall times are still reported.
const (
	// perRecordNs is the modeled cost of reading and aggregating one
	// input snapshot record.
	perRecordNs = 3000
	// mergeBaseNs is the fixed cost of one pairwise partial-result merge.
	mergeBaseNs = 20000
	// perBucketNs is the per-aggregation-record cost of a merge.
	perBucketNs = 250
)

// Run executes the query across the world, assigning each rank the input
// from provider, and returns the root's result.
func Run(world *mpi.World, queryText string, provider InputProvider) (*Result, error) {
	return RunFanin(world, queryText, provider, defaultFanin)
}

// RunFanin is Run with a configurable reduction-tree fan-in (fanin <= 0
// selects the default binary tree).
func RunFanin(world *mpi.World, queryText string, provider InputProvider, fanin int) (*Result, error) {
	q, err := calql.Parse(queryText)
	if err != nil {
		return nil, err
	}
	x := query.NewExec(q, query.ScanOptions{}, query.MPI, nil)
	return run(context.Background(), world, x, fanin, func(rank int) (query.Input, error) {
		in, err := provider(rank)
		return query.Input{Stream: in}, err
	})
}

// RunFiles executes x's query across the world over .cali files, which
// are distributed round-robin — rank r reads files r, r+size, ... — one
// subset per rank, as in the paper's weak-scaling setup. Each rank scans
// its subset through x's index- and cache-aware scan plan. Once ctx is
// done every rank stops, and RunFiles returns an error wrapping ctx.Err().
func RunFiles(ctx context.Context, world *mpi.World, x *query.Exec, files []string) (*Result, error) {
	return run(ctx, world, x, defaultFanin, func(rank int) (query.Input, error) {
		var in query.Input
		for i := rank; i < len(files); i += world.Size() {
			in.Files = append(in.Files, files[i])
		}
		return in, nil
	})
}

func run(ctx context.Context, world *mpi.World, x *query.Exec, fanin int, input func(rank int) (query.Input, error)) (*Result, error) {
	if fanin <= 0 {
		fanin = defaultFanin
	}
	var result *Result
	sp := x.Span("pquery.run", 0)
	err := world.RunContext(ctx, func(c *mpi.Comm) error {
		res, err := runRank(ctx, c, x, fanin, input)
		if c.Rank() == 0 {
			result = res
		}
		return err
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	if result == nil {
		return nil, fmt.Errorf("pquery: no result produced at root")
	}
	for _, ph := range x.Prof.Phases() {
		switch ph.Name {
		case "run":
			result.Timing.TotalWall = time.Duration(ph.NS)
		case "aggregate":
			result.Timing.LocalWall = time.Duration(ph.MaxNS)
		}
	}
	return result, nil
}

// runRank is the per-rank program: the executor's local phase over the
// rank's input, then the tree reduce.
func runRank(ctx context.Context, c *mpi.Comm, x *query.Exec, fanin int, input func(rank int) (query.Input, error)) (*Result, error) {
	in, err := input(c.Rank())
	if err != nil {
		return nil, fmt.Errorf("rank %d: open input: %w", c.Rank(), err)
	}
	// Each rank has its own registry — per-process address spaces, as in
	// the real tool.
	reg := attr.NewRegistry()
	eng, n, localWall, err := x.Local(ctx, reg, in, 1, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("rank %d: read input: %w", c.Rank(), err)
	}
	processed := uint64(n)
	telRecords.Add(processed)
	telLocalNS.Observe(localWall.Nanoseconds())
	// charge the local phase to the virtual clock with the deterministic
	// cost model (see perRecordNs)
	c.Advance(float64(processed) * perRecordNs)
	localVirt := c.Clock()

	var res *Result // the root's; nil elsewhere
	if x.Q.HasAggregation() {
		res, err = reduceAggregated(c, x, eng, reg, fanin, processed)
	} else {
		res, err = gatherRows(c, x, eng, reg, processed)
	}
	if err != nil {
		return nil, err
	}
	if res != nil {
		res.Rows = x.Finalize(res.Reg, res.Rows)
		res.Timing = Timing{
			LocalVirt:  localVirt,
			ReduceVirt: c.Clock() - localVirt,
			TotalVirt:  c.Clock(),
		}
	}
	return res, nil
}

// countRoom reserves a payload's record count ahead of its state:
// AppendState always outgrows it, so this array is never written.
var countRoom [8]byte

// statePayload frames a rank's database with its processed-record count,
// in one exact-size allocation.
func statePayload(db *core.DB, processed uint64) []byte {
	payload := db.AppendState(countRoom[:])
	binary.LittleEndian.PutUint64(payload, processed)
	return payload
}

func decodePayload(b []byte) (state []byte, processed uint64, err error) {
	if len(b) < 8 {
		return nil, 0, fmt.Errorf("pquery: truncated payload")
	}
	return b[8:], binary.LittleEndian.Uint64(b), nil
}

// reduceAggregated performs the tree reduction of aggregation databases as
// a fold into the database each rank already holds: a rank merges its
// children's encoded state straight into its own engine's database and
// encodes that once, when it sends to its parent. The root encodes
// nothing: it flushes its database against its own registry, reg. On the
// root it returns the merged rows, not yet finalized, with that registry
// and the record count summed over the ranks; on the other ranks, nil.
func reduceAggregated(c *mpi.Comm, x *query.Exec, eng *query.Engine, reg *attr.Registry, fanin int, processed uint64) (*Result, error) {
	db := eng.DB()
	sp := x.Span("pquery.reduce", c.Rank())
	defer func() { telReduceNS.Observe(sp.End()) }()
	err := c.ReduceFold(0, fanin, func(got []byte) error {
		state, n, err := decodePayload(got)
		if err != nil {
			return err
		}
		if err := db.MergeEncodedState(state); err != nil {
			return err
		}
		processed += n
		// charge merge compute to the absorbing rank's virtual clock
		// (deterministic model, see mergeBaseNs/perBucketNs)
		c.Advance(mergeBaseNs + perBucketNs*float64(db.Len()))
		return nil
	}, func() []byte {
		payload := statePayload(db, processed)
		sp.ArgInt("bytes", int64(len(payload)))
		return payload
	})
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	rows, err := db.FlushRecords()
	if err != nil {
		return nil, err
	}
	sp.ArgInt("rows", int64(len(rows)))
	return &Result{Rows: rows, Reg: reg, RecordsProcessed: processed}, nil
}

// gatherRows collects filtered rows at the root for non-aggregating
// queries, encoded as .cali stream fragments. It returns what
// reduceAggregated does.
func gatherRows(c *mpi.Comm, x *query.Exec, eng *query.Engine, reg *attr.Registry, processed uint64) (*Result, error) {
	rows, err := eng.Results()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := calformat.NewWriter(&buf, reg, contexttree.New())
	for _, r := range rows {
		if err := w.WriteFlat(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	blob := buf.Bytes()
	sp := x.Span("pquery.reduce", c.Rank())
	defer sp.End()
	sp.ArgInt("bytes", int64(len(blob)))
	payload := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(blob)), processed)
	gathered, err := c.Gather(0, append(payload, blob...))
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	rootReg := attr.NewRegistry()
	var all []snapshot.FlatRecord
	var total uint64
	for _, g := range gathered {
		blob, n, err := decodePayload(g)
		if err != nil {
			return nil, err
		}
		total += n
		rd := calformat.NewReader(bytes.NewReader(blob), rootReg, nil)
		recs, err := rd.ReadAll()
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	sp.ArgInt("rows", int64(len(all)))
	return &Result{Rows: all, Reg: rootReg, RecordsProcessed: total}, nil
}
