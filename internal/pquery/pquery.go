// Package pquery implements the scalable MPI-based query application of
// Section IV-C: each process is assigned a subset of the input datasets
// and first applies the query locally; the processes are then organized
// in a tree based on their rank and perform a logarithmic reduction —
// leaf processes send local aggregation results to their parent, where
// the partial results are aggregated again, level by level up to the
// root process.
//
// The MPI layer is emulated (internal/mpi); the reduction tree and the
// per-level deserialize → aggregate → serialize steps are identical to a
// real MPI deployment.
package pquery

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/mpi"
	"caligo/internal/obs"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
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
// measurements.
type Timing struct {
	LocalWall  time.Duration // rank 0's local read+process time
	TotalWall  time.Duration // wall time of the whole job
	LocalVirt  float64       // ns, rank 0 local phase on the virtual clock
	ReduceVirt float64       // ns, reduction phase on the virtual clock
	TotalVirt  float64       // ns, LocalVirt + ReduceVirt
}

// Result is the outcome of a parallel query, valid on the root.
type Result struct {
	Rows   []snapshot.FlatRecord
	Reg    *attr.Registry // registry the rows resolve against
	Query  *calql.Query
	Timing Timing
	// RecordsProcessed counts input records across all ranks.
	RecordsProcessed uint64
}

// InputProvider supplies the dataset assigned to one rank as a reader of
// .cali stream data. Returning a nil reader means the rank has no input.
type InputProvider func(rank int) (io.ReadCloser, error)

// FilesProvider supplies the .cali file paths assigned to one rank. An
// empty slice means the rank has no input. File-based input goes through
// the index-aware scan layer: sidecar block indexes prune files and
// blocks the query cannot match and projection pushdown trims decoding.
type FilesProvider func(rank int) []string

// rankInput selects a rank's input source: exactly one of provider or
// files is set. plan is shared across ranks (its stats are
// mutex-protected); each rank still owns a private registry and tree.
type rankInput struct {
	provider InputProvider
	files    FilesProvider
	opts     query.ScanOptions
	plan     *query.ScanPlan
}

// reduceFanin is the tree arity; the paper uses a binary ("logarithmic")
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
	return RunObs(world, queryText, provider, defaultFanin, nil)
}

// RunFanin is Run with a configurable reduction-tree fan-in.
func RunFanin(world *mpi.World, queryText string, provider InputProvider, fanin int) (*Result, error) {
	return RunObs(world, queryText, provider, fanin, nil)
}

// RunObs is RunFanin with per-query attribution: every rank's record and
// byte throughput is accounted into aq (nil disables attribution at zero
// cost), and the query ID is stamped on the per-rank spans so traces
// correlate with the slow-query log. fanin <= 0 selects the default
// binary tree.
func RunObs(world *mpi.World, queryText string, provider InputProvider, fanin int, aq *obs.ActiveQuery) (*Result, error) {
	return run(world, queryText, rankInput{provider: provider}, fanin, aq)
}

// RunFilesObs is RunObs with file-path input: each rank scans its files
// through the index-aware scan layer (opts controls index use), so
// indexed files get block pruning and projection pushdown on every rank.
func RunFilesObs(world *mpi.World, queryText string, files FilesProvider, fanin int, aq *obs.ActiveQuery, opts query.ScanOptions) (*Result, error) {
	return run(world, queryText, rankInput{files: files, opts: opts}, fanin, aq)
}

func run(world *mpi.World, queryText string, in rankInput, fanin int, aq *obs.ActiveQuery) (*Result, error) {
	if fanin <= 0 {
		fanin = defaultFanin
	}
	q, err := calql.Parse(queryText)
	if err != nil {
		return nil, err
	}
	if in.files != nil {
		in.plan = query.NewScanPlan(q, in.opts)
	}
	var result *Result
	start := time.Now()
	err = world.Run(func(c *mpi.Comm) error {
		res, err := runRank(c, q, in, fanin, aq)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			result = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if result == nil {
		return nil, fmt.Errorf("pquery: no result produced at root")
	}
	if in.plan != nil {
		if st := in.plan.Stats(); st.CacheHits+st.CacheMisses+st.CacheIncremental > 0 {
			aq.CacheStats(uint64(st.CacheHits), uint64(st.CacheMisses), uint64(st.CacheIncremental))
		}
	}
	result.Timing.TotalWall = time.Since(start)
	return result, nil
}

// runRank is the per-rank program: local aggregation, then tree reduce.
func runRank(c *mpi.Comm, q *calql.Query, input rankInput, fanin int, aq *obs.ActiveQuery) (*Result, error) {
	// Each rank has its own registry — per-process address spaces, as in
	// the real tool.
	reg := attr.NewRegistry()
	eng, err := query.New(q, reg)
	if err != nil {
		return nil, err
	}

	// Phase 1: stream process-local input through the engine with one
	// reused record (no whole-dataset buffering). Both phase spans still
	// appear — aggregate nested inside read — so EXPLAIN ANALYZE keeps the
	// same per-rank phase structure.
	localStart := time.Now()
	var processed uint64
	qid := aq.ID()
	if input.files != nil {
		if fl := input.files(c.Rank()); len(fl) > 0 {
			rsp := trace.BeginRank("pquery.read", c.Rank())
			asp := trace.BeginRank("pquery.aggregate", c.Rank())
			if qid != 0 {
				rsp.ArgInt("qid", int64(qid))
				asp.ArgInt("qid", int64(qid))
			}
			n, nb, err := input.plan.ScanFiles(eng, fl, reg, nil)
			if err != nil {
				asp.End()
				rsp.End()
				return nil, fmt.Errorf("rank %d: read input: %w", c.Rank(), err)
			}
			processed = uint64(n)
			asp.ArgInt("records_in", int64(n))
			asp.ArgInt("records_out", int64(eng.Size()))
			asp.End()
			rsp.ArgInt("records", int64(n))
			rsp.ArgInt("bytes", nb)
			rsp.End()
			aq.AddRecords(processed)
			aq.AddBytes(uint64(nb))
		} else {
			// No local input: still emit the aggregate phase so every rank
			// reports the same span set.
			asp := trace.BeginRank("pquery.aggregate", c.Rank())
			asp.ArgInt("records_in", 0)
			asp.ArgInt("records_out", int64(eng.Size()))
			asp.End()
		}
		return finishRank(c, q, eng, reg, fanin, localStart, processed, qid)
	}
	in, err := input.provider(c.Rank())
	if err != nil {
		return nil, fmt.Errorf("rank %d: open input: %w", c.Rank(), err)
	}
	if in != nil {
		rsp := trace.BeginRank("pquery.read", c.Rank())
		asp := trace.BeginRank("pquery.aggregate", c.Rank())
		if qid != 0 {
			rsp.ArgInt("qid", int64(qid))
			asp.ArgInt("qid", int64(qid))
		}
		cr := &countingReader{r: in}
		rd := calformat.NewReader(cr, reg, nil)
		var rec snapshot.FlatRecord // reused across NextInto calls
		for {
			err := rd.NextInto(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				asp.End()
				rsp.End()
				in.Close()
				return nil, fmt.Errorf("rank %d: read input: %w", c.Rank(), err)
			}
			if err := eng.Process(rec); err != nil {
				asp.End()
				rsp.End()
				in.Close()
				return nil, err
			}
			processed++
		}
		asp.ArgInt("records_in", int64(processed))
		asp.ArgInt("records_out", int64(eng.Size()))
		asp.End()
		rsp.ArgInt("records", int64(processed))
		rsp.ArgInt("bytes", cr.n)
		rsp.End()
		aq.AddRecords(processed)
		aq.AddBytes(uint64(cr.n))
		if err := in.Close(); err != nil {
			return nil, err
		}
	} else {
		// No local input: still emit the aggregate phase so every rank
		// reports the same span set.
		asp := trace.BeginRank("pquery.aggregate", c.Rank())
		asp.ArgInt("records_in", 0)
		asp.ArgInt("records_out", int64(eng.Size()))
		asp.End()
	}
	return finishRank(c, q, eng, reg, fanin, localStart, processed, qid)
}

// finishRank closes a rank's local phase (wall/virtual clocks, telemetry)
// and runs the cross-rank combination step.
func finishRank(c *mpi.Comm, q *calql.Query, eng *query.Engine, reg *attr.Registry,
	fanin int, localStart time.Time, processed, qid uint64) (*Result, error) {
	localWall := time.Since(localStart)
	telRecords.Add(processed)
	telLocalNS.Observe(localWall.Nanoseconds())
	// charge the local phase to the virtual clock with the deterministic
	// cost model (see perRecordNs)
	c.Advance(float64(processed) * perRecordNs)
	localVirt := c.Clock()

	var res *Result
	var err error
	if q.HasAggregation() {
		res, err = reduceAggregated(c, q, eng, fanin, localWall, localVirt, processed, qid)
	} else {
		res, err = gatherRows(c, q, eng, reg, localWall, localVirt, processed, qid)
	}
	if err != nil {
		return nil, err
	}
	// After the data reduction, run one telemetry-reduction epoch over the
	// dedicated tag space: per-rank query stats merge into the cluster-wide
	// observability view (/debug/cluster). Gated on the process-global
	// telemetry switch, so the collective stays uniform across ranks.
	if telemetry.Enabled() {
		if terr := telemetryEpoch(c, fanin, processed, localWall); terr != nil {
			return nil, terr
		}
	}
	return res, nil
}

// countingReader counts bytes consumed from the underlying reader, for
// the read span's bytes attribute.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// countedPayload frames a DB state with the rank-processed record count.
type countedPayload struct {
	state     []byte
	processed uint64
}

func encodePayload(p countedPayload) []byte {
	out := make([]byte, 8+len(p.state))
	for i := 0; i < 8; i++ {
		out[i] = byte(p.processed >> (8 * i))
	}
	copy(out[8:], p.state)
	return out
}

func decodePayload(b []byte) (countedPayload, error) {
	if len(b) < 8 {
		return countedPayload{}, fmt.Errorf("pquery: truncated payload")
	}
	var n uint64
	for i := 0; i < 8; i++ {
		n |= uint64(b[i]) << (8 * i)
	}
	return countedPayload{state: b[8:], processed: n}, nil
}

// reduceAggregated performs the tree reduction of aggregation databases.
func reduceAggregated(c *mpi.Comm, q *calql.Query, eng *query.Engine, fanin int,
	localWall time.Duration, localVirt float64, processed, qid uint64) (*Result, error) {

	scheme := eng.DB().Scheme()
	payload := encodePayload(countedPayload{
		state:     eng.DB().EncodeState(),
		processed: processed,
	})

	combine := func(a, b []byte) ([]byte, error) {
		pa, err := decodePayload(a)
		if err != nil {
			return nil, err
		}
		pb, err := decodePayload(b)
		if err != nil {
			return nil, err
		}
		reg := attr.NewRegistry()
		db, err := core.NewDB(scheme, reg)
		if err != nil {
			return nil, err
		}
		if err := db.MergeEncodedState(pa.state); err != nil {
			return nil, err
		}
		if err := db.MergeEncodedState(pb.state); err != nil {
			return nil, err
		}
		out := encodePayload(countedPayload{
			state:     db.EncodeState(),
			processed: pa.processed + pb.processed,
		})
		// charge merge compute to the combining rank's virtual clock
		// (deterministic model, see mergeBaseNs/perBucketNs)
		c.Advance(mergeBaseNs + perBucketNs*float64(db.Len()))
		return out, nil
	}

	var reduceStart time.Time
	if telemetry.Enabled() {
		reduceStart = time.Now()
	}
	sp := trace.BeginRank("pquery.reduce", c.Rank())
	if qid != 0 {
		sp.ArgInt("qid", int64(qid))
	}
	sp.ArgInt("bytes", int64(len(payload)))
	final, err := c.ReduceFanin(0, payload, combine, fanin)
	if err != nil {
		sp.End()
		return nil, err
	}
	if !reduceStart.IsZero() {
		telReduceNS.Observe(time.Since(reduceStart).Nanoseconds())
	}
	if c.Rank() != 0 {
		sp.End()
		return nil, nil
	}
	p, err := decodePayload(final)
	if err != nil {
		sp.End()
		return nil, err
	}
	rootReg := attr.NewRegistry()
	rootDB, err := core.NewDB(scheme, rootReg)
	if err != nil {
		sp.End()
		return nil, err
	}
	if err := rootDB.MergeEncodedState(p.state); err != nil {
		sp.End()
		return nil, err
	}
	rows, err := rootDB.FlushRecords()
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.ArgInt("rows", int64(len(rows)))
	sp.End()
	rows = query.Finalize(q, rootReg, rows)
	return &Result{
		Rows:             rows,
		Reg:              rootReg,
		Query:            q,
		RecordsProcessed: p.processed,
		Timing: Timing{
			LocalWall:  localWall,
			LocalVirt:  localVirt,
			ReduceVirt: c.Clock() - localVirt,
			TotalVirt:  c.Clock(),
		},
	}, nil
}

// gatherRows collects filtered rows at the root for non-aggregating
// queries, encoded as .cali stream fragments.
func gatherRows(c *mpi.Comm, q *calql.Query, eng *query.Engine, reg *attr.Registry,
	localWall time.Duration, localVirt float64, processed, qid uint64) (*Result, error) {

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
	sp := trace.BeginRank("pquery.reduce", c.Rank())
	if qid != 0 {
		sp.ArgInt("qid", int64(qid))
	}
	sp.ArgInt("bytes", int64(len(blob)))
	gathered, err := c.Gather(0, encodePayload(countedPayload{state: blob, processed: processed}))
	if err != nil {
		sp.End()
		return nil, err
	}
	if c.Rank() != 0 {
		sp.End()
		return nil, nil
	}
	rootReg := attr.NewRegistry()
	var all []snapshot.FlatRecord
	var total uint64
	for _, g := range gathered {
		p, err := decodePayload(g)
		if err != nil {
			sp.End()
			return nil, err
		}
		total += p.processed
		rd := calformat.NewReader(bytes.NewReader(p.state), rootReg, nil)
		recs, err := rd.ReadAll()
		if err != nil {
			sp.End()
			return nil, err
		}
		all = append(all, recs...)
	}
	sp.ArgInt("rows", int64(len(all)))
	sp.End()
	all = query.Finalize(q, rootReg, all)
	return &Result{
		Rows:             all,
		Reg:              rootReg,
		Query:            q,
		RecordsProcessed: total,
		Timing: Timing{
			LocalWall:  localWall,
			LocalVirt:  localVirt,
			ReduceVirt: c.Clock() - localVirt,
			TotalVirt:  c.Clock(),
		},
	}, nil
}
