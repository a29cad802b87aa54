package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"caligo/caliper"
	"caligo/calql"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// The paper's evaluation query (Section V-C) and the two variants that
// exercise zone pruning and the Figure 7 per-rank key.
const (
	evalQuery   = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel, mpi.function WHERE not(phase)"
	prunedQuery = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) WHERE mpi.rank = 3 GROUP BY kernel"
	reduceQuery = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel, mpi.function, mpi.rank"
)

var (
	evalRef = refQuery{groupBy: []string{"kernel", "mpi.function"},
		where: func(r *record) bool { return r.phase == "" }}
	prunedRef = refQuery{groupBy: []string{"kernel"},
		where: func(r *record) bool { return r.rank == 3 }}
	reduceRef = refQuery{groupBy: []string{"kernel", "mpi.function", "mpi.rank"}}
)

// serialFullScan is the execution every other query workload's output must
// be byte-equal to: one goroutine, no index, no cache.
var serialFullScan = calql.Options{NoIndex: true, NoCache: true}

// queryWorkload is an analyst's operation: query text in, rendered table
// out, through one of the calql.QueryFiles*Opt entry points.
type queryWorkload struct {
	id      string
	text    string
	ref     refQuery
	opts    calql.Options
	jobs    int  // > 0: QueryFilesJobsOpt
	ranks   int  // > 0: QueryFilesParallelOpt (tiny scale uses the file count)
	reduce  bool // the 64-small-files shape instead of the ParaDiS shape
	indexed bool // write sidecar indexes
	cached  bool // opts.CacheDir is set up, and one iteration is appended per op

	corpus *corpus
	want   expectation

	// cache-append state: file 0's size before the appended iteration,
	// and that iteration as a ready-made stream.
	baseSize int64
	tail     []byte

	lastTiming calql.ParallelTiming // reduce-tree: the last op's phase breakdown
	mat        *materialized        // traced run: decoded records for the replay's later stages
}

func (w *queryWorkload) name() string { return w.id }

func (w *queryWorkload) shape(tiny bool) shape {
	switch {
	case w.reduce && tiny:
		return tinyReduceShape
	case w.reduce:
		return reduceShape
	case tiny:
		return tinyParadisShape
	}
	return paradisShape
}

func (w *queryWorkload) setup(dir string, seed uint64, tiny bool) error {
	s := w.shape(tiny)
	c, err := generateCorpus(filepath.Join(dir, "data"), s, seed, w.indexed)
	if err != nil {
		return err
	}
	w.corpus = c
	if w.ranks > 0 {
		w.ranks = s.files
	}
	recs := c.records
	if w.cached {
		w.opts.CacheDir = filepath.Join(dir, "cache")
		st, err := os.Stat(c.files[0])
		if err != nil {
			return err
		}
		w.baseSize = st.Size()
		tailRecs := iterationRecords(s, seed, 0, s.iterations)
		var buf bytes.Buffer
		reg, tree := attr.NewRegistry(), contexttree.New()
		cw := calformat.NewWriter(&buf, reg, tree)
		if err := writeStream(cw, reg, tree, tailRecs); err != nil {
			return err
		}
		if err := cw.Flush(); err != nil {
			return err
		}
		w.tail = buf.Bytes()
		recs = append(append([]record(nil), recs...), tailRecs...)
		// prime all entries; prepare() keeps them primed from here on
		if _, err := calql.QueryFilesOpt(w.text, c.files, w.opts); err != nil {
			return err
		}
	}
	w.want = expect(evaluate(recs, w.ref))

	// one checked op, and byte-equality with the serial full scan of the
	// same files
	if err := w.prepare(); err != nil {
		return err
	}
	res, err := w.op()
	if err != nil {
		return err
	}
	if err := w.check(&res); err != nil {
		return err
	}
	if w.isSerialFullScan() {
		return nil
	}
	serial, err := render(calql.QueryFilesOpt(w.text, c.files, serialFullScan))
	if err != nil {
		return err
	}
	if !bytes.Equal(res.out, serial.out) {
		return fmt.Errorf("%s: output differs from the serial full scan: %s", w.id, firstDiff(res.out, serial.out))
	}
	return nil
}

func (w *queryWorkload) isSerialFullScan() bool {
	return w.opts == serialFullScan && w.jobs == 0 && w.ranks == 0
}

func (w *queryWorkload) records() int {
	n := w.corpus.shape.records()
	if w.cached {
		n += w.corpus.shape.recordsPerIteration()
	}
	return n
}

// prepare puts cache-append's inputs into the state "every file cached,
// file 0 grown by one iteration since": truncate file 0 to its base size,
// re-prime its entry, append the iteration as a fresh stream.
func (w *queryWorkload) prepare() error {
	if !w.cached {
		return nil
	}
	file := w.corpus.files[0]
	if err := os.Truncate(file, w.baseSize); err != nil {
		return err
	}
	if _, err := calql.QueryFilesOpt(w.text, []string{file}, w.opts); err != nil {
		return err
	}
	f, err := os.OpenFile(file, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(w.tail); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *queryWorkload) query() (*calql.Resultset, error) {
	switch {
	case w.ranks > 0:
		res, err := calql.QueryFilesParallelOpt(w.text, w.corpus.files, w.ranks, w.opts)
		if err != nil {
			return nil, err
		}
		w.lastTiming = res.Timing
		return res.Resultset, nil
	case w.jobs > 0:
		return calql.QueryFilesJobsOpt(w.text, w.corpus.files, w.jobs, w.opts)
	}
	return calql.QueryFilesOpt(w.text, w.corpus.files, w.opts)
}

// render completes an operation: result rows to output bytes.
func render(rs *calql.Resultset, err error) (result, error) {
	if err != nil {
		return result{}, err
	}
	var buf bytes.Buffer
	if err := rs.Render(&buf); err != nil {
		return result{}, err
	}
	return result{out: buf.Bytes(), rows: len(rs.Rows), outBytes: int64(buf.Len())}, nil
}

func (w *queryWorkload) op() (result, error) {
	res, err := render(w.query())
	res.units = int64(w.records())
	return res, err
}

func (w *queryWorkload) check(r *result) error { return w.want.check(*r) }

// streamWorkload is an instrumented application's operation (Table I's
// snapshot stream): create a channel, annotate, flush to a .cali file.
type streamWorkload struct {
	pairs    int // Begin/End("kernel") pairs per op
	perIter  int // pairs per main-loop iteration
	kernels  []string
	rotation []int // per-iteration kernel rotation, from the seed
	path     string
	tally    map[tallyKey]uint64 // End("kernel") events per (iteration, kernel)
	buckets  int                 // traced run: aggregation records of the replay's database
}

type tallyKey struct {
	iter   int64
	kernel string
}

var streamKernels = []string{"calc-dt", "advec-mom", "advec-cell", "pdv", "viscosity", "accelerate", "flux-calc", "ideal-gas"}

func (w *streamWorkload) name() string { return "runtime-stream" }

func (w *streamWorkload) config(services string) caliper.Config {
	return caliper.Config{
		"services":          services,
		"aggregate.key":     "function,annotation,kernel,mpi.rank,iteration#mainloop",
		"aggregate.ops":     "count,sum(time.duration)",
		"recorder.filename": w.path,
	}
}

func (w *streamWorkload) setup(dir string, seed uint64, tiny bool) error {
	w.pairs, w.perIter, w.kernels = 25000, 250, streamKernels
	if tiny {
		w.pairs, w.perIter = 400, 40
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w.path = filepath.Join(dir, "stream.cali")
	iters := w.pairs / w.perIter
	w.rotation = make([]int, iters)
	w.tally = map[tallyKey]uint64{}
	for it := range w.rotation {
		w.rotation[it] = int(mix(seed^uint64(it)) % uint64(len(w.kernels)))
	}
	for i := 0; i < w.pairs; i++ {
		w.tally[tallyKey{int64(i / w.perIter), w.kernelOf(i)}]++
	}
	res, err := w.op()
	if err != nil {
		return err
	}
	return w.check(&res)
}

func (w *streamWorkload) kernelOf(pair int) string {
	return w.kernels[(pair+w.rotation[pair/w.perIter])%len(w.kernels)]
}

func (w *streamWorkload) prepare() error { return nil }

// annotate drives the application's annotation calls on th.
func (w *streamWorkload) annotate(th *caliper.Thread) error {
	if err := th.Begin("function", "main"); err != nil {
		return err
	}
	if err := th.Begin("annotation", "computation"); err != nil {
		return err
	}
	for i := 0; i < w.pairs; i++ {
		if i%w.perIter == 0 {
			if err := th.Set("iteration#mainloop", i/w.perIter); err != nil {
				return err
			}
		}
		if err := th.Begin("kernel", w.kernelOf(i)); err != nil {
			return err
		}
		if err := th.End("kernel"); err != nil {
			return err
		}
	}
	for _, name := range []string{"iteration#mainloop", "annotation", "function"} {
		if err := th.End(name); err != nil {
			return err
		}
	}
	return nil
}

func (w *streamWorkload) op() (result, error) {
	ch, err := caliper.NewChannel(w.config("event,timer,aggregate,recorder"))
	if err != nil {
		return result{}, err
	}
	if err := w.annotate(ch.Thread()); err != nil {
		return result{}, err
	}
	if err := ch.FlushAndWrite(); err != nil {
		return result{}, err
	}
	st, err := os.Stat(w.path)
	if err != nil {
		return result{}, err
	}
	return result{outBytes: st.Size(), units: int64(ch.Snapshots())}, nil
}

// check reads the written file back: the flushed count of every (kernel,
// iteration) must equal the driver's tally, and all counts must sum to the
// snapshots taken. Durations are wall-clock and are not checked.
func (w *streamWorkload) check(r *result) error {
	f, err := os.Open(w.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := calformat.NewReader(f, attr.NewRegistry(), contexttree.New())
	seen := map[tallyKey]bool{}
	var total uint64
	var rec snapshot.FlatRecord
	for r.rows = 0; ; r.rows++ {
		if err := rd.NextInto(&rec); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		count, ok := rec.GetByName("aggregate.count")
		if !ok {
			return fmt.Errorf("output record %d has no aggregate.count", r.rows)
		}
		total += count.AsUint()
		kernel, ok := rec.GetByName("kernel")
		if !ok {
			continue
		}
		iter, _ := rec.GetByName("iteration#mainloop")
		key := tallyKey{iter.AsInt(), kernel.String()}
		if count.AsUint() != w.tally[key] || seen[key] {
			return fmt.Errorf("count %d for %v, driver counted %d", count.AsUint(), key, w.tally[key])
		}
		seen[key] = true
	}
	if len(seen) != len(w.tally) {
		return fmt.Errorf("%d (kernel, iteration) records flushed, driver has %d", len(seen), len(w.tally))
	}
	if total != uint64(r.units) {
		return fmt.Errorf("flushed counts sum to %d, %d snapshots were taken", total, r.units)
	}
	return nil
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		&queryWorkload{id: "scan-serial", text: evalQuery, ref: evalRef, opts: serialFullScan},
		&queryWorkload{id: "scan-sharded", text: evalQuery, ref: evalRef, opts: serialFullScan, jobs: 2},
		&queryWorkload{id: "scan-indexed", text: evalQuery, ref: evalRef, indexed: true},
		&queryWorkload{id: "scan-pruned", text: prunedQuery, ref: prunedRef, indexed: true},
		&queryWorkload{id: "cache-append", text: evalQuery, ref: evalRef, cached: true},
		&queryWorkload{id: "reduce-tree", text: reduceQuery, ref: reduceRef, reduce: true, ranks: 64},
		&streamWorkload{},
	}
}
