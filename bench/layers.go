package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"caligo/calql"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	icalql "caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/mpi"
	"caligo/internal/qcache"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
	"caligo/internal/trace"
)

// The staged replay: each workload's pipeline is run stage by stage over
// the materialised output of the previous stage, with a span around every
// call into a layer's exported functions. The stage spans of one replay
// should add up to the fused operation; what is left over is reported as
// run.unexplained_share. Measurements that are not steps of the pipeline
// (a layer timed in isolation, a cold-cache query) run under a separate
// "sub" op and are not part of that sum.

// evalRejectAll is the evaluation query with a WHERE that scans every
// record exactly as not(phase) does and then rejects it: what the engine
// spends on filtering alone.
const evalRejectAll = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel, mpi.function WHERE phase = never"

// subReps is how often each isolated sub-measurement is repeated.
const subReps = 3

// parallel runs fn(i) for every i in [0, n), item i on goroutine i % jobs.
// With jobs <= 1 it runs inline: a stage is never more parallel than its
// workload states.
func parallel(jobs, n int, fn func(i int) error) error {
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := j; i < n && errs[j] == nil; i += jobs {
				errs[j] = fn(i)
			}
		}(j)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// decodeAll decodes a .cali stream into one reused record, as every scan
// loop of the program does, and returns the record count.
func decodeAll(data []byte, reg *attr.Registry, keep map[string]bool, each func(snapshot.FlatRecord) error) (int, error) {
	rd := calformat.NewReader(bytes.NewReader(data), reg, contexttree.New())
	if keep != nil {
		rd.SetProjection(keep)
	}
	var rec snapshot.FlatRecord
	for n := 0; ; n++ {
		if err := rd.NextInto(&rec); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		if each != nil {
			if err := each(rec); err != nil {
				return n, err
			}
		}
	}
}

// materialized is the decode stage's output kept for the stages after it.
type materialized struct {
	reg      *attr.Registry
	recs     [][]snapshot.FlatRecord // per file
	matching []snapshot.FlatRecord   // records without a phase: what WHERE not(phase) passes
}

func materialize(files []string) (*materialized, error) {
	m := &materialized{reg: attr.NewRegistry(), recs: make([][]snapshot.FlatRecord, len(files))}
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		_, err = decodeAll(data, m.reg, nil, func(r snapshot.FlatRecord) error {
			r = r.Clone()
			m.recs[i] = append(m.recs[i], r)
			if _, init := r.GetByName("phase"); !init {
				m.matching = append(m.matching, r)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// finish runs the two stages every query pipeline ends with and checks
// the replay's output like any other op's.
func (w *queryWorkload) finish(op *opSpan, m map[string]float64, results func() ([]snapshot.FlatRecord, error), q *icalql.Query, reg *attr.Registry) error {
	var rows []snapshot.FlatRecord
	err := op.single("query.results", func() (n int, err error) {
		rows, err = results()
		return len(rows), err
	})
	if err != nil {
		return err
	}
	var res result
	err = op.single("query.format", func() (n int, err error) {
		res, err = render(&calql.Resultset{Rows: rows, Reg: reg, Query: q}, nil)
		return len(rows), err
	})
	if err != nil {
		return err
	}
	m["query.format.bytes_out"] = float64(res.outBytes)
	return w.check(&res)
}

func (w *queryWorkload) layers(t *tracer, budget time.Duration) (map[string]float64, float64, error) {
	replay, sub := w.replayScanUnits, w.subScanUnits
	switch {
	case w.ranks > 0:
		replay, sub = w.replayReduceTree, w.subReduceTree
	case w.opts == serialFullScan:
		replay, sub = w.replayFullScan, w.subFullScan
	}
	m := map[string]float64{}
	deadline := time.Now().Add(budget)
	if err := sub(t, m); err != nil {
		return nil, 0, err
	}
	stagedMS, err := replayUntil(deadline, func() (int64, error) {
		if err := w.prepare(); err != nil {
			return 0, err
		}
		op := t.beginOp("replay")
		defer op.end()
		err := replay(op, m)
		return op.stagedNS, err
	})
	if err != nil {
		return nil, 0, err
	}
	w.layerMetrics(t, m)
	return m, stagedMS, nil
}

// layerMetrics reports the layers all query pipelines share, then those
// of this workload's kind of pipeline.
func (w *queryWorkload) layerMetrics(t *tracer, m map[string]float64) {
	parse := t.layer("calql.parse")
	m["calql.parse.ns_per_op"] = parse.nsPerUnit()
	m["calql.parse.allocs_per_op"] = parse.allocsPerUnit()
	m["query.results.ns_per_row"] = t.layer("query.results").nsPerUnit()
	m["query.format.ns_per_row"] = t.layer("query.format").nsPerUnit()
	m["query.rows"] = float64(w.want.rows)
	switch {
	case w.ranks > 0:
		tm := w.lastTiming // of the last fused op
		m["pquery.local_ms"] = float64(tm.LocalWall.Nanoseconds()) / 1e6
		m["pquery.reduce_share"] = float64(tm.TotalWall-tm.LocalWall) / float64(tm.TotalWall)
		m["pquery.reduce_virtual_us"] = tm.ReduceVirt / 1e3
		m["mpi.world_setup_ms"] = t.layer("mpi.world").nsPerUnit() / 1e6
		wireMetrics(t, m)
	case w.opts == serialFullScan:
		ioMetrics(t, m)
		decodeMetrics(t, m)
		process := t.layer("query.process")
		m["query.process.ns_per_record"] = process.nsPerUnit()
		m["query.process.allocs_per_record"] = process.allocsPerUnit()
		if w.jobs > 1 {
			mergeMetrics(t, m)
			merge := t.layer("core.merge")
			m["query.sharded.merge_ms"] = float64(merge.stageNS) / float64(merge.stages) / 1e6
		}
	}
}

// parseStage is every replay's first stage: query text to engines, one
// per worker, sharing reg.
func (w *queryWorkload) parseStage(op *opSpan, reg *attr.Registry, engines []*query.Engine) (q *icalql.Query, err error) {
	err = op.single("calql.parse", func() (int, error) {
		if q, err = icalql.Parse(w.text); err != nil {
			return 1, err
		}
		for j := range engines {
			if engines[j], err = query.New(q, reg); err != nil {
				return 1, err
			}
		}
		return 1, nil
	})
	return q, err
}

// ---------------------------------------------------------------------------
// scan-serial, scan-sharded: read → decode → process (→ merge) → results → format

func (w *queryWorkload) replayFullScan(op *opSpan, m map[string]float64) error {
	files, per := w.corpus.files, w.corpus.shape.recordsPerFile()
	jobs := max(w.jobs, 1)
	engines := make([]*query.Engine, jobs)
	q, err := w.parseStage(op, w.mat.reg, engines)
	if err != nil {
		return err
	}
	data := make([][]byte, len(files))
	err = op.stage("io.read", func(st *stageCtx) error {
		return parallel(jobs, len(files), func(i int) error {
			return st.call(func() (n int, err error) {
				data[i], err = os.ReadFile(files[i])
				return per, err
			})
		})
	})
	if err != nil {
		return err
	}
	reg := attr.NewRegistry() // shared by the workers, as the program's shards share theirs
	err = op.stage("calformat.decode", func(st *stageCtx) error {
		return parallel(jobs, len(files), func(i int) error {
			return st.call(func() (int, error) { return decodeAll(data[i], reg, nil, nil) })
		})
	})
	if err != nil {
		return err
	}
	err = op.stage("query.process", func(st *stageCtx) error {
		return parallel(jobs, len(files), func(i int) error {
			return st.call(func() (int, error) {
				for _, r := range w.mat.recs[i] {
					if err := engines[i%jobs].Process(r); err != nil {
						return 0, err
					}
				}
				return len(w.mat.recs[i]), nil
			})
		})
	})
	if err != nil {
		return err
	}
	if jobs > 1 {
		// the program's pairwise merge tree over the shard databases
		err = op.stage("core.merge", func(st *stageCtx) error {
			for stride := 1; stride < jobs; stride *= 2 {
				pairs := (jobs - stride + 2*stride - 1) / (2 * stride)
				err := parallel(pairs, pairs, func(p int) error {
					dst, src := engines[p*2*stride].DB(), engines[p*2*stride+stride].DB()
					return st.call(func() (int, error) { return src.Len(), dst.Merge(src) })
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return w.finish(op, m, engines[0].Results, q, w.mat.reg)
}

func (w *queryWorkload) subFullScan(t *tracer, m map[string]float64) (err error) {
	if w.mat, err = materialize(w.corpus.files); err != nil {
		return err
	}
	total := w.corpus.shape.records()
	q, err := icalql.Parse(w.text)
	if err != nil {
		return err
	}
	scheme, err := q.Scheme()
	if err != nil {
		return err
	}
	rejectAll, err := icalql.Parse(evalRejectAll)
	if err != nil {
		return err
	}
	var db *core.DB
	for rep := 0; rep < subReps; rep++ {
		sub := t.beginOp("sub")
		err := sub.single("query.where", func() (int, error) {
			eng, err := query.New(rejectAll, w.mat.reg)
			if err != nil {
				return 0, err
			}
			for _, recs := range w.mat.recs {
				for _, r := range recs {
					if err := eng.Process(r); err != nil {
						return 0, err
					}
				}
			}
			if eng.Size() != 0 {
				return 0, errors.New("reject-all WHERE let a record through")
			}
			return total, nil
		})
		if err != nil {
			return err
		}
		if db, err = core.NewDB(scheme, w.mat.reg); err != nil {
			return err
		}
		sub.single("core.update", func() (int, error) {
			for _, r := range w.mat.matching {
				db.Update(r)
			}
			return len(w.mat.matching), nil
		})
		err = sub.single("core.flush", func() (int, error) {
			rows, err := db.FlushRecords()
			return len(rows), err
		})
		if err != nil {
			return err
		}
		if w.jobs > 1 {
			if err := subMerge(sub, db, scheme); err != nil {
				return err
			}
		}
		sub.end()
	}
	m["query.where.ns_per_record"] = t.layer("query.where").nsPerUnit()
	m["query.scan.examined_per_matched"] = float64(total) / float64(len(w.mat.matching))
	updateMetrics(t, m, db.Len())
	return nil
}

// updateMetrics reports core.DB.Update and Flush as measured under
// "core.update" and "core.flush"; buckets is the size of the database one
// pass filled.
func updateMetrics(t *tracer, m map[string]float64, buckets int) {
	up := t.layer("core.update")
	m["core.update.ns_per_record"] = up.nsPerUnit()
	m["core.update.allocs_per_record"] = up.allocsPerUnit()
	records := float64(up.units) / float64(up.calls)
	m["core.update.hit_ratio"] = (records - float64(buckets)) / records
	m["core.buckets"] = float64(buckets)
	if b := up.counters["caligo.core.buckets"]; b > 0 {
		m["core.keybytes_per_bucket"] = float64(up.counters["caligo.core.keybytes"]) / float64(b)
	}
	m["core.flush.ns_per_bucket"] = t.layer("core.flush").nsPerUnit()
}

// subMerge times DB.Merge both ways it is used: into an empty database
// (every bucket inserted, as when ranks bring disjoint keys) and into one
// that already holds every key (as when shards saw the same groups).
func subMerge(sub *opSpan, src *core.DB, scheme *core.Scheme) error {
	dst, err := core.NewDB(scheme, attr.NewRegistry())
	if err != nil {
		return err
	}
	for _, layer := range []string{"core.merge_first", "core.merge_hit"} {
		err := sub.single(layer, func() (int, error) { return src.Len(), dst.Merge(src) })
		if err != nil {
			return err
		}
	}
	return nil
}

func mergeMetrics(t *tracer, m map[string]float64) {
	m["core.merge_first.ns_per_bucket"] = t.layer("core.merge_first").nsPerUnit()
	m["core.merge.ns_per_bucket"] = t.layer("core.merge_hit").nsPerUnit()
}

// ---------------------------------------------------------------------------
// scan-indexed, scan-pruned, cache-append: plan → scan units → results → format

func (w *queryWorkload) scanOptions() (query.ScanOptions, error) {
	so := query.ScanOptions{UseIndex: !w.opts.NoIndex}
	if w.cached {
		store, err := qcache.Shared(w.opts.CacheDir)
		if err != nil {
			return so, err
		}
		so.Cache = store
	}
	return so, nil
}

func (w *queryWorkload) replayScanUnits(op *opSpan, m map[string]float64) error {
	files := w.corpus.files
	so, err := w.scanOptions()
	if err != nil {
		return err
	}
	reg, tree := attr.NewRegistry(), contexttree.New()
	engines := make([]*query.Engine, 1)
	q, err := w.parseStage(op, reg, engines)
	if err != nil {
		return err
	}
	var plan *query.ScanPlan
	var units []query.Unit
	op.single("query.plan", func() (int, error) {
		plan = query.NewScanPlan(q, so)
		units = plan.PlanUnits(files, 1)
		return len(files), nil
	})
	decoded := 0
	err = op.stage("query.scan", func(st *stageCtx) error {
		for _, u := range units {
			err := st.call(func() (int, error) {
				n, _, err := plan.ScanUnit(engines[0], u, reg, tree)
				decoded += n
				return n, err
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.finish(op, m, engines[0].Results, q, reg); err != nil {
		return err
	}
	st := plan.Stats()
	m["query.scan.files_skipped"] = float64(st.FilesSkipped)
	m["query.scan.blocks_pruned"] = float64(st.BlocksPruned)
	m["query.scan.records_pruned"] = float64(st.RecordsPruned)
	m["query.scan.fallbacks"] = float64(st.Fallbacks)
	if w.cached {
		var size int64
		for _, f := range files {
			fi, err := os.Stat(f)
			if err != nil {
				return err
			}
			size += fi.Size()
		}
		m["qcache.hits"] = float64(st.CacheHits)
		m["qcache.misses"] = float64(st.CacheMisses)
		m["qcache.incremental"] = float64(st.CacheIncremental)
		m["qcache.fallbacks"] = float64(st.CacheFallbacks)
		m["qcache.bytes_skipped_share"] = float64(st.CacheBytesSkipped) / float64(size)
	} else {
		m["query.scan.examined_per_matched"] = float64(decoded) / float64(w.matchedRecords())
	}
	return nil
}

// matchedRecords counts the corpus records the workload's WHERE passes.
func (w *queryWorkload) matchedRecords() int {
	n := 0
	for i := range w.corpus.records {
		if w.ref.where == nil || w.ref.where(&w.corpus.records[i]) {
			n++
		}
	}
	return n
}

func (w *queryWorkload) subScanUnits(t *tracer, m map[string]float64) error {
	if w.cached {
		return w.subCache(t, m)
	}
	files, per := w.corpus.files, w.corpus.shape.recordsPerFile()
	q, err := icalql.Parse(w.text)
	if err != nil {
		return err
	}
	keep := map[string]bool{}
	for _, a := range query.NewScanPlan(q, query.ScanOptions{UseIndex: true}).Projection() {
		keep[a] = true
	}
	// the file both indexed workloads decode: rank 3's (scan-pruned decodes
	// no other)
	probe := files[min(3, len(files)-1)]
	data, err := os.ReadFile(probe)
	if err != nil {
		return err
	}
	scratch := filepath.Join(filepath.Dir(probe), "scratch.cali")
	defer os.Remove(scratch)
	var idx *calformat.Index
	for rep := 0; rep < subReps; rep++ {
		sub := t.beginOp("sub")
		err := sub.stage("calformat.index.load", func(st *stageCtx) error {
			for _, f := range files {
				err := st.call(func() (int, error) {
					_, err := calformat.LoadIndex(f)
					return 1, err
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = sub.single("calformat.decode_projected", func() (int, error) {
			return decodeAll(data, attr.NewRegistry(), keep, nil)
		})
		if err != nil {
			return err
		}
		// what set-up pays per file: the generator's write path and a
		// from-scratch index build
		err = sub.single("calformat.write", func() (int, error) {
			return per, writeFile(scratch, w.corpus.records[:per], false)
		})
		if err != nil {
			return err
		}
		err = sub.single("calformat.index.build", func() (n int, err error) {
			idx, err = calformat.BuildFileIndex(scratch, calformat.IndexOptions{})
			return per, err
		})
		if err != nil {
			return err
		}
		sub.end()
	}
	m["calformat.index.load.ns_per_file"] = t.layer("calformat.index.load").nsPerUnit()
	m["calformat.decode_projected.ns_per_record"] = t.layer("calformat.decode_projected").nsPerUnit()
	writeMetrics(t, m, float64(len(data))/float64(per))
	m["calformat.index.build.ns_per_record"] = t.layer("calformat.index.build").nsPerUnit()
	m["calformat.index.bytes_per_record"] = float64(len(idx.Encode())) / float64(per)
	return nil
}

func writeMetrics(t *tracer, m map[string]float64, bytesPerRecord float64) {
	wr := t.layer("calformat.write")
	m["calformat.write.ns_per_record"] = wr.nsPerUnit()
	m["calformat.write.allocs_per_record"] = wr.allocsPerUnit()
	m["calformat.write.bytes_per_record"] = bytesPerRecord
}

func (w *queryWorkload) subCache(t *tracer, m map[string]float64) error {
	files := w.corpus.files
	q, err := icalql.Parse(w.text)
	if err != nil {
		return err
	}
	scheme, err := q.Scheme()
	if err != nil {
		return err
	}
	store, err := qcache.Shared(w.opts.CacheDir)
	if err != nil {
		return err
	}
	planText := qcache.CanonicalPlan(q)
	var entry *qcache.Entry
	var state []byte
	var buckets int
	for rep := 0; rep < subReps; rep++ {
		sub := t.beginOp("sub")
		err := sub.stage("qcache.lookup", func(st *stageCtx) error {
			for _, f := range files[1:] { // file 0's entry is the one ops rewrite
				err := st.call(func() (int, error) {
					if entry = store.Lookup(planText, f); entry == nil {
						return 1, errors.New("primed cache entry missing: " + f)
					}
					return 1, nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = sub.single("qcache.put", func() (int, error) { return 1, store.Put(entry) })
		if err != nil {
			return err
		}
		db, err := core.NewDB(scheme, attr.NewRegistry())
		if err != nil {
			return err
		}
		err = sub.single("core.wire.decode_merge", func() (int, error) {
			err := db.MergeEncodedState(entry.State)
			return db.Len(), err
		})
		if err != nil {
			return err
		}
		sub.single("core.wire.encode", func() (int, error) {
			state, buckets = db.EncodeState(), db.Len()
			return buckets, nil
		})
		if err := subMerge(sub, db, scheme); err != nil {
			return err
		}
		// the same query with every entry valid, and with none
		err = sub.single("qcache.warm_query", func() (int, error) {
			_, err := render(calql.QueryFilesOpt(w.text, files[1:], w.opts))
			return 1, err
		})
		if err != nil {
			return err
		}
		// a directory no store was opened on yet: every file misses and is stored
		coldDir := fmt.Sprintf("%s-cold-%d", w.opts.CacheDir, rep)
		err = sub.single("qcache.cold_query", func() (int, error) {
			_, err := render(calql.QueryFilesOpt(w.text, files[1:], calql.Options{CacheDir: coldDir}))
			return 1, err
		})
		if err != nil {
			return err
		}
		sub.end()
	}
	m["qcache.lookup.ns"] = t.layer("qcache.lookup").nsPerUnit()
	m["qcache.put.ns"] = t.layer("qcache.put").nsPerUnit()
	m["qcache.entry_bytes"] = float64(len(entry.Encode()))
	m["qcache.warm_query_ms"] = t.layer("qcache.warm_query").nsPerUnit() / 1e6
	m["qcache.cold_query_ms"] = t.layer("qcache.cold_query").nsPerUnit() / 1e6
	m["core.wire.bytes_per_bucket"] = float64(len(state)) / float64(buckets)
	wireMetrics(t, m)
	mergeMetrics(t, m)
	return nil
}

// wireMetrics reports EncodeState and MergeEncodedState.
func wireMetrics(t *tracer, m map[string]float64) {
	m["core.wire.encode.ns_per_bucket"] = t.layer("core.wire.encode").nsPerUnit()
	m["core.wire.decode_merge.ns_per_bucket"] = t.layer("core.wire.decode_merge").nsPerUnit()
}

// ---------------------------------------------------------------------------
// reduce-tree: world → per-rank local scan → encode → binomial tree of
// (decode+merge, decode+merge, encode) → root flush → format

func (w *queryWorkload) replayReduceTree(op *opSpan, m map[string]float64) error {
	files, ranks := w.corpus.files, w.ranks
	q, err := w.parseStage(op, attr.NewRegistry(), nil)
	if err != nil {
		return err
	}
	scheme, err := q.Scheme()
	if err != nil {
		return err
	}
	err = op.single("mpi.world", func() (int, error) {
		world, err := mpi.NewWorld(ranks)
		if err != nil {
			return 1, err
		}
		return 1, world.Run(func(*mpi.Comm) error { return nil })
	})
	if err != nil {
		return err
	}
	plan := query.NewScanPlan(q, query.ScanOptions{UseIndex: !w.opts.NoIndex})
	dbs := make([]*core.DB, ranks)
	err = op.stage("pquery.local", func(st *stageCtx) error {
		return parallel(ranks, ranks, func(r int) error {
			return st.call(func() (int, error) {
				// per-process address spaces, as in the program's runRank
				reg, tree := attr.NewRegistry(), contexttree.New()
				eng, err := query.New(q, reg)
				if err != nil {
					return 0, err
				}
				dbs[r] = eng.DB()
				var mine []string
				for i := r; i < len(files); i += ranks {
					mine = append(mine, files[i])
				}
				n, _, err := plan.ScanFiles(eng, mine, reg, tree)
				return n, err
			})
		})
	})
	if err != nil {
		return err
	}
	states := make([][]byte, ranks)
	err = op.stage("core.wire.encode", func(st *stageCtx) error {
		return parallel(ranks, ranks, func(r int) error {
			return st.call(func() (int, error) {
				states[r] = dbs[r].EncodeState()
				return dbs[r].Len(), nil
			})
		})
	})
	if err != nil {
		return err
	}
	// the binomial tree: at stride s, rank i+s sends to rank i, which
	// decodes both partial results into a fresh database and re-encodes
	err = op.stage("pquery.reduce", func(st *stageCtx) error {
		for stride := 1; stride < ranks; stride *= 2 {
			pairs := (ranks - stride + 2*stride - 1) / (2 * stride)
			err := parallel(pairs, pairs, func(p int) error {
				dst, src := p*2*stride, p*2*stride+stride
				return st.call(func() (int, error) {
					db, err := core.NewDB(scheme, attr.NewRegistry())
					if err != nil {
						return 0, err
					}
					for _, s := range [][]byte{states[dst], states[src]} {
						err := st.callAs("core.wire.decode_merge", func() (int, error) {
							before := db.Len()
							err := db.MergeEncodedState(s)
							return db.Len() - before, err
						})
						if err != nil {
							return 0, err
						}
					}
					st.callAs("core.wire.encode", func() (int, error) {
						states[dst] = db.EncodeState()
						return db.Len(), nil
					})
					return db.Len(), nil
				})
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.wire.bytes_per_bucket"] = float64(len(states[0])) / float64(w.want.rows)
	rootReg := attr.NewRegistry()
	return w.finish(op, m, func() ([]snapshot.FlatRecord, error) {
		root, err := core.NewDB(scheme, rootReg)
		if err != nil {
			return nil, err
		}
		if err := root.MergeEncodedState(states[0]); err != nil {
			return nil, err
		}
		rows, err := root.FlushRecords()
		return query.Finalize(q, rootReg, rows), err
	}, q, rootReg)
}

func (w *queryWorkload) subReduceTree(t *tracer, m map[string]float64) error {
	files := w.corpus.files
	q, err := icalql.Parse(w.text)
	if err != nil {
		return err
	}
	scheme, err := q.Scheme()
	if err != nil {
		return err
	}
	per := w.corpus.shape.recordsPerFile()
	var db *core.DB
	for rep := 0; rep < subReps; rep++ {
		sub := t.beginOp("sub")
		// one rank's share of the local phase, layer by layer
		var data []byte
		err := sub.single("io.read", func() (n int, err error) {
			data, err = os.ReadFile(files[0])
			return per, err
		})
		if err != nil {
			return err
		}
		reg := attr.NewRegistry()
		var recs []snapshot.FlatRecord
		err = sub.single("calformat.decode", func() (int, error) { return decodeAll(data, attr.NewRegistry(), nil, nil) })
		if err != nil {
			return err
		}
		_, err = decodeAll(data, reg, nil, func(r snapshot.FlatRecord) error {
			recs = append(recs, r.Clone())
			return nil
		})
		if err != nil {
			return err
		}
		if db, err = core.NewDB(scheme, reg); err != nil {
			return err
		}
		sub.single("core.update", func() (int, error) {
			for _, r := range recs {
				db.Update(r)
			}
			return len(recs), nil
		})
		err = sub.single("core.flush", func() (int, error) {
			rows, err := db.FlushRecords()
			return len(rows), err
		})
		if err != nil {
			return err
		}
		if err := subMerge(sub, db, scheme); err != nil {
			return err
		}
		sub.end()
	}
	ioMetrics(t, m)
	decodeMetrics(t, m)
	updateMetrics(t, m, db.Len())
	mergeMetrics(t, m)
	return nil
}

func ioMetrics(t *tracer, m map[string]float64) {
	rd := t.layer("io.read")
	m["io.read.ns_per_record"] = rd.nsPerUnit()
	m["io.read.bytes_per_record"] = rd.bytesPerUnit()
}

func decodeMetrics(t *tracer, m map[string]float64) {
	dec := t.layer("calformat.decode")
	m["calformat.decode.ns_per_record"] = dec.nsPerUnit()
	m["calformat.decode.allocs_per_record"] = dec.allocsPerUnit()
	m["calformat.decode.bytes_per_record"] = dec.bytesPerUnit()
	m["calformat.decode.records"] = float64(dec.units) / float64(max(dec.stages, 1))
	m["calformat.decode.errors"] = float64(dec.counters["caligo.calformat.decode.errors"])
}

// observed wraps fn to run with the program's own telemetry and span
// tracing switched on, as `-stats -trace` users run it.
func observed(fn func() error) func() error {
	return func() error {
		tel, spans := telemetry.SetEnabled(true), trace.SetEnabled(true)
		defer func() {
			telemetry.SetEnabled(tel)
			trace.SetEnabled(spans)
		}()
		return fn()
	}
}

func (w *queryWorkload) comparisons() []comparison {
	self := func() error {
		_, err := w.op()
		return err
	}
	serial := func() error {
		_, err := render(calql.QueryFilesOpt(w.text, w.corpus.files, serialFullScan))
		return err
	}
	switch {
	case w.isSerialFullScan():
		return []comparison{{metric: "obs.enabled_overhead_ratio.scan", num: observed(self), den: self}}
	case w.jobs > 0:
		return []comparison{{metric: "query.sharded.speedup", num: serial, den: self}}
	case w.indexed:
		return []comparison{{metric: "query.scan.index_overhead_ratio", num: self, den: serial}}
	}
	return nil
}
