package main

import (
	"os"
	"time"

	"caligo/caliper"
	"caligo/internal/apps/cleverleaf"
	"caligo/internal/attr"
	"caligo/internal/blackboard"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/snapshot"
)

// streamScheme is the aggregation scheme runtime-stream's channel config
// describes, for the replay's own core.DB.
var streamScheme = core.MustScheme(
	[]string{"function", "annotation", "kernel", "mpi.rank", "iteration#mainloop"},
	[]core.OpSpec{{Kind: core.OpCount}, {Kind: core.OpSum, Target: caliper.DurationAttr}})

// events is the number of annotation calls in one op; with the event
// service on, each takes one snapshot.
func (w *streamWorkload) events() int { return 2*w.pairs + w.pairs/w.perIter + 5 }

// blackboardPass drives a bare blackboard through the op's annotation
// sequence. With snap set it also captures a snapshot before every update,
// as the event service does, appending the timer's immediate entry.
func (w *streamWorkload) blackboardPass(reg *attr.Registry, tree *contexttree.Tree, snap bool) ([]snapshot.Record, error) {
	function := reg.MustCreate("function", attr.String, attr.Nested)
	annotation := reg.MustCreate("annotation", attr.String, attr.Nested)
	kernel := reg.MustCreate("kernel", attr.String, attr.Nested)
	iteration := reg.MustCreate("iteration#mainloop", attr.Int, attr.Nested)
	dur := reg.MustCreate(caliper.DurationAttr, attr.Int, attr.AsValue|attr.Aggregatable|attr.SkipEvents)
	bb := blackboard.New(tree, reg)
	var recs []snapshot.Record
	if snap {
		recs = make([]snapshot.Record, 0, w.events())
	}
	capture := func() {
		if !snap {
			return
		}
		var sb snapshot.Builder
		bb.Snapshot(&sb)
		sb.AddImmediate(dur, attr.IntV(int64(len(recs))))
		recs = append(recs, sb.Record())
	}
	begin := func(a attr.Attribute, v attr.Variant) error { capture(); return bb.Begin(a, v) }
	end := func(a attr.Attribute) error { capture(); return bb.End(a) }
	if err := begin(function, attr.StringV("main")); err != nil {
		return nil, err
	}
	if err := begin(annotation, attr.StringV("computation")); err != nil {
		return nil, err
	}
	for i := 0; i < w.pairs; i++ {
		if i%w.perIter == 0 {
			capture()
			if err := bb.Set(iteration, attr.IntV(int64(i/w.perIter))); err != nil {
				return nil, err
			}
		}
		if err := begin(kernel, attr.StringV(w.kernelOf(i))); err != nil {
			return nil, err
		}
		if err := end(kernel); err != nil {
			return nil, err
		}
	}
	for _, a := range []attr.Attribute{iteration, annotation, function} {
		if err := end(a); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// annotateStage runs the op's annotation calls on a fresh channel with the
// given services as one stage, and returns the channel.
func (w *streamWorkload) annotateStage(op *opSpan, layer, services string) (*caliper.Channel, error) {
	ch, err := caliper.NewChannel(w.config(services))
	if err != nil {
		return nil, err
	}
	th := ch.Thread()
	return ch, op.single(layer, func() (int, error) { return w.events(), w.annotate(th) })
}

// replay: annotate → (blackboard updates + snapshots) → unpack → update →
// flush → write. It returns the time the fused op's steps add up to: the
// annotation calls, what the snapshots add to a bare blackboard pass, and
// the stages after it.
func (w *streamWorkload) replay(op *opSpan) (int64, error) {
	if _, err := w.annotateStage(op, "caliper.annotate_only", ""); err != nil {
		return 0, err
	}
	bare := op.t.layer("blackboard.begin_end")
	bareBefore := bare.callNS
	err := op.single("blackboard.begin_end", func() (int, error) {
		_, err := w.blackboardPass(attr.NewRegistry(), contexttree.New(), false)
		return w.pairs, err
	})
	if err != nil {
		return 0, err
	}
	reg, tree := attr.NewRegistry(), contexttree.New()
	var recs []snapshot.Record
	err = op.single("blackboard.begin_end+snapshot", func() (n int, err error) {
		recs, err = w.blackboardPass(reg, tree, true)
		return len(recs), err
	})
	if err != nil {
		return 0, err
	}
	flats := make([]snapshot.FlatRecord, len(recs))
	err = op.single("snapshot.unpack", func() (n int, err error) {
		for i, r := range recs {
			if flats[i], err = r.Unpack(tree, reg); err != nil {
				return i, err
			}
		}
		return len(recs), nil
	})
	if err != nil {
		return 0, err
	}
	db, err := core.NewDB(streamScheme, reg)
	if err != nil {
		return 0, err
	}
	op.single("core.update", func() (int, error) {
		for _, f := range flats {
			db.Update(f)
		}
		return len(flats), nil
	})
	w.buckets = db.Len()
	var rows []snapshot.FlatRecord
	err = op.single("core.flush", func() (int, error) {
		// the aggregate service's flush: merge the thread databases, emit
		merged, err := core.NewDB(streamScheme, reg)
		if err != nil {
			return 0, err
		}
		if err := merged.Merge(db); err != nil {
			return 0, err
		}
		rows, err = merged.FlushRecords()
		return len(rows), err
	})
	if err != nil {
		return 0, err
	}
	err = op.single("calformat.write", func() (int, error) {
		f, err := os.Create(w.path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		cw := calformat.NewWriter(f, reg, tree)
		for _, r := range rows {
			if err := cw.WriteFlat(r); err != nil {
				return 0, err
			}
		}
		if err := cw.Flush(); err != nil {
			return 0, err
		}
		return len(rows), f.Close()
	})
	if err != nil {
		return 0, err
	}
	// the file the replay wrote must pass the op's check: same tally, one
	// snapshot per annotation call
	return op.stagedNS - 2*(bare.callNS-bareBefore), w.check(&result{units: int64(w.events())})
}

func (w *streamWorkload) layers(t *tracer, budget time.Duration) (map[string]float64, float64, error) {
	m := map[string]float64{}
	deadline := time.Now().Add(budget)
	res, err := w.op()
	if err != nil {
		return nil, 0, err
	}
	if err := w.check(&res); err != nil {
		return nil, 0, err
	}
	m["caliper.snapshots"] = float64(res.units)
	m["caliper.out_records"] = float64(res.rows)

	for rep := 0; rep < subReps; rep++ {
		sub := t.beginOp("sub")
		ch, err := w.annotateStage(sub, "caliper.event_aggregate", "event,timer,aggregate")
		if err != nil {
			return nil, 0, err
		}
		err = sub.single("caliper.flush", func() (int, error) {
			rows, err := ch.Flush()
			return len(rows), err
		})
		if err != nil {
			return nil, 0, err
		}
		if _, err := w.annotateStage(sub, "caliper.event_trace", "event,timer,trace"); err != nil {
			return nil, 0, err
		}
		// context-tree lookups of nodes that exist: the blackboard's hot path
		tree, reg := contexttree.New(), attr.NewRegistry()
		kernel := reg.MustCreate("kernel", attr.String, attr.Nested)
		sub.single("contexttree.getchild", func() (int, error) {
			for i := 0; i < 2*w.pairs; i++ {
				tree.GetChild(contexttree.InvalidNode, kernel, attr.StringV(w.kernels[i%len(w.kernels)]))
			}
			return 2 * w.pairs, nil
		})
		sub.end()
	}

	stagedMS, err := replayUntil(deadline, func() (int64, error) {
		op := t.beginOp("replay")
		defer op.end()
		return w.replay(op)
	})
	if err != nil {
		return nil, 0, err
	}

	bare, snaps := t.layer("blackboard.begin_end"), t.layer("blackboard.begin_end+snapshot")
	m["blackboard.begin_end.ns_per_pair"] = bare.nsPerUnit()
	m["blackboard.snapshot.ns"] = (float64(snaps.callNS)/float64(snaps.calls) - float64(bare.callNS)/float64(bare.calls)) /
		(float64(snaps.units) / float64(snaps.calls))
	m["contexttree.getchild.ns"] = t.layer("contexttree.getchild").nsPerUnit()
	unpack := t.layer("snapshot.unpack")
	m["snapshot.unpack.ns_per_record"] = unpack.nsPerUnit()
	m["snapshot.unpack.allocs_per_record"] = unpack.allocsPerUnit()
	updateMetrics(t, m, w.buckets)
	writeMetrics(t, m, float64(res.outBytes)/float64(res.rows))
	m["caliper.annotate_only.ns_per_snapshot"] = t.layer("caliper.annotate_only").nsPerUnit()
	agg := t.layer("caliper.event_aggregate")
	m["caliper.event_aggregate.ns_per_snapshot"] = agg.nsPerUnit()
	m["caliper.event_aggregate.allocs_per_snapshot"] = agg.allocsPerUnit()
	m["caliper.event_trace.ns_per_snapshot"] = t.layer("caliper.event_trace").nsPerUnit()
	m["caliper.flush.ns_per_bucket"] = t.layer("caliper.flush").nsPerUnit()
	return m, stagedMS, nil
}

// Figure 3's configuration: the CleverLeaf proxy under aggregation scheme
// A in event mode against the same run uninstrumented.
const schemeAKey = "function,annotation,kernel,amr.level,mpi.rank,mpi.function"

func (w *streamWorkload) comparisons() []comparison {
	app := cleverleaf.Config{Ranks: 2, Timesteps: 20, Levels: 3, WorkScale: 1}
	if w.pairs < 25000 { // tiny scale
		app.Timesteps, app.WorkScale = 2, 0.05
	}
	baseline := func() error {
		return cleverleaf.Run(app, func(int) *caliper.Thread { return nil })
	}
	instrumented := func() error {
		channels := make([]*caliper.Channel, app.Ranks)
		for r := range channels {
			ch, err := caliper.NewChannel(caliper.Config{
				"services":      "event,timer,aggregate",
				"aggregate.key": schemeAKey,
				"aggregate.ops": "count,sum(time.duration)",
			})
			if err != nil {
				return err
			}
			channels[r] = ch
		}
		if err := cleverleaf.Run(app, func(rank int) *caliper.Thread { return channels[rank].Thread() }); err != nil {
			return err
		}
		for _, ch := range channels {
			if _, err := ch.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	self := func() error {
		_, err := w.op()
		return err
	}
	return []comparison{
		{metric: "caliper.app_overhead_ratio", num: instrumented, den: baseline, denMS: "caliper.app_baseline_ms"},
		{metric: "obs.enabled_overhead_ratio.runtime", num: observed(self), den: self},
	}
}
