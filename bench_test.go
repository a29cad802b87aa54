// Package caligo's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation, plus ablation benchmarks for the
// design decisions called out in DESIGN.md §5.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks execute a scaled-down instance of the
// corresponding experiment per iteration; their relative ns/op across
// configurations mirrors the paper's comparisons (who wins, by what
// factor). cmd/experiments regenerates the full-size tables and figures.
package caligo

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"testing"

	"caligo/caliper"
	"caligo/internal/apps/cleverleaf"
	"caligo/internal/apps/paradis"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/core"
	"caligo/internal/experiments"
	"caligo/internal/mpi"
	"caligo/internal/pquery"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Figure 3: on-line aggregation overhead. One sub-benchmark per
// measurement configuration; ns/op is the wall time of a small CleverLeaf
// proxy run under that configuration.

func benchApp() cleverleaf.Config {
	return cleverleaf.Config{Ranks: 2, Timesteps: 8, Levels: 3, WorkScale: 0.3}
}

func runConfigured(b *testing.B, services string, key string, sampled bool) {
	b.Helper()
	app := benchApp()
	for i := 0; i < b.N; i++ {
		channels := make([]*caliper.Channel, app.Ranks)
		if services != "" {
			cfg := caliper.Config{
				"services":      services,
				"aggregate.key": key,
				"aggregate.ops": "count,sum(time.duration)",
			}
			if sampled {
				cfg["sampler.frequency"] = "500"
			}
			for r := range channels {
				ch, err := caliper.NewChannel(cfg)
				if err != nil {
					b.Fatal(err)
				}
				channels[r] = ch
			}
		}
		err := cleverleaf.Run(app, func(rank int) *caliper.Thread {
			if channels[rank] == nil {
				return nil
			}
			return channels[rank].Thread()
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, ch := range channels {
			if ch != nil {
				if _, err := ch.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

const (
	keySchemeA = "function,annotation,kernel,amr.level,mpi.rank,mpi.function"
	keySchemeB = "kernel,mpi.function"
	keySchemeC = "function,annotation,kernel,amr.level,mpi.rank,mpi.function,iteration#mainloop"
)

func BenchmarkFigure3Baseline(b *testing.B) {
	runConfigured(b, "", "", false)
}

func BenchmarkFigure3TraceEvent(b *testing.B) {
	runConfigured(b, "event,timer,trace", "", false)
}

func BenchmarkFigure3SchemeAEvent(b *testing.B) {
	runConfigured(b, "event,timer,aggregate", keySchemeA, false)
}

func BenchmarkFigure3SchemeBEvent(b *testing.B) {
	runConfigured(b, "event,timer,aggregate", keySchemeB, false)
}

func BenchmarkFigure3SchemeCEvent(b *testing.B) {
	runConfigured(b, "event,timer,aggregate", keySchemeC, false)
}

func BenchmarkFigure3SchemeASampled(b *testing.B) {
	runConfigured(b, "sampler,timer,aggregate", keySchemeA, true)
}

// ---------------------------------------------------------------------------
// Table I: the per-snapshot cost of the on-line aggregation service under
// the three schemes — the mechanism behind the overhead differences.

func benchSnapshotStream(b *testing.B, key string) {
	b.Helper()
	ch, err := caliper.NewChannel(caliper.Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": key,
		"aggregate.ops": "count,sum(time.duration)",
	})
	if err != nil {
		b.Fatal(err)
	}
	th := ch.Thread()
	th.Begin("function", "main")
	th.Begin("annotation", "computation")
	kernels := []string{"calc-dt", "advec-mom", "pdv", "viscosity"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Set("iteration#mainloop", i%100)
		th.Begin("kernel", kernels[i%len(kernels)])
		th.End("kernel")
	}
	b.StopTimer()
	th.End("annotation")
	th.End("function")
	if _, err := ch.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTableISchemeAUpdate(b *testing.B) { benchSnapshotStream(b, keySchemeA) }
func BenchmarkTableISchemeBUpdate(b *testing.B) { benchSnapshotStream(b, keySchemeB) }
func BenchmarkTableISchemeCUpdate(b *testing.B) { benchSnapshotStream(b, keySchemeC) }

// ---------------------------------------------------------------------------
// Figure 4: the parallel cross-process query at increasing world sizes.
// ns/op grows ~logarithmically with ranks (the reduce phase), on top of a
// constant local phase.

func benchParallelQuery(b *testing.B, ranks int) {
	b.Helper()
	ds := paradis.Config{Kernels: 20, MPIFunctions: 10, Iterations: 10, ExtraRecords: 4}
	provider := func(rank int) (io.ReadCloser, error) {
		var buf bytes.Buffer
		if err := paradis.WriteRank(&buf, rank, ds); err != nil {
			return nil, err
		}
		return io.NopCloser(&buf), nil
	}
	query := "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel, mpi.function WHERE not(phase)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world, err := mpi.NewWorld(ranks)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pquery.Run(world, query, provider); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4Ranks1(b *testing.B)  { benchParallelQuery(b, 1) }
func BenchmarkFigure4Ranks4(b *testing.B)  { benchParallelQuery(b, 4) }
func BenchmarkFigure4Ranks16(b *testing.B) { benchParallelQuery(b, 16) }
func BenchmarkFigure4Ranks64(b *testing.B) { benchParallelQuery(b, 64) }

// ---------------------------------------------------------------------------
// Figures 5-9: the case-study analyses. Each benchmark measures one full
// generate-profile-and-query cycle at reduced scale (the experiments
// command runs them at paper scale with shape checks).

func benchCaseStudy(b *testing.B, run func(experiments.CaseStudyConfig) (*experiments.Report, error)) {
	b.Helper()
	cfg := experiments.CaseStudyConfig{
		App: cleverleaf.Config{Ranks: 10, Timesteps: 12, Levels: 3,
			WorkScale: 0.5, VirtualTime: true},
		SampleHz: 2000,
	}
	for i := 0; i < b.N; i++ {
		rep, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Lines) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFigure5KernelSampling(b *testing.B) { benchCaseStudy(b, experiments.Figure5) }
func BenchmarkFigure6MPIProfile(b *testing.B)     { benchCaseStudy(b, experiments.Figure6) }
func BenchmarkFigure7LoadBalance(b *testing.B)    { benchCaseStudy(b, experiments.Figure7) }
func BenchmarkFigure8AMRPerTimestep(b *testing.B) { benchCaseStudy(b, experiments.Figure8) }
func BenchmarkFigure9AMRPerRank(b *testing.B)     { benchCaseStudy(b, experiments.Figure9) }

// ---------------------------------------------------------------------------
// Ablation 1 (DESIGN.md §5.1): collision-free canonical key encoding vs a
// 64-bit FNV hash key. The hash variant is faster per lookup but cannot
// reconstruct keys at flush time and admits silent collisions; the
// benchmark quantifies what the correctness guarantee costs.

// benchRecords builds a workload of records with a realistic key mix.
func benchRecords(reg *attr.Registry) []snapshot.FlatRecord {
	fn := reg.MustCreate("function", attr.String, attr.Nested)
	iter := reg.MustCreate("iteration", attr.Int, 0)
	dur := reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable)
	names := []string{"main", "foo", "bar", "baz", "qux"}
	var recs []snapshot.FlatRecord
	for i := 0; i < 512; i++ {
		recs = append(recs, snapshot.FlatRecord{
			{Attr: fn, Value: attr.StringV(names[i%len(names)])},
			{Attr: fn, Value: attr.StringV(names[(i/5)%len(names)])},
			{Attr: iter, Value: attr.IntV(int64(i % 16))},
			{Attr: dur, Value: attr.IntV(int64(i))},
		})
	}
	return recs
}

func BenchmarkAblationKeyEncodingCanonical(b *testing.B) {
	reg := attr.NewRegistry()
	recs := benchRecords(reg)
	scheme := core.MustScheme([]string{"function", "iteration"},
		[]core.OpSpec{{Kind: core.OpCount}, {Kind: core.OpSum, Target: "time.duration"}})
	db, err := core.NewDB(scheme, reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Update(recs[i%len(recs)])
	}
}

// fnvDB is the hash-key alternative: buckets keyed by a 64-bit FNV of the
// same canonical bytes (collisions possible, keys not reconstructible).
type fnvDB struct {
	fnID, iterID attr.ID
	durID        attr.ID
	buckets      map[uint64]*fnvBucket
	buf          []byte
}

type fnvBucket struct {
	count uint64
	sum   int64
}

func (db *fnvDB) update(rec snapshot.FlatRecord) {
	db.buf = db.buf[:0]
	var dur int64
	for _, e := range rec {
		switch e.Attr.ID() {
		case db.fnID, db.iterID:
			db.buf = e.Value.AppendEncoded(db.buf)
		case db.durID:
			dur = e.Value.AsInt()
		}
	}
	h := fnv.New64a()
	h.Write(db.buf)
	k := h.Sum64()
	bk := db.buckets[k]
	if bk == nil {
		bk = &fnvBucket{}
		db.buckets[k] = bk
	}
	bk.count++
	bk.sum += dur
}

func BenchmarkAblationKeyEncodingFNVHash(b *testing.B) {
	reg := attr.NewRegistry()
	recs := benchRecords(reg)
	fn, _ := reg.Find("function")
	iter, _ := reg.Find("iteration")
	dur, _ := reg.Find("time.duration")
	db := &fnvDB{fnID: fn.ID(), iterID: iter.ID(), durID: dur.ID(),
		buckets: map[uint64]*fnvBucket{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.update(recs[i%len(recs)])
	}
}

// ---------------------------------------------------------------------------
// Ablation 2 (DESIGN.md §5.2): per-thread aggregation databases (merged at
// flush) vs a single mutex-guarded shared database. The paper chooses
// per-thread databases to avoid locks on the hot path.

func BenchmarkAblationPerThreadDBs(b *testing.B) {
	reg := attr.NewRegistry()
	recs := benchRecords(reg)
	scheme := core.MustScheme([]string{"function"},
		[]core.OpSpec{{Kind: core.OpCount}, {Kind: core.OpSum, Target: "time.duration"}})
	const workers = 4
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db, _ := core.NewDB(scheme, reg)
			for i := 0; i < per; i++ {
				db.Update(recs[i%len(recs)])
			}
		}()
	}
	wg.Wait()
}

func BenchmarkAblationSharedLockedDB(b *testing.B) {
	reg := attr.NewRegistry()
	recs := benchRecords(reg)
	scheme := core.MustScheme([]string{"function"},
		[]core.OpSpec{{Kind: core.OpCount}, {Kind: core.OpSum, Target: "time.duration"}})
	db, _ := core.NewDB(scheme, reg)
	var mu sync.Mutex
	const workers = 4
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				mu.Lock()
				db.Update(recs[i%len(recs)])
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Ablation 3 (DESIGN.md §5.3): flat-struct accumulators with a kind switch
// (the implementation) vs interface-dispatched accumulator objects.

// ifaceAccum is the interface-based alternative.
type ifaceAccum interface {
	update(v attr.Variant)
}

type ifaceCount struct{ n uint64 }

func (a *ifaceCount) update(attr.Variant) { a.n++ }

type ifaceSum struct{ s int64 }

func (a *ifaceSum) update(v attr.Variant) { a.s += v.AsInt() }

type ifaceMin struct {
	v    attr.Variant
	seen bool
}

func (a *ifaceMin) update(v attr.Variant) {
	if !a.seen || attr.Compare(v, a.v) < 0 {
		a.v = v
		a.seen = true
	}
}

func BenchmarkAblationOpDispatchStructSwitch(b *testing.B) {
	reg := attr.NewRegistry()
	recs := benchRecords(reg)
	scheme := core.MustScheme([]string{"function"},
		[]core.OpSpec{{Kind: core.OpCount}, {Kind: core.OpSum, Target: "time.duration"},
			{Kind: core.OpMin, Target: "time.duration"}})
	db, _ := core.NewDB(scheme, reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Update(recs[i%len(recs)])
	}
}

func BenchmarkAblationOpDispatchInterface(b *testing.B) {
	reg := attr.NewRegistry()
	recs := benchRecords(reg)
	fn, _ := reg.Find("function")
	dur, _ := reg.Find("time.duration")
	buckets := map[string][]ifaceAccum{}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := recs[i%len(recs)]
		buf = buf[:0]
		var dv attr.Variant
		for _, e := range rec {
			if e.Attr.ID() == fn.ID() {
				buf = e.Value.AppendEncoded(buf)
			} else if e.Attr.ID() == dur.ID() {
				dv = e.Value
			}
		}
		accs, ok := buckets[string(buf)]
		if !ok {
			accs = []ifaceAccum{&ifaceCount{}, &ifaceSum{}, &ifaceMin{}}
			buckets[string(buf)] = accs
		}
		accs[0].update(dv)
		accs[1].update(dv)
		accs[2].update(dv)
	}
}

// ---------------------------------------------------------------------------
// Ablation 4 (DESIGN.md §5.4): reduction-tree fan-in. The paper's binary
// tree minimizes per-level messages; wider trees trade fewer levels for
// more sequential merges per node. Virtual reduce time is the metric that
// matters; this benchmark reports wall time of the full run and prints the
// virtual reduce time per fan-in under -v.

func benchFanin(b *testing.B, fanin int) {
	b.Helper()
	ds := paradis.Config{Kernels: 20, MPIFunctions: 10, Iterations: 5, ExtraRecords: 0}
	provider := func(rank int) (io.ReadCloser, error) {
		var buf bytes.Buffer
		if err := paradis.WriteRank(&buf, rank, ds); err != nil {
			return nil, err
		}
		return io.NopCloser(&buf), nil
	}
	query := "AGGREGATE sum(sum#time.duration) GROUP BY kernel, mpi.function"
	var lastReduce float64
	for i := 0; i < b.N; i++ {
		world, err := mpi.NewWorld(64)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pquery.RunFanin(world, query, provider, fanin)
		if err != nil {
			b.Fatal(err)
		}
		lastReduce = res.Timing.ReduceVirt
	}
	b.ReportMetric(lastReduce/1e3, "virtual-reduce-us")
}

func BenchmarkAblationReduceFanin2(b *testing.B)  { benchFanin(b, 2) }
func BenchmarkAblationReduceFanin4(b *testing.B)  { benchFanin(b, 4) }
func BenchmarkAblationReduceFanin8(b *testing.B)  { benchFanin(b, 8) }
func BenchmarkAblationReduceFanin16(b *testing.B) { benchFanin(b, 16) }

// ---------------------------------------------------------------------------
// Ablation 5 (DESIGN.md §5.5): context-tree-compressed snapshot encoding
// vs flat per-record key:value encoding in the .cali stream.

func benchStreamRecords() (*attr.Registry, *contexttree.Tree, []snapshot.Record) {
	reg := attr.NewRegistry()
	tree := contexttree.New()
	fn := reg.MustCreate("function", attr.String, attr.Nested)
	iter := reg.MustCreate("iteration", attr.Int, 0)
	dur := reg.MustCreate("time.duration", attr.Int, attr.AsValue)
	names := []string{"main", "solver", "smoother", "residual"}
	var recs []snapshot.Record
	for i := 0; i < 256; i++ {
		var sb snapshot.Builder
		n := contexttree.InvalidNode
		for d := 0; d <= i%3; d++ {
			n = tree.GetChild(n, fn, attr.StringV(names[(i+d)%len(names)]))
		}
		sb.AddNode(n)
		sb.AddNode(tree.GetChild(contexttree.InvalidNode, iter, attr.IntV(int64(i%8))))
		sb.AddImmediate(dur, attr.IntV(int64(i)))
		recs = append(recs, sb.Record())
	}
	return reg, tree, recs
}

func BenchmarkAblationSnapshotEncodingTree(b *testing.B) {
	reg, tree, recs := benchStreamRecords()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := calformat.NewWriter(&buf, reg, tree)
		for _, r := range recs {
			if err := w.WriteRecord(r); err != nil {
				b.Fatal(err)
			}
		}
		w.Flush()
		total = buf.Len()
	}
	b.ReportMetric(float64(total)/float64(len(recs)), "bytes/record")
}

func BenchmarkAblationSnapshotEncodingFlat(b *testing.B) {
	reg, tree, recs := benchStreamRecords()
	flats := make([]snapshot.FlatRecord, len(recs))
	for i, r := range recs {
		f, err := r.Unpack(tree, reg)
		if err != nil {
			b.Fatal(err)
		}
		flats[i] = f
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := calformat.NewWriter(&buf, reg, tree)
		for _, f := range flats {
			if err := w.WriteFlat(f); err != nil {
				b.Fatal(err)
			}
		}
		w.Flush()
		total = buf.Len()
	}
	b.ReportMetric(float64(total)/float64(len(recs)), "bytes/record")
}

// ---------------------------------------------------------------------------
// sanity: the bench package compiles against the public API surface too.
func BenchmarkQuickstartPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ch, err := caliper.NewChannel(caliper.Config{
			"services":      "event,timer,aggregate",
			"aggregate.key": "function,loop.iteration",
			"aggregate.ops": "count,sum(time.duration)",
		})
		if err != nil {
			b.Fatal(err)
		}
		th := ch.Thread()
		for it := 0; it < 4; it++ {
			th.Begin("loop.iteration", it)
			th.Begin("function", "foo")
			th.End("function")
			th.Begin("function", "bar")
			th.End("function")
			th.End("loop.iteration")
		}
		rows, err := ch.Flush()
		if err != nil || len(rows) == 0 {
			b.Fatalf("flush: %v (%d rows)", err, len(rows))
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits

// ---------------------------------------------------------------------------
// Self-instrumentation overhead: the same Table I snapshot stream with
// telemetry collection off (the default — every metric mutator is a
// single atomic load) and on. Compare ns/op between the two:
//
//	go test -bench=TelemetryOverhead -benchmem
//
// The Disabled variant is the cost every uninstrumented user pays; it
// should be indistinguishable from the pre-telemetry baseline (<2%).

func benchTelemetryState(b *testing.B, on bool) {
	b.Helper()
	prev := telemetry.SetEnabled(on)
	b.Cleanup(func() { telemetry.SetEnabled(prev) })
	benchSnapshotStream(b, keySchemeB)
}

func BenchmarkTelemetryOverheadDisabled(b *testing.B) { benchTelemetryState(b, false) }
func BenchmarkTelemetryOverheadEnabled(b *testing.B)  { benchTelemetryState(b, true) }
