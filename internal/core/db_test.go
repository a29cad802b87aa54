package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"caligo/internal/attr"
	"caligo/internal/snapshot"
)

// dbFixture provides a registry with the attributes used by most DB tests.
type dbFixture struct {
	reg  *attr.Registry
	fn   attr.Attribute
	iter attr.Attribute
	dur  attr.Attribute
}

func newDBFixture(t *testing.T) *dbFixture {
	t.Helper()
	reg := attr.NewRegistry()
	return &dbFixture{
		reg:  reg,
		fn:   reg.MustCreate("function", attr.String, attr.Nested),
		iter: reg.MustCreate("loop.iteration", attr.Int, 0),
		dur:  reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable),
	}
}

func (fx *dbFixture) rec(fn string, iter int64, dur int64) snapshot.FlatRecord {
	var r snapshot.FlatRecord
	if fn != "" {
		r = append(r, attr.Entry{Attr: fx.fn, Value: attr.StringV(fn)})
	}
	if iter >= 0 {
		r = append(r, attr.Entry{Attr: fx.iter, Value: attr.IntV(iter)})
	}
	r = append(r, attr.Entry{Attr: fx.dur, Value: attr.IntV(dur)})
	return r
}

// listing1Records reproduces the event stream of the paper's Listing 1
// example: a 4-iteration loop calling foo(1), foo(2), bar(1) per iteration,
// with durations chosen to match the paper's result table (each foo event
// 10, each iteration also has one record without function, duration 10;
// foo appears 2x per iteration with total 40 in the paper — we use the
// table's numbers: per iteration, foo count=2 sum=20; bar count=1 sum=10;
// no-function count=1 sum=10... the paper's first row, count=3 sum=40,
// is the loop-iteration-only row).
func listing1Records(fx *dbFixture) []snapshot.FlatRecord {
	var recs []snapshot.FlatRecord
	for it := int64(0); it < 4; it++ {
		recs = append(recs,
			fx.rec("foo", it, 10),
			fx.rec("foo", it, 10),
			fx.rec("bar", it, 10),
			fx.rec("", it, 10), // end-of-iteration event, no function active
		)
	}
	return recs
}

func TestListing1Example(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme(
		[]string{"function", "loop.iteration"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"}},
	)
	db, err := NewDB(scheme, fx.reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range listing1Records(fx) {
		db.Update(r)
	}
	// 2 functions x 4 iterations + 4 no-function rows = 12 groups
	if db.Len() != 12 {
		t.Errorf("Len = %d, want 12", db.Len())
	}
	recs, err := db.FlushRecords()
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ count, sum int64 }
	got := map[string]row{}
	for _, r := range recs {
		fn, _ := r.GetByName("function")
		it, _ := r.GetByName("loop.iteration")
		cnt, _ := r.GetByName("aggregate.count")
		sum, _ := r.GetByName("sum#time.duration")
		got[fn.String()+"/"+it.String()] = row{cnt.AsInt(), sum.AsInt()}
	}
	wants := map[string]row{
		"foo/0": {2, 20}, "bar/0": {1, 10}, "/0": {1, 10},
		"foo/3": {2, 20}, "bar/3": {1, 10}, "/3": {1, 10},
	}
	for k, w := range wants {
		if got[k] != w {
			t.Errorf("row %q = %+v, want %+v", k, got[k], w)
		}
	}
}

func TestCompactSchemeDropsIteration(t *testing.T) {
	// Removing loop.iteration from the key (the paper's "more compact
	// result") folds iterations together.
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"}})
	db, _ := NewDB(scheme, fx.reg)
	for _, r := range listing1Records(fx) {
		db.Update(r)
	}
	if db.Len() != 3 { // foo, bar, (none)
		t.Errorf("Len = %d, want 3", db.Len())
	}
	recs, _ := db.FlushRecords()
	for _, r := range recs {
		fn, _ := r.GetByName("function")
		cnt, _ := r.GetByName("aggregate.count")
		sum, _ := r.GetByName("sum#time.duration")
		switch fn.String() {
		case "foo":
			if cnt.AsInt() != 8 || sum.AsInt() != 80 {
				t.Errorf("foo: count=%v sum=%v, want 8/80", cnt, sum)
			}
		case "bar":
			if cnt.AsInt() != 4 || sum.AsInt() != 40 {
				t.Errorf("bar: count=%v sum=%v, want 4/40", cnt, sum)
			}
		}
	}
}

func TestNestedPathFormsKey(t *testing.T) {
	// Records with nested function stacks group by the full path.
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function"}, []OpSpec{{Kind: OpCount}})
	db, _ := NewDB(scheme, fx.reg)
	mk := func(path ...string) snapshot.FlatRecord {
		var r snapshot.FlatRecord
		for _, p := range path {
			r = append(r, attr.Entry{Attr: fx.fn, Value: attr.StringV(p)})
		}
		return r
	}
	db.Update(mk("main"))
	db.Update(mk("main", "foo"))
	db.Update(mk("main", "foo"))
	db.Update(mk("foo")) // different from main/foo!
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (main, main/foo, foo)", db.Len())
	}
	recs, _ := db.FlushRecords()
	counts := map[string]int64{}
	for _, r := range recs {
		c, _ := r.GetByName("aggregate.count")
		counts[r.PathOf(fx.fn.ID(), "/")] = c.AsInt()
	}
	if counts["main"] != 1 || counts["main/foo"] != 2 || counts["foo"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestReaggregationComposes(t *testing.T) {
	// Aggregating the flushed output of a first aggregation must give the
	// same totals (Section VI-B workflow: sum(aggregate.count)).
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function", "loop.iteration"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
			{Kind: OpMin, Target: "time.duration"}, {Kind: OpMax, Target: "time.duration"}})
	db1, _ := NewDB(scheme, fx.reg)
	rng := rand.New(rand.NewSource(7))
	type agg struct{ cnt, sum, min, max int64 }
	ref := map[string]*agg{}
	fns := []string{"foo", "bar", "baz", ""}
	for i := 0; i < 1000; i++ {
		fn := fns[rng.Intn(len(fns))]
		d := int64(rng.Intn(100))
		db1.Update(fx.rec(fn, -1, d))
		a := ref[fn]
		if a == nil {
			a = &agg{min: 1 << 62, max: -1}
			ref[fn] = a
		}
		a.cnt++
		a.sum += d
		if d < a.min {
			a.min = d
		}
		if d > a.max {
			a.max = d
		}
	}
	interm, err := db1.FlushRecords()
	if err != nil {
		t.Fatal(err)
	}
	// second stage: drop iteration, re-aggregate
	scheme2 := MustScheme([]string{"function"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
			{Kind: OpMin, Target: "time.duration"}, {Kind: OpMax, Target: "time.duration"}})
	db2, _ := NewDB(scheme2, fx.reg)
	for _, r := range interm {
		db2.Update(r)
	}
	final, err := db2.FlushRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(ref) {
		t.Fatalf("final rows = %d, want %d", len(final), len(ref))
	}
	for _, r := range final {
		fn, _ := r.GetByName("function")
		a := ref[fn.String()]
		if a == nil {
			t.Fatalf("unexpected group %q", fn)
		}
		cnt, _ := r.GetByName("aggregate.count")
		sum, _ := r.GetByName("sum#time.duration")
		lo, _ := r.GetByName("min#time.duration")
		hi, _ := r.GetByName("max#time.duration")
		if cnt.AsInt() != a.cnt || sum.AsInt() != a.sum || lo.AsInt() != a.min || hi.AsInt() != a.max {
			t.Errorf("group %q: got c=%v s=%v min=%v max=%v, want %+v", fn, cnt, sum, lo, hi, *a)
		}
	}
}

func TestMergeEqualsSequential(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
			{Kind: OpAvg, Target: "time.duration"}, {Kind: OpStddev, Target: "time.duration"}})
	mk := func() *DB { db, _ := NewDB(scheme, fx.reg); return db }
	dbA, dbB, dbRef := mk(), mk(), mk()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		r := fx.rec([]string{"a", "b", "c"}[rng.Intn(3)], -1, int64(rng.Intn(50)))
		if i%2 == 0 {
			dbA.Update(r)
		} else {
			dbB.Update(r)
		}
		dbRef.Update(r)
	}
	if err := dbA.Merge(dbB); err != nil {
		t.Fatal(err)
	}
	assertSameFlush(t, dbA, dbRef)
	if dbA.processed != 500 {
		t.Errorf("Processed = %d, want 500", dbA.processed)
	}
}

// assertSameFlush flushes both DBs and compares output records textually.
func assertSameFlush(t *testing.T, a, b *DB) {
	t.Helper()
	ra, err := a.FlushRecords()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.FlushRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("row counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].String() != rb[i].String() {
			t.Errorf("row %d: %s vs %s", i, ra[i], rb[i])
		}
	}
}

func TestMergeSchemeMismatch(t *testing.T) {
	fx := newDBFixture(t)
	db1, _ := NewDB(MustScheme([]string{"function"}, []OpSpec{{Kind: OpCount}}), fx.reg)
	db2, _ := NewDB(MustScheme([]string{"loop.iteration"}, []OpSpec{{Kind: OpCount}}), fx.reg)
	if err := db1.Merge(db2); err == nil {
		t.Error("merging different schemes should error")
	}
}

func TestWireRoundTrip(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function", "loop.iteration"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
			{Kind: OpMin, Target: "time.duration"}, {Kind: OpMax, Target: "time.duration"},
			{Kind: OpHistogram, Target: "time.duration", HistMin: 0, HistMax: 100, HistBins: 8}})
	src, _ := NewDB(scheme, fx.reg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		src.Update(fx.rec([]string{"x", "y", ""}[rng.Intn(3)], int64(rng.Intn(4)), int64(rng.Intn(100))))
	}
	blob := src.EncodeState()

	// decode into a DB backed by a DIFFERENT registry (attribute ids will
	// differ) — the wire format must be registry-independent.
	reg2 := attr.NewRegistry()
	reg2.MustCreate("unrelated", attr.Int, 0) // shift ids
	reg2.MustCreate("function", attr.String, attr.Nested)
	reg2.MustCreate("loop.iteration", attr.Int, 0)
	reg2.MustCreate("time.duration", attr.Int, attr.AsValue)
	dst, _ := NewDB(scheme, reg2)
	if err := dst.MergeEncodedState(blob); err != nil {
		t.Fatal(err)
	}
	ra, _ := src.FlushRecords()
	rb, _ := dst.FlushRecords()
	if len(ra) != len(rb) {
		t.Fatalf("row counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].String() != rb[i].String() {
			t.Errorf("row %d differs:\n  src %s\n  dst %s", i, ra[i], rb[i])
		}
	}
	if dst.processed != src.processed {
		t.Errorf("Processed: %d vs %d", dst.processed, src.processed)
	}
}

func TestWireMergeAccumulates(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function"}, []OpSpec{{Kind: OpCount}})
	a, _ := NewDB(scheme, fx.reg)
	a.Update(fx.rec("f", -1, 1))
	blob := a.EncodeState()
	b, _ := NewDB(scheme, fx.reg)
	b.Update(fx.rec("f", -1, 1))
	if err := b.MergeEncodedState(blob); err != nil {
		t.Fatal(err)
	}
	recs, _ := b.FlushRecords()
	if len(recs) != 1 {
		t.Fatalf("rows = %d", len(recs))
	}
	c, _ := recs[0].GetByName("aggregate.count")
	if c.AsInt() != 2 {
		t.Errorf("count = %v, want 2", c)
	}
}

func TestWireDecodeErrors(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function"}, []OpSpec{{Kind: OpCount}})
	db, _ := NewDB(scheme, fx.reg)
	db.Update(fx.rec("f", -1, 1))
	blob := db.EncodeState()

	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, blob[1:]...),
		"truncated":   blob[:len(blob)/2],
		"op mismatch": {wireVersion, 7, 0, 0},
	}
	for name, data := range cases {
		dst, _ := NewDB(scheme, fx.reg)
		if err := dst.MergeEncodedState(data); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

func TestFlushDeterministicOrder(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function"}, []OpSpec{{Kind: OpCount}})
	db, _ := NewDB(scheme, fx.reg)
	for _, fn := range []string{"c", "a", "b", "a", "c"} {
		db.Update(fx.rec(fn, -1, 1))
	}
	r1, _ := db.FlushRecords()
	r2, _ := db.FlushRecords()
	for i := range r1 {
		if r1[i].String() != r2[i].String() {
			t.Fatalf("flush not deterministic: %s vs %s", r1[i], r2[i])
		}
	}
}

func TestClearResets(t *testing.T) {
	fx := newDBFixture(t)
	db, _ := NewDB(MustScheme([]string{"function"}, []OpSpec{{Kind: OpCount}}), fx.reg)
	db.Update(fx.rec("f", -1, 1))
	db.Clear()
	if db.Len() != 0 || db.processed != 0 {
		t.Error("Clear did not reset")
	}
	recs, _ := db.FlushRecords()
	if len(recs) != 0 {
		t.Error("flush after Clear should be empty")
	}
}

func TestScountAndScountReagg(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function"},
		[]OpSpec{{Kind: OpScount, Target: "loop.iteration"}})
	db, _ := NewDB(scheme, fx.reg)
	db.Update(fx.rec("f", 1, 10))  // iteration present
	db.Update(fx.rec("f", -1, 10)) // absent
	db.Update(fx.rec("f", 3, 10))  // present
	recs, _ := db.FlushRecords()
	sc, ok := recs[0].GetByName("scount#loop.iteration")
	if !ok || sc.AsInt() != 2 {
		t.Errorf("scount = %v,%v; want 2", sc, ok)
	}
	// re-aggregate
	db2, _ := NewDB(scheme, fx.reg)
	for _, r := range recs {
		db2.Update(r)
	}
	recs2, _ := db2.FlushRecords()
	sc2, _ := recs2[0].GetByName("scount#loop.iteration")
	if sc2.AsInt() != 2 {
		t.Errorf("re-aggregated scount = %v, want 2", sc2)
	}
}

func TestSchemeValidation(t *testing.T) {
	if _, err := NewScheme([]string{"a"}, nil); err == nil {
		t.Error("no ops should error")
	}
	if _, err := NewScheme([]string{"a", "a"}, []OpSpec{{Kind: OpCount}}); err == nil {
		t.Error("duplicate key should error")
	}
	if _, err := NewScheme([]string{""}, []OpSpec{{Kind: OpCount}}); err == nil {
		t.Error("empty key label should error")
	}
	if _, err := NewScheme(nil, []OpSpec{{Kind: OpCount}, {Kind: OpCount}}); err == nil {
		t.Error("duplicate result name should error")
	}
	if _, err := NewScheme([]string{"x"}, []OpSpec{{Kind: OpSum, Target: "x"}}); err == nil {
		t.Error("attribute in both key and aggregation should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustScheme should panic on invalid scheme")
		}
	}()
	MustScheme(nil, nil)
}

func TestSchemeStringAndEqual(t *testing.T) {
	s := MustScheme([]string{"function", "loop.iteration"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time"}})
	want := "AGGREGATE count, sum(time) GROUP BY function, loop.iteration"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
	s2 := MustScheme([]string{"function", "loop.iteration"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time"}})
	if !s.Equal(s2) {
		t.Error("equal schemes reported unequal")
	}
	s3 := MustScheme([]string{"function"}, []OpSpec{{Kind: OpCount}})
	if s.Equal(s3) {
		t.Error("different schemes reported equal")
	}
}

// TestQuickMergeEqualsConcat is the central correctness property of
// cross-process aggregation: merging partial DBs must equal aggregating
// the concatenated record stream, for arbitrary splits.
func TestQuickMergeEqualsConcat(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function", "loop.iteration"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
			{Kind: OpMin, Target: "time.duration"}, {Kind: OpMax, Target: "time.duration"},
			{Kind: OpAvg, Target: "time.duration"}})
	f := func(events []uint32, split uint8) bool {
		nParts := int(split%7) + 1
		parts := make([]*DB, nParts)
		for i := range parts {
			parts[i], _ = NewDB(scheme, fx.reg)
		}
		ref, _ := NewDB(scheme, fx.reg)
		for i, ev := range events {
			fn := fmt.Sprintf("f%d", ev%5)
			rec := fx.rec(fn, int64(ev/5%3), int64(ev%97))
			parts[i%nParts].Update(rec)
			ref.Update(rec)
		}
		merged := parts[0]
		for _, p := range parts[1:] {
			if err := merged.Merge(p); err != nil {
				return false
			}
		}
		ra, err1 := merged.FlushRecords()
		rb, err2 := ref.FlushRecords()
		if err1 != nil || err2 != nil || len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i].String() != rb[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickWireEqualsMerge: wire round-trip must be equivalent to Merge.
func TestQuickWireEqualsMerge(t *testing.T) {
	fx := newDBFixture(t)
	scheme := MustScheme([]string{"function"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
			{Kind: OpStddev, Target: "time.duration"}})
	f := func(events []uint16) bool {
		a, _ := NewDB(scheme, fx.reg)
		b, _ := NewDB(scheme, fx.reg)
		viaMerge, _ := NewDB(scheme, fx.reg)
		viaWire, _ := NewDB(scheme, fx.reg)
		for i, ev := range events {
			rec := fx.rec(fmt.Sprintf("f%d", ev%4), -1, int64(ev%31))
			if i%2 == 0 {
				a.Update(rec)
			} else {
				b.Update(rec)
			}
		}
		if viaMerge.Merge(a) != nil || viaMerge.Merge(b) != nil {
			return false
		}
		if viaWire.MergeEncodedState(a.EncodeState()) != nil ||
			viaWire.MergeEncodedState(b.EncodeState()) != nil {
			return false
		}
		ra, _ := viaMerge.FlushRecords()
		rb, _ := viaWire.FlushRecords()
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i].String() != rb[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
