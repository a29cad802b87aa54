package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"caligo/internal/attr"
	"caligo/internal/snapshot"
)

// wireFixture provides a registry whose key attribute is nested, so the
// inclusive_sum operator (which needs a hierarchy) participates in the
// per-kind round-trip matrix alongside the flat operators.
type wireFixture struct {
	reg *attr.Registry
	fn  attr.Attribute
	dur attr.Attribute
}

func newWireFixture(t *testing.T) *wireFixture {
	t.Helper()
	reg := attr.NewRegistry()
	return &wireFixture{
		reg: reg,
		fn:  reg.MustCreate("function", attr.String, attr.Nested),
		dur: reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable),
	}
}

// rec builds a record with a nested function path and a duration value.
func (fx *wireFixture) rec(path []string, dur int64) snapshot.FlatRecord {
	var r snapshot.FlatRecord
	for _, p := range path {
		r = append(r, attr.Entry{Attr: fx.fn, Value: attr.StringV(p)})
	}
	r = append(r, attr.Entry{Attr: fx.dur, Value: attr.IntV(dur)})
	return r
}

// wireOpSchemes enumerates one scheme per operator kind. Keeping each
// kind in its own scheme pins down exactly which accumulator encoding
// broke when a round-trip fails.
func wireOpSchemes() map[string]*Scheme {
	mk := func(op OpSpec) *Scheme {
		return MustScheme([]string{"function"}, []OpSpec{op})
	}
	return map[string]*Scheme{
		"count":         mk(OpSpec{Kind: OpCount}),
		"sum":           mk(OpSpec{Kind: OpSum, Target: "time.duration"}),
		"min":           mk(OpSpec{Kind: OpMin, Target: "time.duration"}),
		"max":           mk(OpSpec{Kind: OpMax, Target: "time.duration"}),
		"avg":           mk(OpSpec{Kind: OpAvg, Target: "time.duration"}),
		"stddev":        mk(OpSpec{Kind: OpStddev, Target: "time.duration"}),
		"histogram":     mk(OpSpec{Kind: OpHistogram, Target: "time.duration", HistMin: 0, HistMax: 128, HistBins: 8}),
		"scount":        mk(OpSpec{Kind: OpScount, Target: "time.duration"}),
		"inclusive_sum": mk(OpSpec{Kind: OpInclusiveSum, Target: "time.duration"}),
	}
}

// wireRecords builds a deterministic mixed population: flat and nested
// call paths, positive and negative durations, and one record missing
// the duration entirely (exercises the scount present/absent split and
// the min/max unseen state).
func wireRecords(fx *wireFixture, n int, seed int64) []snapshot.FlatRecord {
	rng := rand.New(rand.NewSource(seed))
	paths := [][]string{
		{"main"}, {"main", "foo"}, {"main", "foo", "bar"}, {"main", "baz"}, {"foo"},
	}
	recs := make([]snapshot.FlatRecord, 0, n)
	for i := 0; i < n; i++ {
		p := paths[rng.Intn(len(paths))]
		if i%13 == 5 { // no duration value at all
			var r snapshot.FlatRecord
			for _, seg := range p {
				r = append(r, attr.Entry{Attr: fx.fn, Value: attr.StringV(seg)})
			}
			recs = append(recs, r)
			continue
		}
		recs = append(recs, fx.rec(p, int64(rng.Intn(200))-40))
	}
	return recs
}

// TestWireRoundTripPerKind: for EVERY operator kind, splitting the
// record stream, encoding each part, and merging the blobs into a fresh
// DB must flush identically to direct aggregation of the whole stream.
// This is the invariant the query cache rests on: cached per-file state
// merged via the wire must be indistinguishable from a full scan.
func TestWireRoundTripPerKind(t *testing.T) {
	for name, scheme := range wireOpSchemes() {
		scheme := scheme
		t.Run(name, func(t *testing.T) {
			fx := newWireFixture(t)
			recs := wireRecords(fx, 400, 11)

			ref, _ := NewDB(scheme, fx.reg)
			parts := make([]*DB, 3)
			for i := range parts {
				parts[i], _ = NewDB(scheme, fx.reg)
			}
			for i, r := range recs {
				ref.Update(r)
				parts[i%len(parts)].Update(r)
			}

			via, _ := NewDB(scheme, fx.reg)
			for _, p := range parts {
				blob := p.EncodeState()
				// decode into an intermediate first, so the path exercised is
				// encode -> decode -> merge, not just a direct state import
				mid, _ := NewDB(scheme, fx.reg)
				if err := mid.MergeEncodedState(blob); err != nil {
					t.Fatalf("decode part: %v", err)
				}
				if err := via.MergeEncodedState(mid.EncodeState()); err != nil {
					t.Fatalf("merge re-encoded part: %v", err)
				}
			}
			assertSameFlush(t, via, ref)
			if via.processed != ref.processed {
				t.Errorf("Processed = %d, want %d", via.processed, ref.processed)
			}
		})
	}
}

// TestWireRoundTripIdempotentEncode: EncodeState must not mutate the DB —
// encoding twice gives identical bytes, and the DB still flushes the same.
func TestWireRoundTripIdempotentEncode(t *testing.T) {
	fx := newWireFixture(t)
	scheme := MustScheme([]string{"function"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
			{Kind: OpHistogram, Target: "time.duration", HistMin: 0, HistMax: 100, HistBins: 4}})
	db, _ := NewDB(scheme, fx.reg)
	for _, r := range wireRecords(fx, 100, 5) {
		db.Update(r)
	}
	b1 := db.EncodeState()
	b2 := db.EncodeState()
	if string(b1) != string(b2) {
		t.Fatal("EncodeState is not deterministic")
	}
	dst, _ := NewDB(scheme, fx.reg)
	if err := dst.MergeEncodedState(b1); err != nil {
		t.Fatal(err)
	}
	assertSameFlush(t, dst, db)
}

// TestQuickWirePartitionEqualsDirect is the property form: any partition
// of any event stream, round-tripped through the wire, equals direct
// aggregation — across a scheme mixing every accumulator field (count,
// isum, fsum/sumsq, min/max, bins).
func TestQuickWirePartitionEqualsDirect(t *testing.T) {
	fx := newWireFixture(t)
	scheme := MustScheme([]string{"function"},
		[]OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
			{Kind: OpMin, Target: "time.duration"}, {Kind: OpMax, Target: "time.duration"},
			{Kind: OpStddev, Target: "time.duration"},
			{Kind: OpHistogram, Target: "time.duration", HistMin: 0, HistMax: 64, HistBins: 8}})
	f := func(events []uint16, split uint8) bool {
		nParts := int(split%5) + 1
		parts := make([]*DB, nParts)
		for i := range parts {
			parts[i], _ = NewDB(scheme, fx.reg)
		}
		ref, _ := NewDB(scheme, fx.reg)
		for i, ev := range events {
			rec := fx.rec([]string{fmt.Sprintf("f%d", ev%3)}, int64(ev%113)-7)
			parts[i%nParts].Update(rec)
			ref.Update(rec)
		}
		via, _ := NewDB(scheme, fx.reg)
		for _, p := range parts {
			if via.MergeEncodedState(p.EncodeState()) != nil {
				return false
			}
		}
		ra, err1 := via.FlushRecords()
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
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzStateDecode hammers MergeEncodedState with corrupted, truncated,
// and arbitrary byte blobs: it must either return an error or merge
// cleanly — never panic, and never leave the DB unable to flush, whether
// or not the receiver's registry knows the key and target attributes (a
// cache hit or an interior reduction node does not). What it accepts is
// canonical after one hop: encoding the receiver and merging that into an
// empty database encodes to the same bytes. Seeds include a valid encoding
// plus systematic truncations and bit flips, under a one-key and a two-key
// scheme.
func FuzzStateDecode(f *testing.F) {
	reg := attr.NewRegistry()
	fn := reg.MustCreate("function", attr.String, attr.Nested)
	iter := reg.MustCreate("loop.iteration", attr.Int, 0)
	dur := reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable)
	ops := []OpSpec{{Kind: OpCount}, {Kind: OpSum, Target: "time.duration"},
		{Kind: OpHistogram, Target: "time.duration", HistMin: 0, HistMax: 50, HistBins: 4}}
	scheme := MustScheme([]string{"function"}, ops)
	scheme2 := MustScheme([]string{"function", "loop.iteration"}, ops)
	src, _ := NewDB(scheme, reg)
	src2, _ := NewDB(scheme2, reg)
	for i := 0; i < 20; i++ {
		rec := snapshot.FlatRecord{
			{Attr: fn, Value: attr.StringV([]string{"a", "b"}[i%2])},
			{Attr: iter, Value: attr.IntV(int64(i % 3))},
			{Attr: dur, Value: attr.IntV(int64(i * 3))},
		}
		src.Update(rec)
		src2.Update(rec)
	}
	valid := src.EncodeState()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Add([]byte{99, 1, 2, 3})            // wrong version
	f.Add(valid[:1])                      // version byte only
	f.Add(valid[:len(valid)/2])           // mid-stream truncation
	f.Add(valid[:len(valid)-1])           // one byte short
	f.Add(append([]byte{}, valid[1:]...)) // missing version byte
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/3] ^= 0xFF
	f.Add(corrupt)                                                                         // flipped byte mid-stream
	f.Add([]byte{wireVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // huge uvarint op count

	// one bucket with unseen accumulators behind the given key bytes
	oneBucket := func(nKeys int, key ...byte) []byte {
		b := []byte{wireVersion, 3, byte(attr.Uint), byte(attr.Int), byte(attr.Int), byte(nKeys)}
		b = append(b, make([]byte, nKeys)...) // nested flags: unknown
		b = append(b, 1, 0)                   // one bucket, nothing processed
		b = append(b, key...)
		for range ops {
			b = appendAccum(b, &accum{})
		}
		return b
	}
	f.Add(src2.EncodeState())
	// a key group without values: flush has no value to take the key
	// attribute's type from when the registry does not know the attribute
	f.Add(oneBucket(1, 1, 0, 0))
	// key positions out of order: a second spelling of the key {0:a, 1:1}
	f.Add(oneBucket(2, 2, 1, 1, byte(attr.Int), 1, 0, 1, byte(attr.String), 1, 'a'))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, scheme := range []*Scheme{scheme, scheme2} {
			for _, reg := range []*attr.Registry{reg, attr.NewRegistry()} {
				db, err := NewDB(scheme, reg)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.MergeEncodedState(data); err != nil {
					continue // rejected: fine, as long as we did not panic
				}
				// accepted: the DB must still be coherent enough to flush
				if _, err := db.FlushRecords(); err != nil {
					t.Fatalf("accepted blob but flush failed: %v", err)
				}
				once := db.EncodeState()
				hop, _ := NewDB(scheme, reg)
				if err := hop.MergeEncodedState(once); err != nil {
					t.Fatalf("accepted blob but its re-encoding is rejected: %v", err)
				}
				if twice := hop.EncodeState(); !bytes.Equal(once, twice) {
					t.Fatalf("state is not canonical after one hop:\n%x\n%x", once, twice)
				}
			}
		}
	})
}

// TestMergePropagatesWireMetadata: a DB whose contents arrived as encoded
// state (a cache hit, or an interior reduction node) carries its resolved
// target types and nested key flags in wire notes, not in the registry.
// Merging it into a sibling DB must propagate those notes — otherwise the
// receiver resolves targets to the Float fallback (large integer sums
// render in scientific notation) and inclusive hierarchies stop expanding.
func TestMergePropagatesWireMetadata(t *testing.T) {
	fx := newWireFixture(t)
	scheme := MustScheme([]string{"function"},
		[]OpSpec{{Kind: OpSum, Target: "time.duration"},
			{Kind: OpInclusiveSum, Target: "time.duration"}})
	src, _ := NewDB(scheme, fx.reg)
	for _, r := range wireRecords(fx, 200, 3) {
		src.Update(r)
	}
	blob := src.EncodeState()

	// the receiving side's registry never sees the data attributes
	fresh := attr.NewRegistry()
	mid, _ := NewDB(scheme, fresh)
	if err := mid.MergeEncodedState(blob); err != nil {
		t.Fatal(err)
	}
	dst, _ := NewDB(scheme, fresh)
	if err := dst.Merge(mid); err != nil {
		t.Fatal(err)
	}

	// reference: decoding the blob directly keeps the wire metadata
	ref, _ := NewDB(scheme, attr.NewRegistry())
	if err := ref.MergeEncodedState(blob); err != nil {
		t.Fatal(err)
	}
	assertSameFlush(t, dst, ref)

	a, ok := fresh.Find("sum#time.duration")
	if !ok {
		t.Fatal("flush did not create the sum result attribute")
	}
	if a.Type() != attr.Int {
		t.Errorf("sum result type = %v, want Int (wire type lost in Merge)", a.Type())
	}
}
