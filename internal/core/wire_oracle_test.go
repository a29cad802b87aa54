package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/snapshot"
	"caligo/internal/testutil"
)

// oracleMergeEncodedState is the decoder MergeEncodedState replaced, kept
// as the oracle for it: every key value is decoded into a Variant, the key
// groups are collected, and the canonical key is rebuilt from them with
// AppendEncoded. It accepts a superset of what the streaming decoder does
// (it tolerates empty and out-of-order key groups); on everything EncodeState
// can produce, and on any re-spelling of that with non-minimal varints, the
// two must leave equal databases.
func oracleMergeEncodedState(db *DB, data []byte) error {
	r := &wireReader{buf: data}
	if v := r.byte(); r.err == nil && v != wireVersion {
		return fmt.Errorf("version %d", v)
	}
	nops := r.uvarint()
	if r.err == nil && nops != uint64(len(db.scheme.Ops)) {
		return fmt.Errorf("%d ops", nops)
	}
	for i := 0; i < int(nops) && r.err == nil; i++ {
		db.noteWireType(i, attr.Type(r.byte()))
	}
	nKeys := r.uvarint()
	if r.err == nil && nKeys != uint64(len(db.scheme.Key)) {
		return fmt.Errorf("%d key attributes", nKeys)
	}
	for i := 0; i < int(nKeys) && r.err == nil; i++ {
		db.noteWireNested(i, r.byte())
	}
	nBuckets := r.uvarint()
	processed := r.uvarint()
	if r.err == nil && nBuckets > uint64(len(r.buf)-r.pos) {
		return fmt.Errorf("implausible bucket count %d", nBuckets)
	}
	accs := make([]accum, len(db.scheme.Ops))
	for bi := uint64(0); bi < nBuckets && r.err == nil; bi++ {
		nGroups := r.uvarint()
		if r.err == nil && nGroups > uint64(len(db.scheme.Key)) {
			return fmt.Errorf("%d key groups", nGroups)
		}
		var groups []keyGroup
		for gi := uint64(0); gi < nGroups && r.err == nil; gi++ {
			pos := r.uvarint()
			nVals := r.uvarint()
			if r.err == nil && nVals > uint64(len(r.buf)-r.pos) {
				return fmt.Errorf("implausible value count %d", nVals)
			}
			vals := make([]attr.Variant, 0, nVals)
			for vi := uint64(0); vi < nVals && r.err == nil; vi++ {
				vals = append(vals, r.variant())
			}
			groups = append(groups, keyGroup{pos: int(pos), values: vals})
		}
		for i := range accs {
			db.decodeAccum(r, &accs[i])
			accs[i].bins = append([]uint64(nil), accs[i].bins...)
		}
		if r.err != nil {
			return r.err
		}
		var key []byte
		for _, g := range groups {
			if g.pos < 0 || g.pos >= len(db.scheme.Key) {
				return fmt.Errorf("key position %d out of range", g.pos)
			}
			key = binary.AppendUvarint(key, uint64(g.pos))
			key = binary.AppendUvarint(key, uint64(len(g.values)))
			for _, v := range g.values {
				key = v.AppendEncoded(key)
			}
		}
		b, ok := db.buckets[string(key)]
		if !ok {
			b = db.newBucket(string(key), len(groups))
		}
		for i := range accs {
			b.accs[i].merge(&db.scheme.Ops[i], &accs[i])
		}
	}
	if r.err != nil {
		return r.err
	}
	db.processed += processed
	return nil
}

// padUvarint is binary.AppendUvarint with pad redundant continuation
// bytes: a non-minimal spelling binary.Uvarint reads as the same value.
func padUvarint(buf []byte, v uint64, pad int) []byte {
	at := len(buf)
	buf = binary.AppendUvarint(buf, v)
	if n := len(buf) - at; pad > 0 && n+pad <= binary.MaxVarintLen64 {
		buf[len(buf)-1] |= 0x80
		for i := 1; i < pad; i++ {
			buf = append(buf, 0x80)
		}
		buf = append(buf, 0x00)
	}
	return buf
}

// respell re-encodes db's state as EncodeState does, but with the varints
// of every key — positions, value counts, string lengths, numeric payloads —
// padded at random. The accumulators are copied as they are.
func respell(t *testing.T, db *DB, rng *rand.Rand) []byte {
	t.Helper()
	pad := func(buf []byte, v uint64) []byte { return padUvarint(buf, v, rng.Intn(3)) }
	buf := []byte{wireVersion}
	buf = binary.AppendUvarint(buf, uint64(len(db.scheme.Ops)))
	for i := range db.scheme.Ops {
		buf = append(buf, byte(db.targetType(i)))
	}
	buf = binary.AppendUvarint(buf, uint64(len(db.scheme.Key)))
	for range db.scheme.Key {
		buf = append(buf, 0)
	}
	buf = pad(buf, uint64(db.Len()))
	buf = pad(buf, db.processed)
	for _, b := range db.sortedBuckets() {
		groups, err := db.decodeKeyGroups(b.key)
		if err != nil {
			t.Fatal(err)
		}
		buf = pad(buf, uint64(len(groups)))
		for _, g := range groups {
			buf = pad(buf, uint64(g.pos))
			buf = pad(buf, uint64(len(g.values)))
			for _, v := range g.values {
				enc := v.AppendEncoded(nil)
				buf = append(buf, enc[0])
				switch v.Kind() {
				case attr.Inv:
				case attr.String:
					buf = pad(buf, uint64(len(v.String())))
					buf = append(buf, v.String()...)
				default:
					bits, _ := binary.Uvarint(enc[1:])
					buf = pad(buf, bits)
				}
			}
		}
		for i := range b.accs {
			buf = appendAccum(buf, &b.accs[i])
		}
	}
	return buf
}

// oracleFixture has key attributes of every value type a key can take.
type oracleFixture struct {
	reg                          *attr.Registry
	fn, iter, ratio, flag, label attr.Attribute
	dur                          attr.Attribute
}

func newOracleFixture() *oracleFixture {
	reg := attr.NewRegistry()
	return &oracleFixture{
		reg:   reg,
		fn:    reg.MustCreate("function", attr.String, attr.Nested),
		iter:  reg.MustCreate("iteration", attr.Int, attr.AsValue),
		ratio: reg.MustCreate("ratio", attr.Float, attr.AsValue),
		flag:  reg.MustCreate("flag", attr.Bool, attr.AsValue),
		label: reg.MustCreate("label", attr.String, 0),
		dur:   reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable),
	}
}

var oracleKey = []string{"function", "iteration", "ratio", "flag", "label"}

// records generates n records: nested function paths of depth 0–3, each of
// the other key attributes present or absent, a long label now and then
// (a two-byte length varint), negative and large iterations and durations.
func (fx *oracleFixture) records(rng *rand.Rand, n int) []snapshot.FlatRecord {
	recs := make([]snapshot.FlatRecord, n)
	for i := range recs {
		var r snapshot.FlatRecord
		for d := rng.Intn(4); d > 0; d-- {
			r = append(r, attr.Entry{Attr: fx.fn, Value: attr.StringV(fmt.Sprintf("f%d", rng.Intn(3)))})
		}
		if rng.Intn(3) > 0 {
			r = append(r, attr.Entry{Attr: fx.iter, Value: attr.IntV(int64(rng.Intn(5)) - 2)})
		}
		if rng.Intn(3) == 0 {
			r = append(r, attr.Entry{Attr: fx.ratio, Value: attr.FloatV(float64(rng.Intn(4)) / 4)})
		}
		if rng.Intn(2) == 0 {
			r = append(r, attr.Entry{Attr: fx.flag, Value: attr.BoolV(rng.Intn(2) == 0)})
		}
		switch rng.Intn(8) {
		case 0:
			r = append(r, attr.Entry{Attr: fx.label, Value: attr.StringV("")})
		case 1:
			r = append(r, attr.Entry{Attr: fx.label, Value: attr.StringV(string(bytes.Repeat([]byte{'x'}, 200)))})
		}
		if rng.Intn(10) > 0 {
			r = append(r, attr.Entry{Attr: fx.dur, Value: attr.IntV(int64(rng.Intn(1<<20)) - 500)})
		}
		recs[i] = r
	}
	return recs
}

// TestStreamingMergeMatchesOracle: for generated databases under every
// operator kind, merging the state — as EncodeState spells it and re-spelled
// with non-minimal varints — through the streaming decoder and through the
// oracle gives byte-identical EncodeState output, into an empty database
// and into one that already holds half of the keys; and what the streaming
// decoder re-encodes is EncodeState's own spelling again.
func TestStreamingMergeMatchesOracle(t *testing.T) {
	for name, one := range wireOpSchemes() {
		scheme := MustScheme(oracleKey, one.Ops)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			fx := newOracleFixture()
			for round := 0; round < 20; round++ {
				recs := fx.records(rng, 1+rng.Intn(120))
				src, _ := NewDB(scheme, fx.reg)
				half, _ := NewDB(scheme, fx.reg)
				for i, r := range recs {
					src.Update(r)
					if i%2 == 0 {
						half.Update(r)
					}
				}
				canonical := src.EncodeState()
				if len(canonical) != cap(canonical) {
					t.Errorf("EncodeState sized its buffer %d for %d bytes", cap(canonical), len(canonical))
				}
				respelled := respell(t, src, rng)
				if len(recs) > 20 && len(respelled) <= len(canonical) {
					t.Fatalf("round %d: the re-spelled blob has no padded varint", round)
				}
				for _, blob := range [][]byte{canonical, respelled} {
					for _, seed := range [][]byte{nil, half.EncodeState()} {
						got, _ := NewDB(scheme, attr.NewRegistry())
						want, _ := NewDB(scheme, attr.NewRegistry())
						for _, s := range [][]byte{seed, blob} {
							if s == nil {
								continue
							}
							if err := got.MergeEncodedState(s); err != nil {
								t.Fatalf("streaming merge: %v", err)
							}
							if err := oracleMergeEncodedState(want, s); err != nil {
								t.Fatalf("oracle merge: %v", err)
							}
						}
						if !bytes.Equal(got.EncodeState(), want.EncodeState()) {
							t.Fatalf("round %d: streaming and oracle merges encode differently", round)
						}
						if seed == nil {
							// same header as src would need src's registry;
							// compare the buckets, which follow the header
							hdr := 1 + 1 + len(scheme.Ops) + 1 + len(scheme.Key)
							if !bytes.Equal(got.EncodeState()[hdr:], canonical[hdr:]) {
								t.Fatalf("round %d: one hop did not restore the canonical spelling", round)
							}
						}
					}
				}
			}
		})
	}
}

// TestWireAllocBudget pins the codec's allocation behaviour: merging a
// blob whose keys all exist allocates nothing (keys are re-encoded into the
// database's lookup buffer, accumulators and histogram bins decoded into
// its scratch), and an encode allocates its exactly sized buffer and
// nothing else.
func TestWireAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	fx := newOracleFixture()
	scheme := MustScheme(oracleKey, []OpSpec{
		{Kind: OpCount},
		{Kind: OpSum, Target: "time.duration"},
		{Kind: OpMin, Target: "time.duration"},
		{Kind: OpMax, Target: "time.duration"},
		{Kind: OpHistogram, Target: "time.duration", HistMin: 0, HistMax: 1 << 20, HistBins: 8},
	})
	src, _ := NewDB(scheme, fx.reg)
	for _, r := range fx.records(rand.New(rand.NewSource(3)), 2000) {
		src.Update(r)
	}
	blob := src.EncodeState()
	dst, _ := NewDB(scheme, attr.NewRegistry())
	if err := dst.MergeEncodedState(blob); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := dst.MergeEncodedState(blob); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MergeEncodedState over existing keys allocates %v objects per run, want 0", allocs)
	}
	var sink []byte
	if allocs := testing.AllocsPerRun(20, func() { sink = dst.EncodeState() }); allocs != 1 {
		t.Errorf("EncodeState allocates %v objects per run, want 1 (its buffer)", allocs)
	}
	if len(sink) != cap(sink) {
		t.Errorf("EncodeState sized its buffer %d for %d bytes", cap(sink), len(sink))
	}
	// behind a prefix it has no room for, the one allocation is exact too
	framed := dst.AppendState([]byte("prefix"))
	if string(framed[:6]) != "prefix" || !bytes.Equal(framed[6:], sink) || len(framed) != cap(framed) {
		t.Errorf("AppendState after a 6-byte prefix: %d bytes in a buffer of %d, state equal: %v",
			len(framed), cap(framed), bytes.Equal(framed[6:], sink))
	}
}

// TestWireRejectsForeignKeyShapes: bucketFor writes key groups in ascending
// position order and only groups that have values, so that is the only key
// shape the decoder takes. An empty group used to be accepted and panicked
// in Flush (no value to type a key attribute the registry has not seen);
// groups out of order made a second bucket for one logical key.
func TestWireRejectsForeignKeyShapes(t *testing.T) {
	scheme := MustScheme([]string{"function", "loop.iteration"}, []OpSpec{{Kind: OpCount}})
	blob := func(key ...byte) []byte {
		b := []byte{wireVersion, 1, byte(attr.Uint), 2, 0, 0, 1, 0}
		return appendAccum(append(b, key...), &accum{count: 1})
	}
	str, i64 := byte(attr.String), byte(attr.Int)
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"canonical", "", blob(2, 0, 1, str, 1, 'a', 1, 1, i64, 4)},
		{"second position only", "", blob(1, 1, 1, i64, 4)},
		{"no groups", "", blob(0)},
		{"empty group", "has no values", blob(1, 0, 0)},
		{"empty second group", "has no values", blob(2, 0, 1, str, 1, 'a', 1, 0)},
		{"descending positions", "not in ascending order", blob(2, 1, 1, i64, 4, 0, 1, str, 1, 'a')},
		{"repeated position", "not in ascending order", blob(2, 0, 1, str, 1, 'a', 0, 1, str, 1, 'b')},
		{"position past the key", "out of range", blob(1, 2, 1, i64, 4)},
	}
	for _, c := range cases {
		db, _ := NewDB(scheme, attr.NewRegistry())
		err := db.MergeEncodedState(c.data)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.want)
		}
		if err == nil {
			if _, err := db.FlushRecords(); err != nil {
				t.Errorf("%s: flush: %v", c.name, err)
			}
		}
	}
}
