package calformat

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// writeIndexedFixture writes a multi-block .cali file through an
// IndexingWriter and returns its path together with the writer-built
// index (already persisted as the sidecar).
func writeIndexedFixture(t *testing.T, nRecords, blockRecords int) (string, *Index) {
	t.Helper()
	fx := newFixture(t)
	path := filepath.Join(t.TempDir(), "data.cali")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	iw := NewIndexingWriter(f, fx.reg, fx.tree, IndexOptions{BlockRecords: blockRecords})
	if err := iw.WriteGlobals([]attr.Entry{
		{Attr: fx.fn, Value: attr.StringV("index-test")},
	}); err != nil {
		t.Fatal(err)
	}
	paths := [][]string{{"main"}, {"main", "solve"}, {"main", "solve", "mpi"}}
	for i := 0; i < nRecords; i++ {
		rec := fx.makeRecord(paths[i%len(paths)], int64(i), float64(i)*1.5)
		if err := iw.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := iw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteIndexFile(path, idx); err != nil {
		t.Fatal(err)
	}
	return path, idx
}

// TestIndexWriterMatchesStandaloneIndexer pins the two construction
// paths to each other: indexing while writing must produce exactly the
// index that re-indexing the finished file produces.
func TestIndexWriterMatchesStandaloneIndexer(t *testing.T) {
	path, wIdx := writeIndexedFixture(t, 1000, 64)
	rIdx, err := BuildFileIndex(path, IndexOptions{BlockRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wIdx, rIdx) {
		t.Errorf("writer-built and reader-built indexes differ:\nwriter: %+v\nreader: %+v", wIdx, rIdx)
	}
}

func TestIndexEncodeDecodeRoundTrip(t *testing.T) {
	path, idx := writeIndexedFixture(t, 500, 100)
	got, err := ReadIndexFile(IndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, got) {
		t.Errorf("round trip changed the index:\nwrote: %+v\nread:  %+v", idx, got)
	}
}

func TestIndexBlockInvariants(t *testing.T) {
	path, idx := writeIndexedFixture(t, 1000, 64)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if idx.FileSize != st.Size() {
		t.Fatalf("FileSize = %d, file is %d bytes", idx.FileSize, st.Size())
	}
	if idx.Records != 1000 {
		t.Errorf("Records = %d, want 1000", idx.Records)
	}
	// 1000 records at 64/block: 15 full blocks + one 40-record tail
	if len(idx.Blocks) != 16 {
		t.Errorf("len(Blocks) = %d, want 16", len(idx.Blocks))
	}
	off := int64(0)
	var recs uint64
	for i, b := range idx.Blocks {
		if b.Offset != off {
			t.Fatalf("block %d starts at %d, want %d", i, b.Offset, off)
		}
		off += b.Length
		recs += b.Records
		for _, z := range b.Zones {
			if z.Attr < 0 || z.Attr >= len(idx.Attrs) {
				t.Fatalf("block %d: zone attr %d out of range", i, z.Attr)
			}
		}
	}
	if off != idx.FileSize || recs != idx.Records {
		t.Errorf("blocks cover %d bytes / %d records, want %d / %d",
			off, recs, idx.FileSize, idx.Records)
	}
	// the iteration attribute is numeric and strictly increasing: each
	// block's zone must bound exactly its own record range
	ai := idx.AttrIndex("iteration")
	if ai < 0 {
		t.Fatal("iteration attribute not in index")
	}
	lo := 0.0
	for i, b := range idx.Blocks {
		z := b.Zone(ai)
		if z == nil {
			t.Fatalf("block %d has no iteration zone", i)
		}
		hi := lo + float64(b.Records) - 1
		if z.Min != lo || z.Max != hi {
			t.Errorf("block %d iteration zone [%g,%g], want [%g,%g]", i, z.Min, z.Max, lo, hi)
		}
		lo = hi + 1
	}
}

func TestLoadIndexDetectsStaleness(t *testing.T) {
	path, _ := writeIndexedFixture(t, 200, 50)
	if _, err := LoadIndex(path); err != nil {
		t.Fatalf("fresh index did not load: %v", err)
	}
	if _, err := VerifyIndex(path); err != nil {
		t.Fatalf("fresh index did not verify: %v", err)
	}

	// appending changes the length -> stale
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("__rec=ctx,attr=0,data=1\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadIndex(path); err == nil || !isStale(err) {
		t.Fatalf("appended file: err = %v, want ErrIndexStale", err)
	}
}

func TestLoadIndexDetectsSameLengthEdit(t *testing.T) {
	path, _ := writeIndexedFixture(t, 200, 50)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// flip one byte near the start, keeping the length
	b[10] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(path); err == nil || !isStale(err) {
		t.Fatalf("edited file: err = %v, want ErrIndexStale", err)
	}
}

// TestCheckIdentity walks one file through the three verdicts the index
// and the query-state cache share.
func TestCheckIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.cali")
	body := []byte("__rec=ctx,attr=0,data=1\n")
	check := func(n int64, hash uint64) Identity {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		id, err := CheckIdentity(f, n, hash)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	n, hash, err := QuickHash(f)
	f.Close()
	if err != nil || n != int64(len(body)) {
		t.Fatalf("QuickHash = (%d, %v), want size %d", n, err, len(body))
	}
	if id := check(n, hash); id != Same {
		t.Errorf("untouched file: %v, want Same", id)
	}
	if id := check(n, hash+1); id != Changed {
		t.Errorf("wrong hash: %v, want Changed", id)
	}
	if id := check(-1, hash); id != Changed {
		t.Errorf("negative size: %v, want Changed", id)
	}
	if err := os.WriteFile(path, append(append([]byte{}, body...), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	if id := check(n, hash); id != Grown {
		t.Errorf("appended file: %v, want Grown", id)
	}
	if err := os.WriteFile(path, body[:n-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if id := check(n, hash); id != Changed {
		t.Errorf("truncated file: %v, want Changed", id)
	}
	edited := append(append([]byte{}, body...), body...)
	edited[3] ^= 1
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if id := check(n, hash); id != Changed {
		t.Errorf("grown file with an edited prefix: %v, want Changed", id)
	}
}

func TestDecodeIndexRejectsDamage(t *testing.T) {
	path, idx := writeIndexedFixture(t, 200, 50)
	enc := idx.Encode()

	if _, err := DecodeIndex(enc[:len(enc)-3]); err == nil || !isCorrupt(err) {
		t.Errorf("truncated index: err = %v, want ErrIndexCorrupt", err)
	}
	if _, err := DecodeIndex(enc[:4]); err == nil || !isCorrupt(err) {
		t.Errorf("short index: err = %v, want ErrIndexCorrupt", err)
	}
	bad := append([]byte{}, enc...)
	bad[len(indexMagic)+3] ^= 0xff // corrupt a header byte
	if _, err := DecodeIndex(bad); err == nil || !isCorrupt(err) {
		t.Errorf("bit-flipped index: err = %v, want ErrIndexCorrupt", err)
	}

	// a version bump re-encodes cleanly but must be rejected
	idx2 := *idx
	idx2.Version = IndexVersion + 1
	if _, err := DecodeIndex(idx2.Encode()); err == nil || !isVersion(err) {
		t.Errorf("future version: err = %v, want ErrIndexVersion", err)
	}
	_ = path
}

// TestZoneMapNaNWidensBounds: a NaN value must force unbounded numeric
// zones (NaN compares equal to everything in the engine, so no range
// check may exclude it).
func TestZoneMapNaNWidensBounds(t *testing.T) {
	reg := attr.NewRegistry()
	tree := contexttree.New()
	val := reg.MustCreate("val", attr.Float, attr.AsValue)
	path := filepath.Join(t.TempDir(), "nan.cali")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	iw := NewIndexingWriter(f, reg, tree, IndexOptions{BlockRecords: 10})
	for _, v := range []float64{1, 2, math.NaN(), 3} {
		if err := iw.WriteFlat(snapshot.FlatRecord{{Attr: val, Value: attr.FloatV(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := iw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	z := idx.Blocks[0].Zone(idx.AttrIndex("val"))
	if z == nil || !z.HasNum {
		t.Fatalf("no numeric zone: %+v", idx.Blocks[0])
	}
	if !math.IsInf(z.Min, -1) || !math.IsInf(z.Max, 1) {
		t.Errorf("NaN zone bounds [%g,%g], want [-Inf,+Inf]", z.Min, z.Max)
	}
}

func TestZoneMapStringOverflow(t *testing.T) {
	reg := attr.NewRegistry()
	tree := contexttree.New()
	name := reg.MustCreate("name", attr.String, 0)
	path := filepath.Join(t.TempDir(), "str.cali")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	iw := NewIndexingWriter(f, reg, tree, IndexOptions{BlockRecords: 100, MaxDistinct: 4})
	for i := 0; i < 20; i++ {
		v := attr.StringV(string(rune('a' + i%8))) // 8 distinct > 4 max
		if err := iw.WriteFlat(snapshot.FlatRecord{{Attr: name, Value: v}}); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := iw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	z := idx.Blocks[0].Zone(idx.AttrIndex("name"))
	if z == nil {
		t.Fatal("no zone")
	}
	if !z.Overflow || len(z.Strs) != 0 {
		t.Errorf("zone = %+v, want overflowed with no strings", z)
	}
	if z.Count != 20 {
		t.Errorf("zone count = %d, want 20", z.Count)
	}
}

// TestReaderBlockNavigation drives the scan primitives the query layer
// composes: SkipTo over pure-record blocks, ScanMetaUntil over blocks
// holding definitions, SetLimit to stop at boundaries — decoding only
// the chosen block must yield exactly the records a full scan sees in
// that range.
func TestReaderBlockNavigation(t *testing.T) {
	path, idx := writeIndexedFixture(t, 300, 32)

	// full scan reference
	full := decodeAll(t, path, 0, 0, -1)

	for bi := range idx.Blocks {
		b := idx.Blocks[bi]
		if b.Records == 0 {
			continue
		}
		start := uint64(0)
		for _, pb := range idx.Blocks[:bi] {
			start += pb.Records
		}
		got := decodeBlock(t, path, idx, bi)
		want := full[start : start+b.Records]
		if len(got) != len(want) {
			t.Fatalf("block %d: %d records, want %d", bi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block %d record %d:\ngot  %s\nwant %s", bi, i, got[i], want[i])
			}
		}
	}
}

// decodeAll renders every record of the file to its String form.
func decodeAll(t *testing.T, path string, skipTo, limit int64, maxRecs int) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := NewReader(f, attr.NewRegistry(), contexttree.New())
	if skipTo > 0 {
		t.Fatal("decodeAll does not skip")
	}
	if limit > 0 {
		rd.SetLimit(limit)
	}
	var out []string
	var rec snapshot.FlatRecord
	for maxRecs != 0 {
		err := rd.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextInto: %v", err)
		}
		out = append(out, rec.String())
		maxRecs--
	}
	return out
}

// decodeBlock reads just one block: earlier blocks are passed with
// ScanMetaUntil when they hold definitions and SkipTo otherwise.
func decodeBlock(t *testing.T, path string, idx *Index, bi int) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := NewReader(f, attr.NewRegistry(), contexttree.New())
	for _, b := range idx.Blocks[:bi] {
		end := b.Offset + b.Length
		if b.MetaLines > 0 {
			if err := rd.ScanMetaUntil(end); err != nil {
				t.Fatalf("ScanMetaUntil(%d): %v", end, err)
			}
		} else {
			if err := rd.SkipTo(end); err != nil {
				t.Fatalf("SkipTo(%d): %v", end, err)
			}
		}
	}
	b := idx.Blocks[bi]
	rd.SetLimit(b.Offset + b.Length)
	var out []string
	var rec snapshot.FlatRecord
	for {
		err := rd.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextInto in block %d: %v", bi, err)
		}
		out = append(out, rec.String())
	}
	return out
}

// TestReaderProjection: projected decoding must return exactly the kept
// attributes' entries, in original order, and still count records whose
// every entry is projected away.
func TestReaderProjection(t *testing.T) {
	path, _ := writeIndexedFixture(t, 100, 50)
	full := decodeAllEntries(t, path, nil)
	proj := decodeAllEntries(t, path, map[string]bool{"function": true, "iteration": true})
	if len(full) != len(proj) {
		t.Fatalf("projection changed record count: %d -> %d", len(full), len(proj))
	}
	for i := range full {
		var want []attr.Entry
		for _, e := range full[i] {
			if n := e.Attr.Name(); n == "function" || n == "iteration" {
				want = append(want, e)
			}
		}
		got := proj[i]
		if len(got) != len(want) {
			t.Fatalf("record %d: %d entries, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].Attr.Name() != want[j].Attr.Name() ||
				attr.Compare(got[j].Value, want[j].Value) != 0 {
				t.Fatalf("record %d entry %d: got %v, want %v", i, j, got[j], want[j])
			}
		}
	}

	// projecting everything away must keep the records (empty), since
	// AGGREGATE count counts them
	none := decodeAllEntries(t, path, map[string]bool{"no.such.attr": true})
	if len(none) != len(full) {
		t.Fatalf("full projection dropped records: %d -> %d", len(none), len(full))
	}
	for i, r := range none {
		if len(r) != 0 {
			t.Fatalf("record %d not empty under full projection: %v", i, r)
		}
	}
}

func decodeAllEntries(t *testing.T, path string, keep map[string]bool) []snapshot.FlatRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := NewReader(f, attr.NewRegistry(), contexttree.New())
	if keep != nil {
		rd.SetProjection(keep)
	}
	var out []snapshot.FlatRecord
	var rec snapshot.FlatRecord
	for {
		err := rd.NextInto(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextInto: %v", err)
		}
		out = append(out, rec.Clone())
	}
	return out
}

func isStale(err error) bool   { return errors.Is(err, ErrIndexStale) }
func isCorrupt(err error) bool { return errors.Is(err, ErrIndexCorrupt) }
func isVersion(err error) bool { return errors.Is(err, ErrIndexVersion) }
