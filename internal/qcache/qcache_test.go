package qcache

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/telemetry"
)

func sampleEntry() *Entry {
	return &Entry{
		Plan:       "caligo-plan-v1|let:|where:|groupby:\"kernel\"|ops:\"count\"",
		File:       "/data/rank00.cali",
		Watermark:  123456,
		PrefixHash: 0xdeadbeefcafe,
		Records:    789,
		MetaSpans:  []Span{{0, 512}, {4096, 128}},
		State:      []byte{1, 2, 3, 4, 5},
	}
}

func entriesEqual(a, b *Entry) bool {
	if a.Plan != b.Plan || a.File != b.File || a.Watermark != b.Watermark ||
		a.PrefixHash != b.PrefixHash || a.Records != b.Records ||
		len(a.MetaSpans) != len(b.MetaSpans) || string(a.State) != string(b.State) {
		return false
	}
	for i := range a.MetaSpans {
		if a.MetaSpans[i] != b.MetaSpans[i] {
			return false
		}
	}
	return true
}

func TestEntryRoundTrip(t *testing.T) {
	for name, e := range map[string]*Entry{
		"full":  sampleEntry(),
		"empty": {Plan: "p", File: "/f", Watermark: 1},
		"no-spans": {Plan: "plan", File: "/file", Watermark: 10,
			PrefixHash: 7, Records: 3, State: []byte("statestate")},
	} {
		got, err := DecodeEntry(e.Encode())
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !entriesEqual(got, e) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, e)
		}
	}
}

// reseal recomputes the trailing checksum over body and appends it —
// for crafting entries that pass the checksum but fail later checks.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, calformat.Checksum(body))
}

func TestEntryDecodeCorrupt(t *testing.T) {
	valid := sampleEntry().Encode()

	// every single-byte flip must be rejected (the checksum covers the
	// whole body, and flipping checksum bytes breaks the comparison)
	for i := 0; i < len(valid); i += 7 {
		bad := append([]byte{}, valid...)
		bad[i] ^= 0xFF
		if _, err := DecodeEntry(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// truncations
	for _, n := range []int{0, 3, len(entryMagic), len(valid) / 2, len(valid) - 1} {
		if _, err := DecodeEntry(valid[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncate to %d: err = %v, want ErrCorrupt", n, err)
		}
	}
	// resealed body with trailing garbage: checksum passes, length check trips
	body := append([]byte{}, valid[:len(valid)-4]...)
	body = append(body, 0, 0, 0)
	if _, err := DecodeEntry(reseal(body)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
}

func TestEntryDecodeVersion(t *testing.T) {
	body := append([]byte{}, entryMagic...)
	body = binary.AppendUvarint(body, 99)
	if _, err := DecodeEntry(reseal(body)); !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}

	// a version-1 entry as the FNV-1a format sealed it: its version is
	// read before the checksum, which it cannot pass
	v1 := append([]byte{}, entryMagic...)
	v1 = binary.AppendUvarint(v1, 1)
	v1 = append(v1, sampleEntry().Encode()[len(v1):len(v1)+20]...)
	h := fnv.New64a()
	h.Write(v1)
	v1 = binary.LittleEndian.AppendUint64(v1, h.Sum64())
	if _, err := DecodeEntry(v1); !errors.Is(err, ErrVersion) {
		t.Errorf("version-1 entry: err = %v, want ErrVersion", err)
	}
}

func mustParse(t *testing.T, s string) *calql.Query {
	t.Helper()
	q, err := calql.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return q
}

func TestCanonicalPlan(t *testing.T) {
	base := CanonicalPlan(mustParse(t,
		"AGGREGATE count, sum(time.duration) WHERE mpi.rank < 4 WHERE kernel = advec GROUP BY kernel"))

	// WHERE order is commutative: swapped conditions fingerprint the same
	swapped := CanonicalPlan(mustParse(t,
		"AGGREGATE count, sum(time.duration) WHERE kernel = advec WHERE mpi.rank < 4 GROUP BY kernel"))
	if swapped != base {
		t.Errorf("WHERE order changed the fingerprint:\n%s\n%s", base, swapped)
	}

	// post-merge clauses (SELECT / ORDER BY / LIMIT / FORMAT) are excluded
	decorated := CanonicalPlan(mustParse(t,
		"SELECT kernel, aggregate.count AS n AGGREGATE count, sum(time.duration) "+
			"WHERE mpi.rank < 4 WHERE kernel = advec GROUP BY kernel "+
			"ORDER BY kernel DESC LIMIT 3 FORMAT json"))
	if decorated != base {
		t.Errorf("post-merge clauses changed the fingerprint:\n%s\n%s", base, decorated)
	}

	// anything that shapes per-file state must change the fingerprint
	for _, qs := range []string{
		"AGGREGATE count, sum(time.duration) WHERE mpi.rank < 4 WHERE kernel = advec GROUP BY mpi.rank",
		"AGGREGATE count WHERE mpi.rank < 4 WHERE kernel = advec GROUP BY kernel",
		"AGGREGATE count, sum(time.duration) WHERE mpi.rank < 5 WHERE kernel = advec GROUP BY kernel",
		"LET ms = scale(time.duration, 0.001) AGGREGATE count, sum(time.duration) WHERE mpi.rank < 4 WHERE kernel = advec GROUP BY kernel",
	} {
		if got := CanonicalPlan(mustParse(t, qs)); got == base {
			t.Errorf("distinct query %q collided with base fingerprint", qs)
		}
	}

	// aggregate op ORDER is preserved (it shapes the state layout)
	a := CanonicalPlan(mustParse(t, "AGGREGATE count, sum(time.duration) GROUP BY kernel"))
	b := CanonicalPlan(mustParse(t, "AGGREGATE sum(time.duration), count GROUP BY kernel"))
	if a == b {
		t.Error("aggregate op order should change the fingerprint")
	}
}

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutLookup(t *testing.T) {
	s := openTestStore(t)
	e := sampleEntry()
	if got := s.Lookup(e.Plan, e.File); got != nil {
		t.Fatalf("lookup before put = %+v, want nil", got)
	}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got := s.Lookup(e.Plan, e.File)
	if got == nil {
		t.Fatal("lookup after put = nil")
	}
	if !entriesEqual(got, e) {
		t.Errorf("lookup = %+v, want %+v", got, e)
	}
	// a different plan is a different slot
	if got := s.Lookup(e.Plan+"x", e.File); got != nil {
		t.Errorf("lookup with different plan = %+v, want nil", got)
	}
	// overwrite replaces the state
	e2 := *e
	e2.Watermark = 999
	e2.State = []byte("new state")
	if err := s.Put(&e2); err != nil {
		t.Fatal(err)
	}
	if got := s.Lookup(e.Plan, e.File); got == nil || got.Watermark != 999 {
		t.Errorf("overwritten entry = %+v, want watermark 999", got)
	}
}

func TestStoreLookupCorruptEntry(t *testing.T) {
	s := openTestStore(t)
	e := sampleEntry()
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	p := s.entryPath(e.Plan, e.File)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	fallbacks := TelFallback.Value()
	if got := s.Lookup(e.Plan, e.File); got != nil {
		t.Fatalf("corrupt entry served: %+v", got)
	}
	if TelFallback.Value() != fallbacks+1 {
		t.Errorf("fallback counter = %d, want %d", TelFallback.Value(), fallbacks+1)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed from disk")
	}
}

// putSized stores an entry with a state blob of roughly n bytes under a
// distinct file key, backdated so eviction order is deterministic.
func putSized(t *testing.T, s *Store, file string, n int, mtime time.Time) {
	t.Helper()
	e := &Entry{Plan: "p", File: file, Watermark: 1, State: make([]byte, n)}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	p := s.entryPath("p", file)
	if err := os.Chtimes(p, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

func TestStoreEvictionLRU(t *testing.T) {
	s := openTestStore(t)
	now := time.Now()
	putSized(t, s, "/data/a.cali", 4096, now.Add(-3*time.Hour))
	putSized(t, s, "/data/b.cali", 4096, now.Add(-2*time.Hour))
	putSized(t, s, "/data/c.cali", 4096, now.Add(-1*time.Hour))

	// bound fits roughly two entries: the next Put must evict oldest-first
	s.SetMaxBytes(10000)
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	evictions := TelEvictions.Value()
	putSized(t, s, "/data/d.cali", 4096, now)

	if s.Lookup("p", "/data/a.cali") != nil {
		t.Error("oldest entry (a) survived eviction")
	}
	if s.Lookup("p", "/data/d.cali") == nil {
		t.Error("newest entry (d) was evicted")
	}
	if TelEvictions.Value() <= evictions {
		t.Error("eviction counter did not move")
	}
}

func TestStoreGC(t *testing.T) {
	s := openTestStore(t)
	now := time.Now()
	for i, f := range []string{"/a", "/b", "/c", "/d"} {
		putSized(t, s, f, 2048, now.Add(time.Duration(i-4)*time.Hour))
	}
	// within bound: GC is a no-op
	removed, freed := s.GC()
	if removed != 0 || freed != 0 {
		t.Errorf("GC under bound removed %d entries, %d bytes", removed, freed)
	}
	// shrink the bound: GC must evict oldest entries down to it
	s.SetMaxBytes(5000)
	removed, freed = s.GC()
	if removed != 2 {
		t.Errorf("GC removed %d entries, want 2", removed)
	}
	if freed <= 0 {
		t.Errorf("GC freed %d bytes", freed)
	}
	if s.Lookup("p", "/a") != nil || s.Lookup("p", "/b") != nil {
		t.Error("GC kept the oldest entries")
	}
	if s.Lookup("p", "/d") == nil {
		t.Error("GC evicted the newest entry")
	}
}

func TestStoreVerify(t *testing.T) {
	s := openTestStore(t)
	if err := s.Put(sampleEntry()); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(s.Dir(), "0000000000000000-0000000000000000"+EntryExt)
	if err := os.WriteFile(junk, []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	total, removed, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || removed != 1 {
		t.Errorf("Verify = (%d, %d), want (2, 1)", total, removed)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Error("junk entry not removed")
	}
	infos, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Entry == nil {
		t.Errorf("after Verify: %d entries", len(infos))
	}
}

func TestSharedReturnsSameStore(t *testing.T) {
	dir := t.TempDir()
	a, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Shared returned distinct stores for one directory")
	}
}
