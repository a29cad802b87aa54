package calql

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"caligo/caliper"
	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/contexttree"
	"caligo/internal/obs"
	"caligo/internal/qcache"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// appendDataset appends a second recorder stream with n more begin/end
// pairs to an existing .cali file. Concatenated streams are valid .cali
// (metadata lines re-define attributes idempotently), which is exactly
// the shape a live capture ring or long-running job produces — the case
// the append-aware incremental scan exists for.
func appendDataset(t *testing.T, path string, rank, n int) {
	t.Helper()
	tail := path + ".tail"
	writeDatasetN(t, tail, rank, n)
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(tail)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// cacheSmokeQueries is the correctness matrix: aggregations with and
// without WHERE / LET / ORDER BY / FORMAT, plus a non-aggregating
// selection (which must bypass the cache entirely).
var cacheSmokeQueries = []string{
	"AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel",
	"AGGREGATE count, sum(aggregate.count) GROUP BY kernel, mpi.rank",
	"AGGREGATE sum(aggregate.count) WHERE mpi.rank < 5 GROUP BY kernel",
	"AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY sum#aggregate.count DESC LIMIT 2",
	"SELECT kernel, sum#aggregate.count AS n AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY n FORMAT csv",
	"AGGREGATE min(sum#time.duration), max(sum#time.duration), avg(sum#time.duration) GROUP BY mpi.rank FORMAT json",
	"SELECT * WHERE kernel = advec",
}

// TestCacheSmoke is the end-to-end guarantee of the aggregate cache at
// the calql surface: over one shared cache directory, cold, warm,
// sharded, and emulated-MPI execution all render byte-identical output
// to an uncached run — the cache may only change how fast an answer
// arrives, never the answer.
func TestCacheSmoke(t *testing.T) {
	files := shardedFiles(t, 6)
	cacheDir := t.TempDir()
	for _, q := range cacheSmokeQueries {
		oracle, err := Run(context.Background(), q, files, Options{NoCache: true})
		if err != nil {
			t.Fatalf("uncached %q: %v", q, err)
		}
		want := oracle.String()

		runs := []struct {
			mode string
			run  func() (fmt.Stringer, error)
		}{
			{"cold", func() (fmt.Stringer, error) { return Run(context.Background(), q, files, Options{CacheDir: cacheDir}) }},
			{"warm", func() (fmt.Stringer, error) { return Run(context.Background(), q, files, Options{CacheDir: cacheDir}) }},
			{"warm-sharded", func() (fmt.Stringer, error) {
				return Run(context.Background(), q, files, Options{Jobs: 3, CacheDir: cacheDir})
			}},
		}
		for _, r := range runs {
			rs, err := r.run()
			if err != nil {
				t.Fatalf("%s %q: %v", r.mode, q, err)
			}
			if got := rs.String(); got != want {
				t.Errorf("%s %q output differs from uncached:\n--- uncached ---\n%s--- %s ---\n%s",
					r.mode, q, want, r.mode, got)
			}
		}

		// the MPI-parallel path interleaves selection rows by rank, so its
		// oracle is the same parallel run with the cache disabled
		parOracle, err := Run(context.Background(), q, files, Options{Ranks: 2, NoCache: true})
		if err != nil {
			t.Fatalf("parallel uncached %q: %v", q, err)
		}
		par, err := Run(context.Background(), q, files, Options{Ranks: 2, CacheDir: cacheDir})
		if err != nil {
			t.Fatalf("parallel cached %q: %v", q, err)
		}
		if got, pwant := par.String(), parOracle.String(); got != pwant {
			t.Errorf("warm-mpi %q differs from uncached parallel:\n--- uncached ---\n%s--- cached ---\n%s",
				q, pwant, got)
		}
	}

	// the store must hold state for the aggregating queries only
	store, err := qcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := store.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("no cache entries stored after the smoke matrix")
	}
	for _, info := range infos {
		if info.Err != nil {
			t.Errorf("stored entry undecodable: %v", info.Err)
		}
	}
}

// TestCacheWarmHitCounters pins the cache classification: the second run
// of one query over one corpus must be all hits, skipping every byte.
func TestCacheWarmHitCounters(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	files := shardedFiles(t, 4)
	cacheDir := t.TempDir()
	const q = "AGGREGATE sum(aggregate.count) GROUP BY kernel"

	misses0 := qcache.TelMisses.Value()
	if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}
	if got := qcache.TelMisses.Value() - misses0; got != uint64(len(files)) {
		t.Errorf("cold run misses = %d, want %d", got, len(files))
	}

	hits0, skipped0 := qcache.TelHits.Value(), qcache.TelBytesSkipped.Value()
	if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}
	if got := qcache.TelHits.Value() - hits0; got != uint64(len(files)) {
		t.Errorf("warm run hits = %d, want %d", got, len(files))
	}
	var total uint64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += uint64(st.Size())
	}
	if got := qcache.TelBytesSkipped.Value() - skipped0; got != total {
		t.Errorf("warm run skipped %d bytes, want the full corpus %d", got, total)
	}
}

// TestCacheAppendIncremental is the headline behavior: appending records
// to a cached file must re-aggregate only the tail — the cached prefix
// state is reused and the skipped byte count equals the pre-append size.
func TestCacheAppendIncremental(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	dir := t.TempDir()
	file := filepath.Join(dir, "ring.cali")
	writeDatasetN(t, file, 0, 60)
	files := []string{file}
	cacheDir := t.TempDir()
	const q = "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel"

	if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
	watermark := uint64(st.Size())

	appendDataset(t, file, 0, 25)

	oracle, err := Run(context.Background(), q, files, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	incr0, skipped0 := qcache.TelIncremental.Value(), qcache.TelBytesSkipped.Value()
	got, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != oracle.String() {
		t.Errorf("incremental output differs from full scan:\n--- full ---\n%s--- incremental ---\n%s",
			oracle.String(), got.String())
	}
	if n := qcache.TelIncremental.Value() - incr0; n != 1 {
		t.Errorf("incremental scans = %d, want 1", n)
	}
	if n := qcache.TelBytesSkipped.Value() - skipped0; n != watermark {
		t.Errorf("bytes skipped = %d, want the pre-append size %d", n, watermark)
	}

	// the entry was re-stored at the new watermark: one more run is a
	// clean hit, and appending again is again incremental
	hits0 := qcache.TelHits.Value()
	if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}
	if n := qcache.TelHits.Value() - hits0; n != 1 {
		t.Errorf("post-append warm hits = %d, want 1", n)
	}
	appendDataset(t, file, 0, 10)
	oracle2, err := Run(context.Background(), q, files, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	incr1 := qcache.TelIncremental.Value()
	got2, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if got2.String() != oracle2.String() {
		t.Error("second incremental round diverged from full scan")
	}
	if n := qcache.TelIncremental.Value() - incr1; n != 1 {
		t.Errorf("second append: incremental scans = %d, want 1", n)
	}
}

// TestCacheIndexedFilesAgree: the cache and the sidecar block index
// coexist — with both enabled the output still matches a plain scan,
// and warm runs still hit.
func TestCacheIndexedFilesAgree(t *testing.T) {
	files := indexedFiles(t, 4)
	cacheDir := t.TempDir()
	for _, q := range []string{
		"AGGREGATE sum(aggregate.count) GROUP BY kernel",
		"AGGREGATE sum(aggregate.count) WHERE mpi.rank = 2 GROUP BY kernel",
	} {
		oracle, err := Run(context.Background(), q, files, Options{NoCache: true, NoIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"cold", "warm"} {
			rs, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir})
			if err != nil {
				t.Fatal(err)
			}
			if rs.String() != oracle.String() {
				t.Errorf("%s %q with index+cache differs:\n--- plain ---\n%s--- cached ---\n%s",
					mode, q, oracle.String(), rs.String())
			}
		}
	}
}

// TestCacheFallback: a corrupted cache directory must never change an
// answer — every damaged entry falls back to a full scan silently.
func TestCacheFallback(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	files := shardedFiles(t, 3)
	cacheDir := t.TempDir()
	const q = "AGGREGATE sum(aggregate.count) GROUP BY kernel"

	oracle, err := Run(context.Background(), q, files, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}

	// flip a byte in every stored entry
	ents, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, de := range ents {
		if filepath.Ext(de.Name()) != qcache.EntryExt {
			continue
		}
		p := filepath.Join(cacheDir, de.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("cold run stored no entries to damage")
	}

	fb0 := qcache.TelFallback.Value()
	got, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != oracle.String() {
		t.Errorf("corrupt cache changed the answer:\n--- oracle ---\n%s--- got ---\n%s",
			oracle.String(), got.String())
	}
	if n := qcache.TelFallback.Value() - fb0; n < uint64(damaged) {
		t.Errorf("fallbacks = %d, want >= %d", n, damaged)
	}

	// the full-scan run re-stored clean entries: next run hits again
	hits0 := qcache.TelHits.Value()
	if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}
	if n := qcache.TelHits.Value() - hits0; n != uint64(len(files)) {
		t.Errorf("post-repair hits = %d, want %d", n, len(files))
	}
}

// TestCacheTruncatedFileFallsBack: a file that SHRANK below the cached
// watermark (rewritten ring, truncated copy) must full-scan, not serve
// stale state.
func TestCacheTruncatedFileFallsBack(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	dir := t.TempDir()
	file := filepath.Join(dir, "shrink.cali")
	writeDatasetN(t, file, 1, 50)
	cacheDir := t.TempDir()
	const q = "AGGREGATE sum(aggregate.count) GROUP BY kernel"

	if _, err := Run(context.Background(), q, []string{file}, Options{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}
	// rewrite the file smaller, with different content
	writeDatasetN(t, file, 1, 10)
	oracle, err := Run(context.Background(), q, []string{file}, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	fb0 := qcache.TelFallback.Value()
	got, err := Run(context.Background(), q, []string{file}, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != oracle.String() {
		t.Errorf("stale cache state served for a truncated file:\n--- oracle ---\n%s--- got ---\n%s",
			oracle.String(), got.String())
	}
	if qcache.TelFallback.Value() == fb0 {
		t.Error("truncated file did not count a fallback")
	}
}

// TestCacheNoCacheOverride: NoCache wins over CacheDir — nothing is
// stored or read.
func TestCacheNoCacheOverride(t *testing.T) {
	files := shardedFiles(t, 2)
	cacheDir := t.TempDir()
	if _, err := Run(context.Background(), "AGGREGATE count GROUP BY kernel", files, Options{CacheDir: cacheDir, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if filepath.Ext(de.Name()) == qcache.EntryExt {
			t.Fatalf("NoCache run stored entry %s", de.Name())
		}
	}
}

// TestCancelledCacheMissStoresNothing: a query cancelled while it scans a
// cache miss stores no entry — its drain ends in the context's error, not
// in an early EOF whose partial state the miss would store — and the next
// run's output is byte-identical to an uncached run.
func TestCancelledCacheMissStoresNothing(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	file := filepath.Join(t.TempDir(), "big.cali")
	if err := os.WriteFile(file, recordStream(0, 100000), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	entries := func() int {
		ents, err := os.ReadDir(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, de := range ents {
			if filepath.Ext(de.Name()) == qcache.EntryExt {
				n++
			}
		}
		return n
	}
	const q = "AGGREGATE count GROUP BY kernel"

	// cancel once the scan has decoded 1024 records
	read := telemetry.NewCounter("caligo.calformat.records.read")
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		for start := read.Value(); read.Value() < start+1024; runtime.Gosched() {
			select {
			case <-ran:
				return
			default:
			}
		}
		cancel()
	}()
	_, err := Run(ctx, q, []string{file}, Options{CacheDir: cacheDir})
	close(ran)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled (did the scan end before the cancel?)", err)
	}
	if n := entries(); n != 0 {
		t.Fatalf("the cancelled miss stored %d entries", n)
	}

	want, err := Run(context.Background(), q, []string{file}, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), q, []string{file}, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("after the cancelled run:\n--- uncached ---\n%s--- cached ---\n%s", want, got)
	}
	if n := entries(); n != 1 {
		t.Errorf("the completed miss stored %d entries, want 1", n)
	}
}

// TestCacheSmokeExplain: with a cache directory configured, EXPLAIN
// shows the cache plan node (and where the state lives).
func TestCacheSmokeExplain(t *testing.T) {
	cacheDir := t.TempDir()
	out, err := explain("EXPLAIN AGGREGATE sum(aggregate.count) GROUP BY kernel", []string{"a.cali", "b.cali"}, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cache") || !strings.Contains(out, cacheDir) {
		t.Errorf("EXPLAIN missing the cache node:\n%s", out)
	}
	// without a cache directory the node is absent
	out, err = explain("EXPLAIN AGGREGATE sum(aggregate.count) GROUP BY kernel", []string{"a.cali", "b.cali"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "-> cache") {
		t.Errorf("EXPLAIN shows a cache node without a cache configured:\n%s", out)
	}
}

// BenchmarkCachedQuery measures the three cache temperatures over one
// corpus: cold (uncached full scan), warm (every file a state hit), and
// append (one file grows between runs, so its tail re-aggregates). The
// warm/cold ratio is the headline number — see ISSUE/BENCH_query.json.
func BenchmarkCachedQuery(b *testing.B) {
	dir := b.TempDir()
	var files []string
	for r := 0; r < 4; r++ {
		p := filepath.Join(dir, fmt.Sprintf("bench%02d.cali", r))
		writeDatasetBN(b, p, r, 3000)
		files = append(files, p)
	}
	const q = "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel"

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), q, files, Options{NoCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cacheDir := b.TempDir()
		if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		cacheDir := b.TempDir()
		base, err := os.Stat(files[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// restore the file to its base length, re-prime the cache at
			// that watermark, then append the tail — the timed query below
			// is always "one fresh append over a warm prefix"
			if err := os.Truncate(files[0], base.Size()); err != nil {
				b.Fatal(err)
			}
			if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
				b.Fatal(err)
			}
			appendDatasetB(b, files[0], 0, 20)
			b.StartTimer()
			if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// writeDatasetBN / appendDatasetB are the benchmark-friendly twins of
// the *testing.T helpers above.
func writeDatasetBN(b *testing.B, path string, rank, n int) {
	b.Helper()
	// keying on the per-pair iteration keeps every begin/end pair a
	// distinct record, so file size (and cold scan cost) scales with n
	// instead of collapsing to one row per kernel
	ch, err := caliper.NewChannel(caliper.Config{
		"services":          "event,timer,aggregate,recorder",
		"aggregate.key":     "kernel,mpi.rank,iteration",
		"aggregate.ops":     "count,sum(time.duration)",
		"recorder.filename": path,
	})
	if err != nil {
		b.Fatal(err)
	}
	th := ch.Thread()
	th.Set("mpi.rank", rank)
	kernels := []string{"advec", "calc-dt", "pdv", "flux"}
	for i := 0; i < n; i++ {
		th.Set("iteration", i)
		th.Begin("kernel", kernels[i%len(kernels)])
		th.End("kernel")
	}
	if err := ch.FlushAndWrite(); err != nil {
		b.Fatal(err)
	}
}

func appendDatasetB(b *testing.B, path string, rank, n int) {
	b.Helper()
	tail := path + ".tail"
	writeDatasetBN(b, tail, rank, n)
	data, err := os.ReadFile(tail)
	if err != nil {
		b.Fatal(err)
	}
	os.Remove(tail)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestCacheWarmLargeSums guards the rendered type of cached results: a
// warm hit never opens the file, so the registry never sees the summed
// attribute and its type must arrive with the cached state through every
// merge. Losing it falls back to Float resolution, which renders large
// integer sums in scientific notation — byte-different from the uncached
// answer even though the values are numerically equal.
func TestCacheWarmLargeSums(t *testing.T) {
	dir := t.TempDir()
	reg := attr.NewRegistry()
	kernel := reg.MustCreate("kernel", attr.String, attr.Nested)
	dur := reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable)
	var files []string
	for fi := 0; fi < 2; fi++ {
		path := filepath.Join(dir, fmt.Sprintf("big%d.cali", fi))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := calformat.NewWriter(f, reg, contexttree.New())
		for i := 0; i < 50; i++ {
			rec := snapshot.FlatRecord{
				{Attr: kernel, Value: attr.StringV([]string{"advec", "pdv"}[i%2])},
				{Attr: dur, Value: attr.IntV(int64(3_000_000 + 17*i + fi))},
			}
			if err := w.WriteFlat(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}

	const q = "AGGREGATE sum(time.duration) GROUP BY kernel"
	oracle, err := Run(context.Background(), q, files, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.String()
	if strings.Contains(want, "e+") {
		t.Fatalf("uncached render unexpectedly scientific:\n%s", want)
	}
	cacheDir := t.TempDir()
	for _, mode := range []string{"cold", "warm"} {
		rs, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got := rs.String(); got != want {
			t.Errorf("%s output differs from uncached:\n--- uncached ---\n%s--- %s ---\n%s",
				mode, want, mode, got)
		}
	}
}

// TestExplainNamesCacheFallbacks: a cache entry that cannot be used falls
// back to a full scan, and EXPLAIN ANALYZE's cache node says why — the
// file was rewritten under the entry (stale) or the entry is damaged
// (corrupt) — next to the hit/miss classification.
func TestExplainNamesCacheFallbacks(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	files := shardedFiles(t, 3)
	cacheDir := t.TempDir()
	const q = "AGGREGATE sum(aggregate.count) GROUP BY kernel"
	if _, err := Run(context.Background(), q, files, Options{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}
	writeDatasetN(t, files[0], 7, 5) // rewritten in place: stale
	ents, err := filepath.Glob(filepath.Join(cacheDir, "*"+qcache.EntryExt))
	if err != nil || len(ents) != len(files) {
		t.Fatalf("cold run stored %d entries (%v), want %d", len(ents), err, len(files))
	}
	damaged := 0
	for _, p := range ents {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), files[1]) {
			continue
		}
		data[len(data)/2] ^= 0xFF // corrupt
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged != 1 {
		t.Fatalf("damaged %d entries, want the one of %s", damaged, files[1])
	}

	out, err := explain("EXPLAIN ANALYZE "+q, files, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fallback_stale=1", "fallback_corrupt=1", "hits=1", "misses=2", "stores=2"} {
		if !regexp.MustCompile(`-> cache .*\n.* ` + want).MatchString(out) {
			t.Errorf("EXPLAIN ANALYZE cache node missing %q:\n%s", want, out)
		}
	}
	// the attribution record — of the statement as run — reads its cache
	// outcome from the same phase
	if s := obs.QuerySnapshot()[0]; s.Text != "EXPLAIN ANALYZE "+q || s.CacheHits != 1 || s.CacheMisses != 2 || s.CacheIncremental != 0 {
		t.Errorf("/debug/queries record %q: cache hits=%d misses=%d incremental=%d, want 1, 2, 0",
			s.Text, s.CacheHits, s.CacheMisses, s.CacheIncremental)
	}
}
