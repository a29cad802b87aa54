package calql

import (
	"context"
	"os"
	"strings"
	"testing"

	"caligo/internal/calformat"
)

// indexedFiles builds the uneven sharded corpus and a sidecar block index
// for every file, with deliberately small blocks so even these small test
// datasets span several blocks per file.
func indexedFiles(t *testing.T, nfiles int) []string {
	t.Helper()
	files := shardedFiles(t, nfiles)
	for _, f := range files {
		idx, err := calformat.BuildFileIndex(f, calformat.IndexOptions{BlockRecords: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := calformat.WriteIndexFile(f, idx); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestIndexSmoke is the end-to-end guarantee of the index layer at the
// calql surface: over an indexed corpus, every execution mode with index
// pruning enabled renders byte-identical output to a full scan — including
// ORDER BY, LIMIT, SELECT *, and non-prunable WHERE clauses.
func TestIndexSmoke(t *testing.T) {
	files := indexedFiles(t, 6)
	queries := []string{
		"AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel",
		"AGGREGATE sum(aggregate.count) WHERE mpi.rank = 2 GROUP BY kernel",
		"AGGREGATE sum(aggregate.count) WHERE mpi.rank > 3 GROUP BY kernel, mpi.rank",
		"AGGREGATE count WHERE kernel = advec GROUP BY mpi.rank",
		"AGGREGATE sum(aggregate.count) WHERE not(kernel = advec) GROUP BY kernel",
		"AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY sum#aggregate.count DESC LIMIT 2",
		"SELECT kernel, sum#aggregate.count AS n AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY n FORMAT csv",
		"SELECT * WHERE kernel = pdv FORMAT json",
		"AGGREGATE sum(aggregate.count) WHERE mpi.rank = 99 GROUP BY kernel",
	}
	for _, q := range queries {
		full, err := Run(context.Background(), q, files, Options{NoIndex: true})
		if err != nil {
			t.Fatalf("fullscan %q: %v", q, err)
		}
		want := full.String()

		indexed, err := Run(context.Background(), q, files, Options{})
		if err != nil {
			t.Fatalf("indexed %q: %v", q, err)
		}
		if got := indexed.String(); got != want {
			t.Errorf("serial indexed %q differs from full scan:\n--- full ---\n%s--- indexed ---\n%s", q, want, got)
		}

		for _, jobs := range []int{3, 6} {
			sharded, err := Run(context.Background(), q, files, Options{Jobs: jobs})
			if err != nil {
				t.Fatalf("jobs=%d %q: %v", jobs, q, err)
			}
			if got := sharded.String(); got != want {
				t.Errorf("jobs=%d indexed %q differs from full scan:\n--- full ---\n%s--- indexed ---\n%s",
					jobs, q, want, got)
			}
		}

		// the MPI-parallel path interleaves selection rows by rank, so its
		// oracle is the same parallel run with the index disabled
		parFull, err := Run(context.Background(), q, files, Options{Ranks: 3, NoIndex: true})
		if err != nil {
			t.Fatalf("parallel fullscan %q: %v", q, err)
		}
		par, err := Run(context.Background(), q, files, Options{Ranks: 3})
		if err != nil {
			t.Fatalf("parallel %q: %v", q, err)
		}
		if got, pwant := par.String(), parFull.String(); got != pwant {
			t.Errorf("parallel indexed %q differs from parallel full scan:\n--- full ---\n%s--- indexed ---\n%s",
				q, pwant, got)
		}
	}
}

// TestIndexSmokeExplain checks the surfaced plan: EXPLAIN shows the
// prunable conditions, EXPLAIN ANALYZE carries measured skip statistics,
// and NoIndex reports the index as disabled.
func TestIndexSmokeExplain(t *testing.T) {
	files := indexedFiles(t, 6)
	const q = "AGGREGATE sum(aggregate.count) WHERE mpi.rank = 2 GROUP BY kernel"

	out, err := explain("EXPLAIN "+q, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-> index", "prune blocks on mpi.rank = 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}

	out, err = explain("EXPLAIN ANALYZE "+q, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// rank=2 lives in exactly one of six files: five are skipped outright
	for _, want := range []string{"-> index", "files_skipped=5", "indexed=6"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}

	out, err = explain("EXPLAIN "+q, files, Options{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "disabled (full scan)") {
		t.Errorf("EXPLAIN with NoIndex should report the index disabled:\n%s", out)
	}
}

// TestExplainNamesIndexFallbacks: a sidecar index that cannot be used
// falls back to a full scan, and EXPLAIN ANALYZE's index node says why —
// the data file changed (stale), the sidecar is damaged (corrupt), or it
// was written by another index version.
func TestExplainNamesIndexFallbacks(t *testing.T) {
	files := indexedFiles(t, 4)
	appendDataset(t, files[0], 0, 2) // stale
	idx := calformat.IndexPath(files[1])
	b, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40 // corrupt
	if err := os.WriteFile(idx, b, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := calformat.ReadIndexFile(calformat.IndexPath(files[2]))
	if err != nil {
		t.Fatal(err)
	}
	old.Version = calformat.IndexVersion + 1
	if err := calformat.WriteIndexFile(files[2], old); err != nil {
		t.Fatal(err)
	}

	out, err := explain("EXPLAIN ANALYZE AGGREGATE count GROUP BY kernel", files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fallbacks=3", "fallback_stale=1", "fallback_corrupt=1", "fallback_version=1", "indexed=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE index node missing %q:\n%s", want, out)
		}
	}
}
