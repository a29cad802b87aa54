package calql

import (
	"context"
	"path/filepath"
	"testing"

	"caligo/internal/apps/paradis"
	"caligo/internal/calformat"
)

// BenchmarkIndexedScan measures what the sidecar block indexes buy at the
// calql surface over a 16-file ParaDiS-shaped dataset (2174 records per
// file):
//
//   - selective: WHERE mpi.rank = 3 touches one file in sixteen — the
//     index skips the other fifteen without opening them, so the indexed
//     run should be several times faster than the full scan.
//   - groupby: the paper's evaluation query has no prunable WHERE; every
//     block is decoded, measuring pure index overhead (must stay small).
//   - bigfile: all sixteen ranks merged into one multi-block file: what
//     the index costs a scan that walks 34 blocks of one file. A file is
//     one scan unit, so no -j would start a second worker here.
func BenchmarkIndexedScan(b *testing.B) {
	dir := b.TempDir()
	files, err := paradis.GenerateDirIndexed(dir, 16, paradis.DefaultConfig(), calformat.IndexOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const selective = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) WHERE mpi.rank = 3 GROUP BY kernel"

	b.Run("selective-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), selective, files, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("selective-fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), selective, files, Options{NoIndex: true}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("groupby-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), paradis.EvaluationQuery, files, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("groupby-fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), paradis.EvaluationQuery, files, Options{NoIndex: true}); err != nil {
				b.Fatal(err)
			}
		}
	})

	merged := filepath.Join(dir, "merged.cali")
	if _, err := paradis.WriteMerged(merged, 16, paradis.DefaultConfig(), true, calformat.IndexOptions{}); err != nil {
		b.Fatal(err)
	}
	one := []string{merged}
	b.Run("bigfile-j1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), paradis.EvaluationQuery, one, Options{Jobs: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
