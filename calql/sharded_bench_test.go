package calql

import (
	"context"
	"fmt"
	"testing"

	"caligo/internal/apps/paradis"
)

// BenchmarkQueryFilesSharded measures end-to-end query latency over a
// 16-file ParaDiS-shaped dataset (paper-scale record mix: 2174 records per
// file, 85 groups): serial (one worker), then the same executor at
// increasing worker counts. Workers take whole files and are CPU-bound on
// decode+aggregate, so the gain is bounded by min(jobs, files, CPUs): with
// GOMAXPROCS=1 the sharded runs show the scheduling overhead instead,
// which must stay small.
func BenchmarkQueryFilesSharded(b *testing.B) {
	files, err := paradis.GenerateDir(b.TempDir(), 16, paradis.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const q = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel, mpi.function"

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), q, files, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, jobs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), q, files, Options{Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
