package calql

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"caligo/caliper"
	"caligo/internal/calformat"
	"caligo/internal/obs"
	"caligo/internal/telemetry"
)

// writeDatasetN writes one .cali dataset with n begin/end pairs, so test
// inputs can be deliberately uneven across shard workers.
func writeDatasetN(t *testing.T, path string, rank, n int) {
	t.Helper()
	ch, err := caliper.NewChannel(caliper.Config{
		"services":          "event,timer,aggregate,recorder",
		"aggregate.key":     "kernel,mpi.rank",
		"aggregate.ops":     "count,sum(time.duration)",
		"recorder.filename": path,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	th.Set("mpi.rank", rank)
	kernels := []string{"advec", "calc-dt", "pdv", "flux"}
	for i := 0; i < n; i++ {
		th.Begin("kernel", kernels[i%len(kernels)])
		th.End("kernel")
	}
	if err := ch.FlushAndWrite(); err != nil {
		t.Fatal(err)
	}
}

// shardedFiles builds an uneven multi-file dataset: file r holds 10+7r
// records, so round-robin shards carry different loads.
func shardedFiles(t *testing.T, nfiles int) []string {
	t.Helper()
	dir := t.TempDir()
	var files []string
	for r := 0; r < nfiles; r++ {
		p := filepath.Join(dir, fmt.Sprintf("rank%02d.cali", r))
		writeDatasetN(t, p, r, 10+7*r)
		files = append(files, p)
	}
	return files
}

// TestQueryFilesJobsMatchesSerial is the golden guarantee of the sharded
// executor: for every worker count, the rendered output is byte-identical
// to serial execution — including ORDER BY, LIMIT, post-aggregation
// operators, and non-aggregating selection queries.
func TestQueryFilesJobsMatchesSerial(t *testing.T) {
	files := shardedFiles(t, 8)
	queries := []string{
		"AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel",
		"AGGREGATE count, sum(aggregate.count) GROUP BY kernel, mpi.rank",
		"AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY sum#aggregate.count DESC LIMIT 2",
		"SELECT kernel, sum#aggregate.count AS n AGGREGATE sum(aggregate.count), percent_total(aggregate.count) GROUP BY kernel ORDER BY n FORMAT csv",
		"AGGREGATE min(sum#time.duration), max(sum#time.duration), avg(sum#time.duration) GROUP BY mpi.rank FORMAT json",
		"SELECT * WHERE kernel = advec FORMAT json",
		"AGGREGATE sum(aggregate.count) WHERE mpi.rank < 5 GROUP BY kernel",
	}
	for _, q := range queries {
		serial, err := Run(context.Background(), q, files, Options{})
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		want := serial.String()
		for _, jobs := range []int{1, 3, 8} {
			rs, err := Run(context.Background(), q, files, Options{Jobs: jobs})
			if err != nil {
				t.Fatalf("jobs=%d %q: %v", jobs, q, err)
			}
			if got := rs.String(); got != want {
				t.Errorf("jobs=%d %q output differs from serial:\n--- serial ---\n%s--- sharded ---\n%s",
					jobs, q, want, got)
			}
		}
	}
}

// TestQueryFilesJobsDefaults checks the jobs <= 0 resolution (one worker
// per CPU, capped at the file count) and the single-file edge.
func TestQueryFilesJobsDefaults(t *testing.T) {
	files := shardedFiles(t, 2)
	const q = "AGGREGATE sum(aggregate.count) GROUP BY kernel"
	rs, err := Run(context.Background(), q, files, Options{Jobs: -1})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(context.Background(), q, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.String() != serial.String() {
		t.Error("default-jobs output differs from serial")
	}
	one, err := Run(context.Background(), "AGGREGATE count GROUP BY kernel", files[:1], Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Rows) == 0 {
		t.Error("single-file sharded query returned no rows")
	}
}

// TestQueryFilesJobsConcurrentMerge drives the widest merge tree the test
// datasets allow — 16 files, 16 workers → 4 reduction levels with up to 8
// concurrent pairwise merges — and checks the result against serial
// execution. Run under -race this covers the concurrent shard merge path.
func TestQueryFilesJobsConcurrentMerge(t *testing.T) {
	files := shardedFiles(t, 16)
	const q = "AGGREGATE count, sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel, mpi.rank"
	serial, err := Run(context.Background(), q, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(context.Background(), q, files, Options{Jobs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != sharded.String() {
		t.Error("16-way sharded output differs from serial")
	}
}

// TestExplainFilesJobs checks that EXPLAIN resolves the sharded execution
// mode with shard and merge plan nodes, and that EXPLAIN ANALYZE
// attributes measured spans to them.
func TestExplainFilesJobs(t *testing.T) {
	files := shardedFiles(t, 4)
	out, err := explain("EXPLAIN AGGREGATE sum(aggregate.count) GROUP BY kernel", files, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sharded (4 parallel workers", "-> shard", "-> merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}

	out, err = explain("EXPLAIN ANALYZE AGGREGATE sum(aggregate.count) GROUP BY kernel", files, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sharded (4 parallel workers") {
		t.Errorf("EXPLAIN ANALYZE not sharded:\n%s", out)
	}
	// 4 workers → 4 shard spans; 3 pairwise merges
	if !strings.Contains(out, "spans=4") || !strings.Contains(out, "spans=3") {
		t.Errorf("EXPLAIN ANALYZE span counts missing (want spans=4 shard, spans=3 merge):\n%s", out)
	}
	// jobs == 1 keeps the serial plan shape
	out, err = explain("EXPLAIN AGGREGATE count GROUP BY kernel", files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "execution: serial") || strings.Contains(out, "-> shard") {
		t.Errorf("jobs=1 EXPLAIN should be serial:\n%s", out)
	}

}

// TestSingleFileRunsSerial pins that a scan unit is a file: over one
// multi-block file no -j starts a second worker, whatever the index and
// cache state, and EXPLAIN, EXPLAIN ANALYZE, the obs engine label and the
// shard counter all say so. The output is byte-identical to -j 1.
func TestSingleFileRunsSerial(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	const q = "AGGREGATE sum(aggregate.count) GROUP BY kernel"
	shards := telemetry.NewCounter("caligo.query.shards")
	for _, indexed := range []bool{true, false} {
		one := shardedFiles(t, 1)
		if indexed {
			idx, err := calformat.BuildFileIndex(one[0], calformat.IndexOptions{BlockRecords: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(idx.Blocks) < 4 {
				t.Fatalf("dataset too small: %d blocks", len(idx.Blocks))
			}
			if err := calformat.WriteIndexFile(one[0], idx); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := Run(context.Background(), q, one, Options{NoIndex: true, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.String()
		warmDir := t.TempDir()
		if _, err := Run(context.Background(), q, one, Options{CacheDir: warmDir}); err != nil {
			t.Fatal(err)
		}
		for _, cache := range []struct {
			name string
			opts func() Options // per run: a cold cache is cold once
		}{
			{"off", func() Options { return Options{NoCache: true} }},
			{"cold", func() Options { return Options{CacheDir: t.TempDir()} }},
			{"warm", func() Options { return Options{CacheDir: warmDir} }},
		} {
			for _, jobs := range []int{1, 4, -1} {
				name := fmt.Sprintf("indexed=%v/cache=%s/j=%d", indexed, cache.name, jobs)
				shards0 := shards.Value()
				obs.ResetQueryStats()
				opts := cache.opts()
				opts.Jobs = jobs
				rs, err := Run(context.Background(), q, one, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := rs.String(); got != want {
					t.Errorf("%s: output differs from -j 1:\n--- want ---\n%s--- got ---\n%s", name, want, got)
				}
				if snap := obs.QuerySnapshot(); len(snap) != 1 || snap[0].Engine != "serial" {
					t.Errorf("%s: attribution = %+v, want one serial query", name, snap)
				}
				for _, stmt := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
					opts := cache.opts()
					opts.Jobs = jobs
					out, err := explain(stmt+q, one, opts)
					if err != nil {
						t.Fatalf("%s: %s: %v", name, stmt, err)
					}
					if !strings.Contains(out, "execution: serial") || strings.Contains(out, "-> shard") {
						t.Errorf("%s: %sshould be serial:\n%s", name, stmt, out)
					}
				}
				if moved := shards.Value() - shards0; moved != 0 {
					t.Errorf("%s: caligo.query.shards moved by %d", name, moved)
				}
			}
		}
	}
}
