package calql

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"caligo/caliper"
)

// writeNestedDataset records a profile whose kernel regions nest, with a
// recursive path main/a/b/a, aggregated by the kernel path alone. Counts
// depend on rank, so the files differ.
func writeNestedDataset(t *testing.T, path string, rank int) {
	t.Helper()
	ch, err := caliper.NewChannel(caliper.Config{
		"services":          "event,aggregate,recorder",
		"aggregate.key":     "kernel",
		"aggregate.ops":     "count",
		"recorder.filename": path,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(th.Begin("kernel", "main"))
	for i := 0; i <= rank; i++ {
		must(th.Begin("kernel", "a"))
		must(th.Begin("kernel", "b"))
		for j := 0; j < 1+i%2; j++ {
			must(th.Begin("kernel", "a"))
			must(th.End("kernel"))
		}
		must(th.End("kernel"))
		must(th.End("kernel"))
		must(th.Begin("kernel", "c"))
		must(th.End("kernel"))
	}
	must(th.End("kernel"))
	must(ch.FlushAndWrite())
}

// TestInclusiveSumOverNestedPaths: through Run on .cali files, each row's
// inclusive_sum equals the exclusive sum over every row whose kernel path
// extends the row's own (itself included), also below a recursive
// a → b → a path; serial and emulated-MPI runs give identical rows.
func TestInclusiveSumOverNestedPaths(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for r := 0; r < 4; r++ {
		p := filepath.Join(dir, fmt.Sprintf("rank%d.cali", r))
		writeNestedDataset(t, p, r)
		files = append(files, p)
	}
	const q = "SELECT kernel, sum(aggregate.count), inclusive_sum(aggregate.count) GROUP BY kernel"

	type row struct {
		path       []string
		excl, incl int64
	}
	run := func(opts Options) (rows []row, text []string) {
		t.Helper()
		res, err := Run(context.Background(), q, files, opts)
		if err != nil {
			t.Fatal(err)
		}
		kernel, ok := res.Reg.Find("kernel")
		if !ok {
			t.Fatal("kernel not in the result registry")
		}
		for _, rec := range res.Rows {
			var r row
			for _, v := range rec.ValuesOf(kernel.ID()) {
				r.path = append(r.path, v.String())
			}
			excl, ok1 := rec.GetByName("sum#aggregate.count")
			incl, ok2 := rec.GetByName("inclusive_sum#aggregate.count")
			if !ok1 || !ok2 {
				t.Fatalf("row %s lacks sum or inclusive_sum", rec)
			}
			r.excl, r.incl = excl.AsInt(), incl.AsInt()
			rows = append(rows, r)
			text = append(text, strings.Join(r.path, "/")+" "+rec.String())
		}
		return rows, text
	}

	var texts [2][]string
	for i, opts := range []Options{{}, {Ranks: 4}} {
		rows, text := run(opts)
		texts[i] = text
		paths := map[string]bool{}
		for _, r := range rows {
			paths[strings.Join(r.path, "/")] = true
			var want int64
			for _, other := range rows {
				if len(other.path) >= len(r.path) && slices.Equal(other.path[:len(r.path)], r.path) {
					want += other.excl
				}
			}
			if r.incl != want {
				t.Errorf("Ranks=%d: inclusive_sum[%s] = %d, want %d (sum over extensions)",
					opts.Ranks, strings.Join(r.path, "/"), r.incl, want)
			}
		}
		for _, p := range []string{"main", "main/a", "main/a/b", "main/a/b/a", "main/c"} {
			if !paths[p] {
				t.Errorf("Ranks=%d: no row for kernel path %s; rows: %v", opts.Ranks, p, text)
			}
		}
	}
	if !slices.Equal(texts[0], texts[1]) {
		t.Errorf("rows differ:\n serial %v\n ranks=4 %v", texts[0], texts[1])
	}
}
