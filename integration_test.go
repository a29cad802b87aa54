package caligo

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caligo/caliper"
	"caligo/calql"
	"caligo/internal/apps/cleverleaf"
)

// writeProfiles runs the proxy with per-rank channels configured with
// chCfg and records per-rank .cali files; returns the file paths.
func writeProfiles(t *testing.T, dir string, app cleverleaf.Config, chCfg caliper.Config) []string {
	t.Helper()
	channels := make([]*caliper.Channel, app.Ranks)
	var files []string
	for r := range channels {
		cfg := caliper.Config{}
		for k, v := range chCfg {
			cfg[k] = v
		}
		path := filepath.Join(dir, "rank-"+strings.Repeat("0", 2)+string(rune('a'+r))+".cali")
		cfg["recorder.filename"] = path
		cfg["services"] = cfg["services"] + ",recorder"
		ch, err := caliper.NewChannel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		channels[r] = ch
		files = append(files, path)
	}
	err := cleverleaf.Run(app, func(rank int) *caliper.Thread {
		return channels[rank].Thread()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ch := range channels {
		if err := ch.FlushAndWrite(); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return files
}

// TestEndToEndPipeline drives the complete workflow of the paper:
// annotate → on-line aggregate → per-process .cali files → off-line
// cross-process aggregation (serial and parallel) → identical results.
func TestEndToEndPipeline(t *testing.T) {
	app := cleverleaf.Config{Ranks: 4, Timesteps: 10, Levels: 3,
		WorkScale: 1, VirtualTime: true}
	files := writeProfiles(t, t.TempDir(), app, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  "virtual",
		"aggregate.key": "kernel,mpi.function,mpi.rank",
		"aggregate.ops": "count,sum(time.duration)",
	})

	const q = "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY kernel, mpi.function"
	serial, err := calql.Run(context.Background(), q, files, calql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) == 0 {
		t.Fatal("no result rows")
	}
	par, err := calql.Run(context.Background(), q, files, calql.Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Rows) != len(serial.Rows) {
		t.Fatalf("parallel %d rows vs serial %d", len(par.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i].String() != par.Rows[i].String() {
			t.Errorf("row %d differs:\n serial   %s\n parallel %s",
				i, serial.Rows[i], par.Rows[i])
		}
	}
}

// TestOnlineOfflineEquivalence verifies Section VI-F: "the combination of
// on-line and off-line aggregation leaves multiple ways to obtain the same
// end result, letting us shift the bulk of the data aggregation from
// on-line to off-line processing and vice versa." A coarse on-line scheme
// queried directly must equal a fine on-line scheme re-aggregated off-line.
func TestOnlineOfflineEquivalence(t *testing.T) {
	app := cleverleaf.Config{Ranks: 3, Timesteps: 8, Levels: 3,
		WorkScale: 1, VirtualTime: true}

	// path 1: aggregate on-line directly by kernel
	coarse := writeProfiles(t, t.TempDir(), app, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  "virtual",
		"aggregate.key": "kernel",
		"aggregate.ops": "count,sum(time.duration)",
	})
	// path 2: keep full detail on-line (scheme C), reduce off-line
	fine := writeProfiles(t, t.TempDir(), app, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  "virtual",
		"aggregate.key": "function,annotation,amr.level,kernel,iteration#mainloop,mpi.rank,mpi.function",
		"aggregate.ops": "count,sum(time.duration)",
	})

	const q = "AGGREGATE sum(aggregate.count) AS count, sum(sum#time.duration) AS time GROUP BY kernel"
	rs1, err := calql.Run(context.Background(), q, coarse, calql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := calql.Run(context.Background(), q, fine, calql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(rs *calql.Result) map[string][2]int64 {
		out := map[string][2]int64{}
		for _, r := range rs.Rows {
			k, _ := r.GetByName("kernel")
			c, _ := r.GetByName("count")
			s, _ := r.GetByName("time")
			out[k.String()] = [2]int64{c.AsInt(), s.AsInt()}
		}
		return out
	}
	m1, m2 := get(rs1), get(rs2)
	if len(m1) != len(m2) {
		t.Fatalf("group counts differ: %d vs %d", len(m1), len(m2))
	}
	for k, v1 := range m1 {
		v2 := m2[k]
		if v1[0] != v2[0] {
			t.Errorf("kernel %q: counts differ: %d vs %d", k, v1[0], v2[0])
		}
		// virtual timing is deterministic, so sums must agree exactly
		if v1[1] != v2[1] {
			t.Errorf("kernel %q: times differ: %d vs %d", k, v1[1], v2[1])
		}
	}
}

// TestCorruptDatasetRejected injects failures into a dataset file.
func TestCorruptDatasetRejected(t *testing.T) {
	app := cleverleaf.Config{Ranks: 1, Timesteps: 2, Levels: 2,
		WorkScale: 1, VirtualTime: true}
	files := writeProfiles(t, t.TempDir(), app, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  "virtual",
		"aggregate.key": "kernel",
		"aggregate.ops": "count",
	})
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"garbage line": func(b []byte) []byte {
			return append([]byte("__rec=ctx,ref=99999\n"), b...)
		},
		"truncated mid-line": func(b []byte) []byte {
			// cut inside the final line so a field is malformed
			cut := len(b) - 5
			return append(b[:cut], []byte("\n__rec=node,id=x")...)
		},
		"bad attribute type": func(b []byte) []byte {
			return append([]byte("__rec=attr,id=99,name=zz,type=banana\n"), b...)
		},
	}
	for name, corrupt := range corruptions {
		bad := filepath.Join(t.TempDir(), "bad.cali")
		if err := os.WriteFile(bad, corrupt(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := calql.Run(context.Background(), "AGGREGATE count GROUP BY kernel", []string{bad}, calql.Options{}); err == nil {
			t.Errorf("%s: corrupt dataset accepted", name)
		}
	}
}

// TestListing1PublicAPI is the paper's Listing 1 program end-to-end on the
// public API, checking exact counts.
func TestListing1PublicAPI(t *testing.T) {
	ch, err := caliper.NewChannel(caliper.Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": "function,loop.iteration",
		"aggregate.ops": "count,sum(time.duration)",
	})
	if err != nil {
		t.Fatal(err)
	}
	th := ch.Thread()
	foo := func() { th.Begin("function", "foo"); th.End("function") }
	bar := func() { th.Begin("function", "bar"); th.End("function") }
	for i := 0; i < 4; i++ {
		th.Begin("loop.iteration", i)
		foo()
		foo()
		bar()
		th.End("loop.iteration")
	}
	rs, err := calql.QueryChannel(
		"AGGREGATE sum(aggregate.count) AS count GROUP BY function, loop.iteration", ch)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		fn, hasFn := row.GetByName("function")
		it, hasIt := row.GetByName("loop.iteration")
		c, _ := row.GetByName("count")
		if !hasFn || !hasIt {
			continue // partial-key rows (the paper's table has them too)
		}
		switch fn.String() {
		case "foo":
			if c.AsInt() != 2 {
				t.Errorf("(foo,%s) count = %d, want 2", it.String(), c.AsInt())
			}
		case "bar":
			if c.AsInt() != 1 {
				t.Errorf("(bar,%s) count = %d, want 1", it.String(), c.AsInt())
			}
		}
	}
}
