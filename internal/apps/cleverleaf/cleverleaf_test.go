package cleverleaf

import (
	"testing"

	"caligo/caliper"
	"caligo/internal/snapshot"
)

func testConfig() Config {
	return Config{Ranks: 4, Timesteps: 10, Levels: 3, WorkScale: 0.05}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Ranks: 0, Timesteps: 1, Levels: 1, WorkScale: 1},
		{Ranks: 1, Timesteps: 0, Levels: 1, WorkScale: 1},
		{Ranks: 1, Timesteps: 1, Levels: 0, WorkScale: 1},
		{Ranks: 1, Timesteps: 1, Levels: 9, WorkScale: 1},
		{Ranks: 1, Timesteps: 1, Levels: 1, WorkScale: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestBaselineRunsWithoutInstrumentation(t *testing.T) {
	cfg := testConfig()
	if err := Run(cfg, func(int) *caliper.Thread { return nil }); err != nil {
		t.Fatal(err)
	}
}

// runInstrumented executes the proxy with per-rank channels and returns
// the flushed records per rank.
func runInstrumented(t *testing.T, cfg Config, chCfg caliper.Config) [][]snapshot.FlatRecord {
	t.Helper()
	channels := make([]*caliper.Channel, cfg.Ranks)
	for r := range channels {
		ch, err := caliper.NewChannel(chCfg)
		if err != nil {
			t.Fatal(err)
		}
		channels[r] = ch
	}
	err := Run(cfg, func(rank int) *caliper.Thread {
		return channels[rank].Thread()
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]snapshot.FlatRecord, cfg.Ranks)
	for r, ch := range channels {
		rows, err := ch.Flush()
		if err != nil {
			t.Fatal(err)
		}
		out[r] = rows
	}
	return out
}

func TestInstrumentedRunProducesProfile(t *testing.T) {
	cfg := testConfig()
	perRank := runInstrumented(t, cfg, caliper.Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": "kernel,amr.level,mpi.rank,mpi.function",
		"aggregate.ops": "count,sum(time.duration)",
	})
	for rank, rows := range perRank {
		if len(rows) == 0 {
			t.Fatalf("rank %d produced no profile records", rank)
		}
		kernels := map[string]bool{}
		mpifns := map[string]bool{}
		levels := map[string]bool{}
		for _, r := range rows {
			if v, ok := r.GetByName("kernel"); ok {
				kernels[v.String()] = true
			}
			if v, ok := r.GetByName("mpi.function"); ok {
				mpifns[v.String()] = true
			}
			if v, ok := r.GetByName("amr.level"); ok {
				levels[v.String()] = true
			}
			if v, ok := r.GetByName("mpi.rank"); ok && v.AsInt() != int64(rank) {
				t.Errorf("rank %d has record with mpi.rank=%v", rank, v)
			}
		}
		for _, k := range []string{"calc-dt", "advec-mom", "update-halo"} {
			if !kernels[k] {
				t.Errorf("rank %d: kernel %s missing from profile", rank, k)
			}
		}
		for _, fn := range []string{"MPI_Barrier", "MPI_Allreduce", "MPI_Send", "MPI_Recv"} {
			if !mpifns[fn] {
				t.Errorf("rank %d: %s missing from profile", rank, fn)
			}
		}
		for _, l := range []string{"0", "1", "2"} {
			if !levels[l] {
				t.Errorf("rank %d: amr.level %s missing", rank, l)
			}
		}
	}
}

func TestCalcDtDominatesKernels(t *testing.T) {
	// Figure 5's shape: calc-dt has the largest kernel time. Virtual time,
	// as in TestLevel2TimeGrows: sums of wall-clock milliseconds reorder on
	// a loaded host.
	cfg := testConfig()
	cfg.VirtualTime = true
	perRank := runInstrumented(t, cfg, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  "virtual",
		"aggregate.key": "kernel",
		"aggregate.ops": "sum(time.duration)",
	})
	times := map[string]int64{}
	for _, rows := range perRank {
		for _, r := range rows {
			k, ok := r.GetByName("kernel")
			if !ok {
				continue
			}
			if s, ok := r.GetByName("sum#time.duration"); ok {
				times[k.String()] += s.AsInt()
			}
		}
	}
	for k, v := range times {
		if k != "calc-dt" && v >= times["calc-dt"] {
			t.Errorf("kernel %s time %d >= calc-dt %d", k, v, times["calc-dt"])
		}
	}
}

func TestLevel2TimeGrows(t *testing.T) {
	// Figure 8's shape: level-2 time in late timesteps exceeds early ones;
	// level 0 stays roughly flat.
	// real per-kernel work must dominate per-event instrumentation cost
	// for duration attribution to reflect the workload, hence WorkScale 1
	cfg := Config{Ranks: 2, Timesteps: 30, Levels: 3, WorkScale: 1, VirtualTime: true}
	perRank := runInstrumented(t, cfg, caliper.Config{
		"services":        "event,timer,aggregate",
		"timer.source":    "virtual",
		"aggregate.key":   "amr.level,iteration#mainloop",
		"aggregate.ops":   "sum(time.duration)",
		"aggregate.where": "not(mpi.function)",
	})
	// accumulate time per (level, early/late third)
	type bucket struct{ early, late int64 }
	buckets := map[string]*bucket{}
	third := int64(cfg.Timesteps / 3)
	for _, rows := range perRank {
		for _, r := range rows {
			lv, ok := r.GetByName("amr.level")
			if !ok {
				continue
			}
			it, ok := r.GetByName("iteration#mainloop")
			if !ok {
				continue
			}
			s, ok := r.GetByName("sum#time.duration")
			if !ok {
				continue
			}
			b := buckets[lv.String()]
			if b == nil {
				b = &bucket{}
				buckets[lv.String()] = b
			}
			switch {
			case it.AsInt() < third:
				b.early += s.AsInt()
			case it.AsInt() >= 2*third:
				b.late += s.AsInt()
			}
		}
	}
	l2 := buckets["2"]
	if l2 == nil || l2.late <= l2.early*2 {
		t.Errorf("level 2 late/early = %+v, want strong growth", l2)
	}
	l0 := buckets["0"]
	if l0 == nil || l0.late > l0.early*2 || l0.early > l0.late*2 {
		t.Errorf("level 0 early/late = %+v, want roughly flat", l0)
	}
}

func TestAdvecMomBalanced(t *testing.T) {
	// Figure 7's shape: advec-mom shows less cross-rank imbalance than
	// calc-dt.
	cfg := Config{Ranks: 4, Timesteps: 20, Levels: 3, WorkScale: 1, VirtualTime: true}
	perRank := runInstrumented(t, cfg, caliper.Config{
		"services":      "event,timer,aggregate",
		"timer.source":  "virtual",
		"aggregate.key": "kernel,mpi.rank",
		"aggregate.ops": "sum(time.duration)",
	})
	// measure each kernel's share of its rank's total kernel time: a
	// rank-wide slowdown from host time sharing cancels in the share
	times := map[string][]float64{}
	totals := make([]float64, cfg.Ranks)
	for rank, rows := range perRank {
		for _, r := range rows {
			if _, ok := r.GetByName("kernel"); !ok {
				continue
			}
			if s, ok := r.GetByName("sum#time.duration"); ok {
				totals[rank] += float64(s.AsInt())
			}
		}
	}
	for rank, rows := range perRank {
		for _, r := range rows {
			k, ok := r.GetByName("kernel")
			if !ok {
				continue
			}
			if s, ok := r.GetByName("sum#time.duration"); ok {
				times[k.String()] = append(times[k.String()], float64(s.AsInt())/totals[rank])
			}
		}
	}
	spread := func(vals []float64) float64 {
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return (hi - lo) / hi
	}
	if len(times["advec-mom"]) != cfg.Ranks || len(times["calc-dt"]) != cfg.Ranks {
		t.Fatalf("missing per-rank entries: %d/%d", len(times["advec-mom"]), len(times["calc-dt"]))
	}
	sm := spread(times["advec-mom"])
	sd := spread(times["calc-dt"])
	if sm >= sd {
		t.Errorf("advec-mom share spread %.3f >= calc-dt share spread %.3f", sm, sd)
	}
}

func TestHybridThreadsPerRank(t *testing.T) {
	cfg := Config{Ranks: 2, Timesteps: 6, Levels: 3, WorkScale: 0.1, ThreadsPerRank: 3}
	perRank := runInstrumented(t, cfg, caliper.Config{
		"services":      "event,timer,aggregate",
		"aggregate.key": "kernel,thread.id",
		"aggregate.ops": "count",
	})
	for rank, rows := range perRank {
		threadIDs := map[string]bool{}
		var kernelCounts int64
		for _, r := range rows {
			if v, ok := r.GetByName("thread.id"); ok {
				threadIDs[v.String()] = true
			}
			if _, ok := r.GetByName("kernel"); ok {
				if c, ok := r.GetByName("aggregate.count"); ok {
					kernelCounts += c.AsInt()
				}
			}
		}
		if len(threadIDs) != cfg.ThreadsPerRank {
			t.Errorf("rank %d: thread ids = %v, want %d distinct",
				rank, threadIDs, cfg.ThreadsPerRank)
		}
		// every kernel sweep runs on every worker: kernels * levels *
		// steps * threads end-events
		want := int64(len(kernelCost) * cfg.Levels * cfg.Timesteps * cfg.ThreadsPerRank)
		if kernelCounts != want {
			t.Errorf("rank %d: kernel events = %d, want %d", rank, kernelCounts, want)
		}
	}
}

func TestHybridThreadsBaseline(t *testing.T) {
	cfg := Config{Ranks: 2, Timesteps: 3, Levels: 2, WorkScale: 0.05, ThreadsPerRank: 2}
	if err := Run(cfg, func(int) *caliper.Thread { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestHybridThreadsVirtualTimeRejected(t *testing.T) {
	cfg := Config{Ranks: 1, Timesteps: 1, Levels: 1, WorkScale: 1,
		ThreadsPerRank: 2, VirtualTime: true}
	if err := cfg.Validate(); err == nil {
		t.Error("ThreadsPerRank + VirtualTime should be rejected")
	}
	if cfg := (Config{Ranks: 1, Timesteps: 1, Levels: 1, WorkScale: 1, ThreadsPerRank: -1}); cfg.Validate() == nil {
		t.Error("negative ThreadsPerRank should be rejected")
	}
}
