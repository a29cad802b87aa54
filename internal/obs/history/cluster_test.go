package history_test

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"caligo/internal/attr"
	"caligo/internal/core"
	"caligo/internal/mpi"
	"caligo/internal/obs"
	. "caligo/internal/obs/history"
	"caligo/internal/rnet"
	"caligo/internal/telemetry"
)

// TestClusterViewEqualsHandMergedScrapes pins the acceptance criterion:
// the /debug/cluster merged view equals a hand-merged union of per-rank
// /debug/metrics scrapes — counters sum, gauges keep min/max, histogram
// bins (and so quantiles) match a bin-wise telemetry.Histogram merge.
func TestClusterViewEqualsHandMergedScrapes(t *testing.T) {
	enableTelemetry(t)
	const ranks = 4

	// per-rank registries standing in for per-process /debug/metrics
	regs := make([]*telemetry.Registry, ranks)
	recs := make([]*Recorder, ranks)
	for r := 0; r < ranks; r++ {
		regs[r] = telemetry.NewRegistry()
		var err error
		// start before populating: the baseline snapshot must predate the
		// observations so the first window carries them as deltas
		recs[r], err = Start(Options{
			Dir:      t.TempDir(),
			Interval: time.Hour,
			Rank:     r,
			Registry: regs[r],
		})
		if err != nil {
			t.Fatal(err)
		}
		defer recs[r].Stop()
		regs[r].Counter("app.requests").Add(uint64(100 * (r + 1)))
		regs[r].Gauge("caligo.rnet.sync.lag.ns").Set(int64(1000 * (r + 1)))
		h := regs[r].Histogram("app.lat.ns")
		for i := 0; i < 10*(r+1); i++ {
			h.Observe(int64(50 + 100*r + i))
		}
		if _, err := recs[r].CaptureNow(); err != nil {
			t.Fatal(err)
		}
	}

	// one telemetry-reduction epoch over the emulated cluster
	world, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var view *ClusterView
	err = world.Run(func(c *mpi.Comm) error {
		node, err := rnet.New(c, ClusterScheme(), recs[c.Rank()].Registry(),
			rnet.WithHistory(recs[c.Rank()]))
		if err != nil {
			return err
		}
		v, err := node.SyncTelemetry()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			view = v
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if view == nil {
		t.Fatal("root published no cluster view")
	}
	if got := LatestCluster(); got != view {
		t.Error("LatestCluster does not serve the root's published view")
	}
	if view.Ranks != ranks {
		t.Fatalf("view.Ranks = %d, want %d", view.Ranks, ranks)
	}

	find := func(name, kind string) *ClusterMetric {
		for i := range view.Metrics {
			if view.Metrics[i].Name == name && view.Metrics[i].Kind == kind {
				return &view.Metrics[i]
			}
		}
		t.Fatalf("cluster view missing %s (%s); have %d metrics", name, kind, len(view.Metrics))
		return nil
	}

	// counters sum: cluster delta == sum of per-rank scrape values
	var scrapedSum float64
	for r := 0; r < ranks; r++ {
		var buf bytes.Buffer
		if err := obs.NewExporter(regs[r]).Write(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := obs.ParseMetrics(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		v, ok := m.Families["app_requests"].Value()
		if !ok {
			t.Fatalf("rank %d scrape missing app_requests", r)
		}
		scrapedSum += v
	}
	counter := find("app.requests", "counter")
	if float64(counter.Delta) != scrapedSum {
		t.Errorf("cluster counter delta = %d, hand-merged scrapes = %.0f", counter.Delta, scrapedSum)
	}
	if len(counter.Ranks) != ranks {
		t.Errorf("counter rank breakdown has %d entries, want %d", len(counter.Ranks), ranks)
	}
	for _, rv := range counter.Ranks {
		want := uint64(100 * (rv.Rank + 1))
		if rv.Delta != want || rv.Total != want {
			t.Errorf("rank %d counter = %+v, want delta/total %d", rv.Rank, rv, want)
		}
	}

	// gauges keep min/max; slowest rank from the sync-lag gauge
	gauge := find("caligo.rnet.sync.lag.ns", "gauge")
	if gauge.Min != 1000 || gauge.Max != 4000 {
		t.Errorf("gauge min/max = %d/%d, want 1000/4000", gauge.Min, gauge.Max)
	}
	if view.SlowestRank != ranks-1 || view.SlowestNS != 4000 {
		t.Errorf("slowest = rank %d (%d ns), want rank %d (4000 ns)",
			view.SlowestRank, view.SlowestNS, ranks-1)
	}

	// histogram bins match a bin-wise telemetry merge exactly
	mergedReg := telemetry.NewRegistry()
	merged := mergedReg.Histogram("app.lat.ns")
	for r := 0; r < ranks; r++ {
		merged.Merge(regs[r].Histogram("app.lat.ns"))
	}
	snap := merged.Snapshot()
	var wantBins []ClusterBin
	snap.EachBucket(func(upper float64, n uint64) {
		wantBins = append(wantBins, ClusterBin{Upper: upper, Count: n})
	})
	hist := find("app.lat.ns", "histogram")
	if len(hist.Bins) != len(wantBins) {
		t.Fatalf("cluster bins = %d, bin-wise merge = %d", len(hist.Bins), len(wantBins))
	}
	for i := range wantBins {
		if hist.Bins[i] != wantBins[i] {
			t.Errorf("bin %d: cluster %+v, merge %+v", i, hist.Bins[i], wantBins[i])
		}
	}
	if hist.Count != snap.Count || hist.Sum != snap.Sum {
		t.Errorf("cluster count/sum = %d/%d, merge = %d/%d",
			hist.Count, hist.Sum, snap.Count, snap.Sum)
	}

	// quantiles match the scrape estimator applied to the merged scrape
	var buf bytes.Buffer
	if err := obs.NewExporter(mergedReg).Write(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want, ok := m.Families["app_lat_ns"].HistQuantile(q)
		if !ok {
			t.Fatalf("merged scrape has no q%.2f", q)
		}
		got, ok := hist.Quantile(q)
		if !ok {
			t.Fatalf("cluster metric has no q%.2f", q)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("q%.2f: cluster %v, merged scrape %v", q, got, want)
		}
	}
}

// TestSyncTelemetryAccumulatesEpochs checks the root's cumulative
// database spans epochs while gauge Last tracks the newest epoch only.
func TestSyncTelemetryAccumulatesEpochs(t *testing.T) {
	enableTelemetry(t)
	reg := telemetry.NewRegistry()
	c := reg.Counter("epoch.requests")
	g := reg.Gauge("epoch.depth")
	rec, err := Start(Options{Dir: t.TempDir(), Interval: time.Hour, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()

	world, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*ClusterView, 0, 2)
	err = world.Run(func(cm *mpi.Comm) error {
		node, err := rnet.New(cm, ClusterScheme(), rec.Registry(), rnet.WithHistory(rec))
		if err != nil {
			return err
		}
		// epoch 1
		c.Add(10)
		g.Set(5)
		if _, err := rec.CaptureNow(); err != nil {
			return err
		}
		v, err := node.SyncTelemetry()
		if err != nil {
			return err
		}
		views = append(views, v)
		// epoch 2: more increments, gauge moves down
		c.Add(7)
		g.Set(2)
		if _, err := rec.CaptureNow(); err != nil {
			return err
		}
		v, err = node.SyncTelemetry()
		if err != nil {
			return err
		}
		views = append(views, v)
		if node.TelemetryEpochs() != 2 {
			t.Errorf("TelemetryEpochs = %d, want 2", node.TelemetryEpochs())
		}
		if node.TelemetryGlobal() == nil {
			t.Error("root has no cumulative telemetry database")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	find := func(v *ClusterView, name string) *ClusterMetric {
		for i := range v.Metrics {
			if v.Metrics[i].Name == name {
				return &v.Metrics[i]
			}
		}
		return nil
	}
	if m := find(views[0], "epoch.requests"); m == nil || m.Delta != 10 {
		t.Errorf("epoch 1 counter = %+v, want delta 10", m)
	}
	if m := find(views[1], "epoch.requests"); m == nil || m.Delta != 17 {
		t.Errorf("epoch 2 cumulative counter = %+v, want delta 17", m)
	}
	if m := find(views[1], "epoch.depth"); m == nil || m.Min != 2 || m.Max != 5 {
		t.Errorf("gauge across epochs = %+v, want min 2 max 5", m)
	} else if len(m.Ranks) != 1 || m.Ranks[0].Last != 2 {
		t.Errorf("gauge Last = %+v, want the epoch-2 sample 2", m.Ranks)
	}
	if views[1].Epochs != 2 {
		t.Errorf("view.Epochs = %d, want 2", views[1].Epochs)
	}
}

// TestClusterAbsorbsEmptyState checks a step of the telemetry-reduction
// fold tolerates an empty payload (ranks without a recorder contribute
// empty deltas).
func TestClusterAbsorbsEmptyState(t *testing.T) {
	reg := attr.NewRegistry()
	schema, err := NewSchema(reg)
	if err != nil {
		t.Fatal(err)
	}
	recs := schema.AppendWindow(nil, 2, 100, 50, nil, []telemetry.Metric{
		{Name: "x", Kind: telemetry.KindCounter, Counter: 9},
	})
	db := mustClusterDB(t, reg)
	for _, r := range recs {
		db.Update(r)
	}
	empty := mustClusterDB(t, attr.NewRegistry())
	if err := db.MergeEncodedState(empty.EncodeState()); err != nil {
		t.Fatal(err)
	}
	roundtrip := mustClusterDB(t, attr.NewRegistry())
	if err := roundtrip.MergeEncodedState(db.EncodeState()); err != nil {
		t.Fatal(err)
	}
	view, err := BuildClusterView(roundtrip, roundtrip, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if view.Ranks != 1 || len(view.Metrics) != 1 || view.Metrics[0].Delta != 9 {
		t.Errorf("round-tripped view = %+v, want one rank, x delta 9", view)
	}
}

func mustClusterDB(t *testing.T, reg *attr.Registry) *core.DB {
	t.Helper()
	db, err := core.NewDB(ClusterScheme(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestWriteClusterJSONEmpty checks the endpoint body before any epoch.
func TestWriteClusterJSONEmpty(t *testing.T) {
	PublishCluster(nil)
	var buf bytes.Buffer
	if err := WriteClusterJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"slowest_rank": -1`) || !strings.Contains(out, `"metrics": []`) {
		t.Errorf("empty cluster body = %s", out)
	}
}
