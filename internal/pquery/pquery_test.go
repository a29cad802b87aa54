package pquery

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/mpi"
	"caligo/internal/obs/history"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// genDataset builds a per-rank .cali stream with deterministic content:
// kernels with durations, MPI functions, and the rank id.
func genDataset(rank, records int) []byte { return genDatasetScaled(rank, records, 1) }

// genDatasetScaled is genDataset with every duration multiplied by scale.
func genDatasetScaled(rank, records int, scale int64) []byte {
	reg := attr.NewRegistry()
	tree := contexttree.New()
	kernel := reg.MustCreate("kernel", attr.String, attr.Nested)
	mpifn := reg.MustCreate("mpi.function", attr.String, 0)
	rankA := reg.MustCreate("mpi.rank", attr.Int, 0)
	dur := reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable)

	kernels := []string{"advec-mom", "advec-cell", "calc-dt", "pdv"}
	mpifns := []string{"MPI_Barrier", "MPI_Allreduce"}
	rng := rand.New(rand.NewSource(int64(rank)))

	var buf bytes.Buffer
	w := calformat.NewWriter(&buf, reg, tree)
	for i := 0; i < records; i++ {
		var b snapshot.Builder
		if i%3 == 0 {
			b.AddNode(tree.GetChild(contexttree.InvalidNode, mpifn,
				attr.StringV(mpifns[rng.Intn(len(mpifns))])))
		} else {
			b.AddNode(tree.GetChild(contexttree.InvalidNode, kernel,
				attr.StringV(kernels[rng.Intn(len(kernels))])))
		}
		b.AddNode(tree.GetChild(contexttree.InvalidNode, rankA, attr.IntV(int64(rank))))
		b.AddImmediate(dur, attr.IntV(scale*int64(rng.Intn(100))))
		if err := w.WriteRecord(b.Record()); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// memProvider serves generated datasets from memory.
func memProvider(records int) InputProvider {
	return func(rank int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(genDataset(rank, records))), nil
	}
}

func TestParallelEqualsSerial(t *testing.T) {
	const ranks, records = 8, 120
	queryText := "AGGREGATE count, sum(time.duration) GROUP BY kernel, mpi.function"

	world, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(world, queryText, memProvider(records))
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsProcessed != ranks*records {
		t.Errorf("RecordsProcessed = %d, want %d", res.RecordsProcessed, ranks*records)
	}

	// serial reference: read all datasets into one engine
	reg := attr.NewRegistry()
	tree := contexttree.New()
	q := calql.MustParse(queryText)
	eng := newEngine(t, q, reg)
	for r := 0; r < ranks; r++ {
		rd := calformat.NewReader(bytes.NewReader(genDataset(r, records)), reg, tree)
		recs, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		processAll(t, eng, recs)
	}
	want, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i := range want {
		if res.Rows[i].String() != want[i].String() {
			t.Errorf("row %d:\n  parallel %s\n  serial   %s", i, res.Rows[i], want[i])
		}
	}
}

func TestParallelQueryWithWhereAndOrder(t *testing.T) {
	world, _ := mpi.NewWorld(4)
	res, err := Run(world,
		"AGGREGATE sum(time.duration) WHERE not(mpi.function) GROUP BY kernel ORDER BY sum#time.duration DESC LIMIT 2",
		memProvider(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (LIMIT)", len(res.Rows))
	}
	s0, _ := res.Rows[0].GetByName("sum#time.duration")
	s1, _ := res.Rows[1].GetByName("sum#time.duration")
	if s0.AsInt() < s1.AsInt() {
		t.Error("not in descending order")
	}
	for _, r := range res.Rows {
		if _, ok := r.GetByName("mpi.function"); ok {
			t.Error("WHERE not(mpi.function) leaked an MPI row")
		}
	}
}

func TestParallelNonAggregatingGather(t *testing.T) {
	world, _ := mpi.NewWorld(4)
	res, err := Run(world, "SELECT * WHERE kernel=calc-dt", memProvider(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected some calc-dt rows")
	}
	for _, r := range res.Rows {
		k, ok := r.GetByName("kernel")
		if !ok || k.String() != "calc-dt" {
			t.Errorf("row %s does not match filter", r)
		}
	}
	if res.RecordsProcessed != 4*30 {
		t.Errorf("RecordsProcessed = %d", res.RecordsProcessed)
	}
}

func TestSingleRankWorld(t *testing.T) {
	world, _ := mpi.NewWorld(1)
	res, err := Run(world, "AGGREGATE count GROUP BY kernel", memProvider(50))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, r := range res.Rows {
		c, _ := r.GetByName("aggregate.count")
		total += c.AsInt()
	}
	if total != 50 {
		t.Errorf("total count = %d, want 50", total)
	}
}

func TestEmptyInputRank(t *testing.T) {
	world, _ := mpi.NewWorld(4)
	provider := func(rank int) (io.ReadCloser, error) {
		if rank%2 == 1 {
			return nil, nil // no input for odd ranks
		}
		return io.NopCloser(bytes.NewReader(genDataset(rank, 20))), nil
	}
	res, err := Run(world, "AGGREGATE count GROUP BY kernel", provider)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsProcessed != 40 {
		t.Errorf("RecordsProcessed = %d, want 40", res.RecordsProcessed)
	}
}

func TestProviderError(t *testing.T) {
	world, _ := mpi.NewWorld(2)
	provider := func(rank int) (io.ReadCloser, error) {
		if rank == 1 {
			return nil, fmt.Errorf("disk on fire")
		}
		return nil, nil
	}
	if _, err := Run(world, "AGGREGATE count GROUP BY kernel", provider); err == nil {
		t.Error("provider error should propagate")
	}
}

func TestCorruptInput(t *testing.T) {
	world, _ := mpi.NewWorld(2)
	provider := func(rank int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader([]byte("__rec=ctx,ref=99\n"))), nil
	}
	if _, err := Run(world, "AGGREGATE count GROUP BY kernel", provider); err == nil {
		t.Error("corrupt input should propagate an error")
	}
}

func TestBadQuery(t *testing.T) {
	world, _ := mpi.NewWorld(2)
	if _, err := Run(world, "GROUP BY x", memProvider(1)); err == nil {
		t.Error("invalid query should fail")
	}
}

func TestFaninVariantsAgree(t *testing.T) {
	queryText := "AGGREGATE count, sum(time.duration) GROUP BY kernel"
	var ref []snapshot.FlatRecord
	for _, fanin := range []int{2, 4, 8} {
		world, _ := mpi.NewWorld(9)
		res, err := RunFanin(world, queryText, memProvider(40), fanin)
		if err != nil {
			t.Fatalf("fanin %d: %v", fanin, err)
		}
		if ref == nil {
			ref = res.Rows
			continue
		}
		if len(res.Rows) != len(ref) {
			t.Fatalf("fanin %d: %d rows, want %d", fanin, len(res.Rows), len(ref))
		}
		for i := range ref {
			if res.Rows[i].String() != ref[i].String() {
				t.Errorf("fanin %d row %d differs", fanin, i)
			}
		}
	}
}

func TestTimingPopulated(t *testing.T) {
	world, _ := mpi.NewWorld(8)
	res, err := Run(world, "AGGREGATE count GROUP BY kernel", memProvider(50))
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm.TotalVirt <= 0 || tm.ReduceVirt <= 0 || tm.LocalVirt <= 0 {
		t.Errorf("virtual timing not populated: %+v", tm)
	}
	if tm.TotalVirt < tm.LocalVirt {
		t.Errorf("total < local: %+v", tm)
	}
	if tm.TotalWall <= 0 {
		t.Errorf("wall timing not populated: %+v", tm)
	}
}

// TestReduceVirtGrowsWithRanks checks the Figure 4 shape on the virtual
// clock: reduction time increases with world size while per-rank local
// input stays constant (weak scaling).
func TestReduceVirtGrowsWithRanks(t *testing.T) {
	// The reduce phase mixes modeled network time with measured merge
	// compute time, so single runs are noisy; take the minimum over a few
	// repetitions and compare far-apart world sizes.
	reduceTime := func(p int) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			world, _ := mpi.NewWorld(p)
			res, err := Run(world, "AGGREGATE count GROUP BY kernel", memProvider(20))
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 || res.Timing.ReduceVirt < best {
				best = res.Timing.ReduceVirt
			}
		}
		return best
	}
	t2, t256 := reduceTime(2), reduceTime(256)
	if t2 >= t256 {
		t.Errorf("reduce time not increasing: p=2 %v >= p=256 %v", t2, t256)
	}
}

func TestParallelPostOps(t *testing.T) {
	world, _ := mpi.NewWorld(4)
	res, err := Run(world,
		"AGGREGATE sum(time.duration), percent_total(time.duration) GROUP BY kernel "+
			"WHERE kernel ORDER BY percent_total#time.duration DESC",
		memProvider(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	total := 0.0
	prev := 101.0
	for _, r := range res.Rows {
		v, ok := r.GetByName("percent_total#time.duration")
		if !ok {
			t.Fatalf("row lacks percent column: %s", r)
		}
		if v.AsFloat() > prev {
			t.Error("not ordered by percent desc")
		}
		prev = v.AsFloat()
		total += v.AsFloat()
	}
	if total < 99.999 || total > 100.001 {
		t.Errorf("percent total = %v, want 100", total)
	}
}

func TestParallelInclusiveSum(t *testing.T) {
	// inclusive expansion happens once, at the root flush
	world, _ := mpi.NewWorld(4)
	res, err := Run(world,
		"AGGREGATE inclusive_sum(time.duration) GROUP BY kernel", memProvider(40))
	if err != nil {
		t.Fatal(err)
	}
	// kernels in the generated data are flat (no nesting), so inclusive
	// equals exclusive; the serial reference must agree
	serialReg := attr.NewRegistry()
	serialTree := contexttree.New()
	q := calql.MustParse("AGGREGATE inclusive_sum(time.duration) GROUP BY kernel")
	eng := newEngine(t, q, serialReg)
	for r := 0; r < 4; r++ {
		rd := calformat.NewReader(bytes.NewReader(genDataset(r, 40)), serialReg, serialTree)
		recs, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		processAll(t, eng, recs)
	}
	want, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows: %d vs %d", len(res.Rows), len(want))
	}
	for i := range want {
		if res.Rows[i].String() != want[i].String() {
			t.Errorf("row %d:\n parallel %s\n serial   %s", i, res.Rows[i], want[i])
		}
	}
}

// TestTelemetryEpochPublishesClusterView checks the observability side
// channel of a parallel query: with telemetry enabled, Run reduces each
// rank's query stats over the telemetry tag space and the root publishes
// a cluster view where the caligo.pquery.records counter sums to the
// total records processed.
func TestTelemetryEpochPublishesClusterView(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(prev) })
	history.PublishCluster(nil)

	const ranks, records = 4, 60
	world, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(world, "AGGREGATE count GROUP BY kernel", memProvider(records))
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsProcessed != ranks*records {
		t.Fatalf("RecordsProcessed = %d, want %d", res.RecordsProcessed, ranks*records)
	}

	view := history.LatestCluster()
	if view == nil {
		t.Fatal("parallel query with telemetry enabled published no cluster view")
	}
	if view.Ranks != ranks {
		t.Errorf("view.Ranks = %d, want %d", view.Ranks, ranks)
	}
	var found bool
	for i := range view.Metrics {
		m := &view.Metrics[i]
		if m.Name != "caligo.pquery.records" {
			continue
		}
		found = true
		if m.Delta != uint64(ranks*records) {
			t.Errorf("cluster caligo.pquery.records = %d, want %d", m.Delta, ranks*records)
		}
		if len(m.Ranks) != ranks {
			t.Errorf("rank breakdown has %d entries, want %d", len(m.Ranks), ranks)
		}
		for _, rv := range m.Ranks {
			if rv.Delta != records {
				t.Errorf("rank %d processed %d records, want %d", rv.Rank, rv.Delta, records)
			}
		}
	}
	if !found {
		t.Error("cluster view missing caligo.pquery.records")
	}
	if view.SlowestRank < 0 || view.SlowestRank >= ranks {
		t.Errorf("SlowestRank = %d, want a real rank", view.SlowestRank)
	}
}
