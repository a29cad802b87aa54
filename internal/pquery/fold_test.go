package pquery

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/mpi"
	"caligo/internal/query"
	"caligo/internal/snapshot"
	"caligo/internal/testutil"
)

// newEngine is query.New, failing the test on error.
func newEngine(t *testing.T, q *calql.Query, reg *attr.Registry) *query.Engine {
	t.Helper()
	eng, err := query.New(q, reg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// processAll feeds recs through eng.
func processAll(t *testing.T, eng *query.Engine, recs []snapshot.FlatRecord) {
	t.Helper()
	for _, r := range recs {
		if err := eng.Process(r); err != nil {
			t.Fatal(err)
		}
	}
}

// render formats rows the way calql.Resultset.Render does.
func render(t *testing.T, q *calql.Query, reg *attr.Registry, rows []snapshot.FlatRecord) string {
	t.Helper()
	var buf bytes.Buffer
	if err := newEngine(t, q, reg).Write(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFoldEqualsSerial: the reduction folds into live databases, so what
// the root renders must not depend on the tree — world size, fan-in, which
// ranks (the root included) have no input — and must be the bytes one
// engine over all the inputs renders. One query shares its keys across
// ranks (every absorb is a merge-hit), the other keys by rank (every absorb
// inserts).
func TestFoldEqualsSerial(t *testing.T) {
	// durations large enough that an integer sum which lost its type on
	// the way (and came out as a float) renders differently
	const records, durScale = 40, 1_000_000
	queries := []string{
		"AGGREGATE count, sum(time.duration), min(time.duration), max(time.duration) GROUP BY kernel, mpi.function",
		"AGGREGATE sum(time.duration), avg(time.duration) GROUP BY kernel, mpi.function, mpi.rank",
	}
	holes := map[string]func(rank int) bool{
		"all ranks read":   func(int) bool { return false },
		"every third idle": func(rank int) bool { return rank%3 == 1 },
		"root idle":        func(rank int) bool { return rank%4 == 0 },
		"only rank 1":      func(rank int) bool { return rank != 1 },
	}
	for _, queryText := range queries {
		q := calql.MustParse(queryText)
		for _, ranks := range []int{1, 2, 3, 5, 8, 64} {
			for name, idle := range holes {
				// serial reference: one engine over the same inputs
				reg, tree := attr.NewRegistry(), contexttree.New()
				eng := newEngine(t, q, reg)
				for r := 0; r < ranks; r++ {
					if idle(r) {
						continue
					}
					recs, err := calformat.NewReader(bytes.NewReader(genDatasetScaled(r, records, durScale)), reg, tree).ReadAll()
					if err != nil {
						t.Fatal(err)
					}
					processAll(t, eng, recs)
				}
				rows, err := eng.Results()
				if err != nil {
					t.Fatal(err)
				}
				want := render(t, q, reg, rows)

				for _, fanin := range []int{2, 3, 8} {
					world, _ := mpi.NewWorld(ranks)
					res, err := RunFanin(world, queryText, func(rank int) (io.ReadCloser, error) {
						if idle(rank) {
							return nil, nil
						}
						return io.NopCloser(bytes.NewReader(genDatasetScaled(rank, records, durScale))), nil
					}, fanin)
					if err != nil {
						t.Fatalf("%d ranks, fan-in %d, %s: %v", ranks, fanin, name, err)
					}
					if got := render(t, q, res.Reg, res.Rows); got != want {
						t.Errorf("%q, %d ranks, fan-in %d, %s:\nparallel\n%s\nserial\n%s",
							queryText, ranks, fanin, name, got, want)
					}
				}
			}
		}
	}
}

// TestReduceVirtPinned: the fold charges the virtual clock per absorbed
// child with the union's bucket count and sends the same bytes the
// pairwise decode-both-re-encode reduction did, so Figure 4's reduction
// time is the number that reduction produced (pinned from it).
func TestReduceVirtPinned(t *testing.T) {
	world, _ := mpi.NewWorld(64)
	res, err := Run(world, "AGGREGATE count, sum(time.duration) GROUP BY kernel, mpi.function, mpi.rank", memProvider(40))
	if err != nil {
		t.Fatal(err)
	}
	const want = 326310.0 // ns
	if math.Abs(res.Timing.ReduceVirt-want) > 1e-3 {
		t.Errorf("ReduceVirt = %v ns, want %v", res.Timing.ReduceVirt, want)
	}
}

// TestRanksShareReaders: an emulated rank is a scan worker with one file;
// its reader comes out of the query package's pool, so a repeated run does
// not pay for a scan buffer (64 KiB) and a node arena per rank again.
func TestRanksShareReaders(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	const ranks = 8
	dir := t.TempDir()
	files := make([]string, ranks)
	for r := range files {
		files[r] = filepath.Join(dir, fmt.Sprintf("rank%d.cali", r))
		if err := os.WriteFile(files[r], genDataset(r, 60), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	q := calql.MustParse("AGGREGATE count, sum(time.duration) GROUP BY kernel, mpi.function")
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		world, _ := mpi.NewWorld(ranks)
		x := query.NewExec(q, query.ScanOptions{}, query.MPI, nil)
		if _, err := RunFiles(context.Background(), world, x, files); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // fills the pool
	// a collection between two runs may empty the pool: the quietest of a
	// few runs is the one that found it full
	best := run()
	for i := 0; i < 4; i++ {
		best = min(best, run())
	}
	// eight fresh readers are 8 × 64 KiB of scan buffer alone
	const budget = 256 << 10
	if best > budget {
		t.Errorf("a repeated %d-rank run allocates %d bytes, budget %d: ranks build their own readers", ranks, best, budget)
	}
}

// TestStatePayload: a rank's reduction payload is its record count and
// its database's EncodeState bytes, in one allocation of exactly their
// size, and framing it writes nothing shared.
func TestStatePayload(t *testing.T) {
	reg := attr.NewRegistry()
	eng := newEngine(t, calql.MustParse("AGGREGATE count, sum(time.duration) GROUP BY kernel, mpi.rank"), reg)
	rd := calformat.NewReader(bytes.NewReader(genDataset(3, 200)), reg, nil)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Process(rec); err != nil {
			t.Fatal(err)
		}
	}
	db := eng.DB()
	payload := statePayload(db, 200)
	if len(payload) != cap(payload) {
		t.Errorf("statePayload sized its buffer %d for %d bytes", cap(payload), len(payload))
	}
	state, n, err := decodePayload(payload)
	if err != nil || n != 200 || !bytes.Equal(state, db.EncodeState()) {
		t.Errorf("decoded %d records, err %v, state equal to EncodeState: %v", n, err, bytes.Equal(state, db.EncodeState()))
	}
	if countRoom != [8]byte{} {
		t.Errorf("statePayload wrote into countRoom: %v", countRoom)
	}
	if testutil.RaceEnabled {
		return // allocation counts do not hold under -race instrumentation
	}
	if allocs := testing.AllocsPerRun(20, func() { payload = statePayload(db, 200) }); allocs != 1 {
		t.Errorf("statePayload allocates %v objects, want 1", allocs)
	}
}
