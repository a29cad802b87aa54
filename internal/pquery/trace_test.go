package pquery

import (
	"sort"
	"testing"

	"caligo/internal/mpi"
	"caligo/internal/trace"
)

// runRows executes the query over a fresh world and returns the result
// rows rendered to sorted strings, for run-to-run comparison.
func runRows(t *testing.T, queryText string, ranks, records int) []string {
	t.Helper()
	world, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(world, queryText, memProvider(records))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r.String()
	}
	sort.Strings(rows)
	return rows
}

// TestTracingOnOffEquivalence runs the same parallel query with span
// tracing enabled and disabled: the results must be identical, the
// enabled run must record the pipeline's phase spans, and the disabled
// run must record nothing.
func TestTracingOnOffEquivalence(t *testing.T) {
	const queryText = "AGGREGATE count, sum(time.duration) GROUP BY kernel, mpi.function"
	const ranks, records = 4, 80

	prev := trace.SetEnabled(false)
	t.Cleanup(func() { trace.SetEnabled(prev) })

	// disabled run: no spans may appear
	trace.Reset()
	offRows := runRows(t, queryText, ranks, records)
	if n := len(trace.Snapshot()); n != 0 {
		t.Errorf("disabled run recorded %d spans, want 0", n)
	}

	// enabled run: same rows, plus read/aggregate/reduce spans per rank
	trace.SetEnabled(true)
	trace.Reset()
	onRows := runRows(t, queryText, ranks, records)
	spans := trace.Snapshot()
	trace.SetEnabled(false)

	if len(onRows) != len(offRows) {
		t.Fatalf("row count differs with tracing: %d vs %d", len(onRows), len(offRows))
	}
	for i := range offRows {
		if onRows[i] != offRows[i] {
			t.Errorf("row %d differs with tracing:\n  on  %s\n  off %s", i, onRows[i], offRows[i])
		}
	}

	perPhase := map[string]int{}
	phaseRanks := map[string]map[int]bool{}
	for _, s := range spans {
		perPhase[s.Name]++
		if phaseRanks[s.Name] == nil {
			phaseRanks[s.Name] = map[int]bool{}
		}
		phaseRanks[s.Name][int(s.Rank)] = true
	}
	for _, phase := range []string{"pquery.read", "pquery.aggregate", "pquery.reduce"} {
		if perPhase[phase] != ranks {
			t.Errorf("%s spans = %d, want one per rank (%d)", phase, perPhase[phase], ranks)
		}
		if len(phaseRanks[phase]) != ranks {
			t.Errorf("%s spans cover ranks %v, want all %d ranks", phase, phaseRanks[phase], ranks)
		}
	}
	// the reduction exercises the emulated network underneath
	if perPhase["mpi.send"] == 0 || perPhase["mpi.recv"] == 0 {
		t.Errorf("reduction recorded no MPI spans: %v", perPhase)
	}
}

// TestTracingDisabledZeroAlloc proves the kill switch's core guarantee:
// with tracing disabled, the exact span sequences on the pipeline's hot
// paths — the read/aggregate spans of a rank's local phase
// (query.Exec.Local) and the caliper.snapshot span taken on every
// snapshot — allocate nothing.
func TestTracingDisabledZeroAlloc(t *testing.T) {
	prev := trace.SetEnabled(false)
	t.Cleanup(func() { trace.SetEnabled(prev) })

	allocs := testing.AllocsPerRun(1000, func() {
		// a rank's local-phase sequence
		rsp := trace.BeginRank("pquery.read", 3)
		rsp.ArgInt("records", 128)
		rsp.ArgInt("bytes", 65536)
		rsp.End()
		asp := trace.BeginRank("pquery.aggregate", 3)
		asp.ArgInt("records_in", 128)
		asp.ArgInt("records_out", 16)
		asp.End()
		// the hot snapshot-path sequence (caliper.Thread.takeSnapshot)
		snap := trace.BeginRank("caliper.snapshot", 3)
		snap.SetTid(1)
		snap.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates %.1f objects/op on the hot path, want 0", allocs)
	}
}
