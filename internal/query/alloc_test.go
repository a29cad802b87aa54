package query

// Allocation-budget guards for the per-record query hot path: with the
// read loop reusing one record (calformat NextInto), the engine side must
// not reintroduce per-record garbage.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/calql"
	"caligo/internal/snapshot"
	"caligo/internal/testutil"
)

func allocFixture(t *testing.T) (*attr.Registry, []snapshot.FlatRecord) {
	t.Helper()
	reg := attr.NewRegistry()
	kernel := reg.MustCreate("kernel", attr.String, attr.Nested)
	rank := reg.MustCreate("mpi.rank", attr.Int, 0)
	dur := reg.MustCreate("time.duration", attr.Int, attr.AsValue|attr.Aggregatable)
	recs := make([]snapshot.FlatRecord, 64)
	for i := range recs {
		recs[i] = snapshot.FlatRecord{
			{Attr: kernel, Value: attr.StringV(fmt.Sprintf("kernel.%d", i%13))},
			{Attr: rank, Value: attr.IntV(int64(i % 8))},
			{Attr: dur, Value: attr.IntV(int64(50 + i))},
		}
	}
	return reg, recs
}

// TestEngineProcessAllocBudget pins steady-state Engine.Process for an
// aggregating query (compiled WHERE + DB update) to zero allocations per
// record once all group buckets exist.
func TestEngineProcessAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	reg, recs := allocFixture(t)
	q := calql.MustParse("AGGREGATE count, sum(time.duration) WHERE mpi.rank < 6 GROUP BY kernel")
	eng := MustNew(q, reg)
	for _, r := range recs { // warm up: create every group bucket
		if err := eng.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		if err := eng.Process(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Process = %.2f allocs/record, want 0", avg)
	}
}

// TestScanUnitReusesReaderBuffers: the engine owns one calformat.Reader
// and resets it per unit, so scanning a second file of the same shape
// through the same engine grows no node arena, id table or scan buffer —
// what is left (opening the file, the line scanner, the record) is a
// small constant, where a reader per file cost fifty allocations and
// 400 KB for these 4000 nodes.
func TestScanUnitReusesReaderBuffers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	// the shape of an aggregated profile: a node defined before every record
	const nrec = 4000
	var sb strings.Builder
	sb.WriteString("__rec=attr,id=0,name=function,type=string,prop=nested\n")
	sb.WriteString("__rec=attr,id=1,name=iteration,type=int,prop=\n")
	sb.WriteString("__rec=attr,id=2,name=time.duration,type=double,prop=asvalue\n")
	sb.WriteString("__rec=node,id=0,attr=0,data=main,parent=\n")
	for i := 0; i < nrec; i++ {
		fmt.Fprintf(&sb, "__rec=node,id=%d,attr=1,data=%d,parent=0\n", i+1, i)
		fmt.Fprintf(&sb, "__rec=ctx,ref=%d,attr=2,data=0.5\n", i+1)
	}
	dir := t.TempDir()
	files := []string{filepath.Join(dir, "a.cali"), filepath.Join(dir, "b.cali")}
	for _, f := range files {
		if err := os.WriteFile(f, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	q := calql.MustParse("AGGREGATE count, sum(time.duration) GROUP BY function")
	reg := attr.NewRegistry()
	eng := MustNew(q, reg)
	plan := NewScanPlan(q, ScanOptions{})
	units := plan.PlanUnits(files, 0)
	scan := func(u Unit) {
		if n, _, err := plan.ScanUnit(eng, u, reg, nil); err != nil || n != nrec {
			t.Fatalf("%s: %d records, %v", u.File, n, err)
		}
	}
	scan(units[0]) // the first file sizes the reader's buffers
	if avg := testing.AllocsPerRun(5, func() { scan(units[1]) }); avg > 16 {
		t.Fatalf("second same-shaped file = %.0f allocs, want <= 16 (not O(records), no arena regrowth)", avg)
	}
}
