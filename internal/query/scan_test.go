package query

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
	"caligo/internal/telemetry"
)

// writeIndexedFile writes recs as an indexed .cali file (sidecar included)
// and returns the file path.
func writeIndexedFile(t *testing.T, dir, name string, reg *attr.Registry, recs []snapshot.FlatRecord, blockRecords int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	iw := calformat.NewIndexingWriter(f, reg, contexttree.New(), calformat.IndexOptions{BlockRecords: blockRecords})
	for _, r := range recs {
		if err := iw.WriteFlat(r); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := iw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := calformat.WriteIndexFile(path, idx); err != nil {
		t.Fatal(err)
	}
	return path
}

// rankedDataset writes one indexed file per rank in 0..nFiles-1, each with
// nRecs records carrying mpi.rank=<rank>, kernel cycling, dur=i.
func rankedDataset(t *testing.T, nFiles, nRecs, blockRecords int) []string {
	t.Helper()
	dir := t.TempDir()
	fx := newFixture(t)
	kernels := []string{"advec", "pdv", "flux"}
	files := make([]string, nFiles)
	for r := 0; r < nFiles; r++ {
		recs := make([]snapshot.FlatRecord, nRecs)
		for i := range recs {
			recs[i] = fx.rec(kernels[i%len(kernels)], "", int64(r), int64(i))
		}
		files[r] = writeIndexedFile(t, dir, "rank"+string(rune('0'+r))+".cali", fx.reg, recs, blockRecords)
	}
	return files
}

// runRows executes q over files and renders the result rows as one string.
func runRows(t *testing.T, queryText string, files []string, jobs int, opts ScanOptions) (string, *ScanPlan) {
	t.Helper()
	q, err := calql.Parse(queryText)
	if err != nil {
		t.Fatal(err)
	}
	x := NewExec(q, opts, Sharded, nil)
	eng, _, _, err := x.Local(context.Background(), attr.NewRegistry(), Input{Files: files}, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String(), x.Plan
}

// expectSame asserts indexed and full-scan execution agree for the query
// at several worker counts, and returns the indexed plan of the last run.
func expectSame(t *testing.T, queryText string, files []string) *ScanPlan {
	t.Helper()
	var last *ScanPlan
	for _, jobs := range []int{1, 3} {
		want, _ := runRows(t, queryText, files, jobs, ScanOptions{})
		got, plan := runRows(t, queryText, files, jobs, ScanOptions{UseIndex: true})
		if got != want {
			t.Errorf("jobs=%d query %q: indexed output differs\nindexed:\n%s\nfull scan:\n%s",
				jobs, queryText, got, want)
		}
		last = plan
	}
	return last
}

func TestScanPruneSkipsNonMatchingFiles(t *testing.T) {
	files := rankedDataset(t, 4, 50, 8)
	plan := expectSame(t, "AGGREGATE count, sum(time.duration) WHERE mpi.rank = 2 GROUP BY kernel ORDER BY kernel", files)
	st := plan.Stats()
	if st.FilesIndexed != 4 || st.FilesSkipped != 3 {
		t.Errorf("stats = %+v, want 4 indexed / 3 skipped", st)
	}
	if st.RecordsPruned < 150 {
		t.Errorf("RecordsPruned = %d, want >= 150", st.RecordsPruned)
	}
}

func TestScanPruneSkipsBlocksWithinFile(t *testing.T) {
	// dur = 0..49 with 8-record blocks: dur >= 40 lives in the last two
	// blocks (records 40..49), so 5 of 7 blocks prune
	files := rankedDataset(t, 1, 50, 8)
	plan := expectSame(t, "AGGREGATE count WHERE time.duration >= 40 GROUP BY kernel ORDER BY kernel", files)
	st := plan.Stats()
	// 50 records in 8-record blocks = 7 blocks; dur >= 40 lives in the
	// last two (records 40..49), so 5 blocks prune and 2 scan
	if st.BlocksPruned != 5 || st.BlocksScanned != 2 {
		t.Errorf("stats = %+v, want 5 pruned / 2 scanned blocks", st)
	}
}

func TestScanPruneStringZones(t *testing.T) {
	files := rankedDataset(t, 2, 30, 4)
	plan := expectSame(t, "AGGREGATE count WHERE kernel = nosuch GROUP BY kernel", files)
	st := plan.Stats()
	if st.FilesSkipped != 2 {
		t.Errorf("stats = %+v, want both files skipped (kernel zone excludes literal)", st)
	}
}

func TestScanIndexedMatrixMatchesFullScan(t *testing.T) {
	files := rankedDataset(t, 3, 40, 8)
	for _, qt := range []string{
		"SELECT *",
		"SELECT * WHERE mpi.rank = 1",
		"SELECT * WHERE time.duration > 35 ORDER BY time.duration DESC LIMIT 5",
		"AGGREGATE count GROUP BY kernel ORDER BY count DESC",
		"AGGREGATE count, sum(time.duration), max(time.duration) GROUP BY kernel, mpi.rank ORDER BY kernel, mpi.rank",
		"LET ms = scale(time.duration, 0.001) AGGREGATE sum(ms) WHERE kernel = advec GROUP BY mpi.rank ORDER BY mpi.rank",
		"AGGREGATE count WHERE time.duration <= 3 GROUP BY kernel ORDER BY kernel",
		"AGGREGATE avg(time.duration) GROUP BY kernel ORDER BY kernel",
	} {
		expectSame(t, qt, files)
	}
}

// breakIndex applies fn to the sidecar of file and asserts the indexed
// query still matches the full scan, with the fallback counter counting
// the broken index.
func breakIndex(t *testing.T, fn func(t *testing.T, idxPath string)) {
	t.Helper()
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	files := rankedDataset(t, 2, 30, 8)
	fn(t, calformat.IndexPath(files[0]))
	before := telemetry.NewCounter("caligo.index.fallback").Value()
	plan := expectSame(t, "AGGREGATE count, sum(time.duration) WHERE mpi.rank = 1 GROUP BY kernel ORDER BY kernel", files)
	after := telemetry.NewCounter("caligo.index.fallback").Value()
	if after <= before {
		t.Errorf("caligo.index.fallback = %d -> %d, want an increment", before, after)
	}
	st := plan.Stats()
	if st.Fallbacks == 0 {
		t.Errorf("plan stats = %+v, want Fallbacks > 0", st)
	}
	if st.FilesIndexed != 1 {
		t.Errorf("plan stats = %+v, want the intact file still indexed", st)
	}
}

func TestScanStaleIndexFallsBack(t *testing.T) {
	breakIndex(t, func(t *testing.T, idxPath string) {
		// grow the data file after indexing: size mismatch -> stale
		cali := strings.TrimSuffix(idxPath, ".idx")
		f, err := os.OpenFile(cali, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("__rec=ctx,attr=2,data=9\n"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestScanTruncatedIndexFallsBack(t *testing.T) {
	breakIndex(t, func(t *testing.T, idxPath string) {
		b, err := os.ReadFile(idxPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(idxPath, b[:len(b)-5], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestScanCorruptIndexFallsBack(t *testing.T) {
	breakIndex(t, func(t *testing.T, idxPath string) {
		b, err := os.ReadFile(idxPath)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x40
		if err := os.WriteFile(idxPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestScanVersionMismatchFallsBack(t *testing.T) {
	breakIndex(t, func(t *testing.T, idxPath string) {
		cali := strings.TrimSuffix(idxPath, ".idx")
		idx, err := calformat.ReadIndexFile(idxPath)
		if err != nil {
			t.Fatal(err)
		}
		idx.Version = calformat.IndexVersion + 1
		if err := calformat.WriteIndexFile(cali, idx); err != nil {
			t.Fatal(err)
		}
	})
}

func TestScanMissingIndexIsNotAFallback(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	files := rankedDataset(t, 1, 20, 8)
	if err := os.Remove(calformat.IndexPath(files[0])); err != nil {
		t.Fatal(err)
	}
	before := telemetry.NewCounter("caligo.index.fallback").Value()
	plan := expectSame(t, "AGGREGATE count GROUP BY kernel ORDER BY kernel", files)
	if after := telemetry.NewCounter("caligo.index.fallback").Value(); after != before {
		t.Errorf("caligo.index.fallback moved %d -> %d for a merely unindexed file", before, after)
	}
	if st := plan.Stats(); st.FilesIndexed != 0 || st.Fallbacks != 0 {
		t.Errorf("plan stats = %+v, want no index activity", st)
	}
}

func TestProjectionOnlyForAggregation(t *testing.T) {
	sel := NewScanPlan(calql.MustParse("SELECT * WHERE mpi.rank = 1"), ScanOptions{UseIndex: true})
	if sel.Projection() != nil {
		t.Errorf("non-aggregating query got a projection: %v", sel.Projection())
	}
	agg := NewScanPlan(calql.MustParse("AGGREGATE count, sum(time.duration) WHERE mpi.rank = 1 GROUP BY kernel"), ScanOptions{UseIndex: true})
	proj := agg.Projection()
	want := []string{"aggregate.count", "kernel", "mpi.rank", "sum#time.duration", "time.duration"}
	if strings.Join(proj, ",") != strings.Join(want, ",") {
		t.Errorf("projection = %v, want %v", proj, want)
	}
}
