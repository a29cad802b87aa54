package paradis

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/calformat"
	"caligo/internal/calql"
	"caligo/internal/contexttree"
	"caligo/internal/query"
)

func TestDefaultShapeMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.RecordsPerFile(); got != 2174 {
		t.Errorf("RecordsPerFile = %d, want 2174 (paper)", got)
	}
	if got := cfg.Groups(); got != 85 {
		t.Errorf("Groups = %d, want 85 (paper)", got)
	}
}

func TestWriteRankRecordCount(t *testing.T) {
	cfg := DefaultConfig()
	var buf bytes.Buffer
	if err := WriteRank(&buf, 3, cfg); err != nil {
		t.Fatal(err)
	}
	rd := calformat.NewReader(&buf, attr.NewRegistry(), contexttree.New())
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != cfg.RecordsPerFile() {
		t.Errorf("records = %d, want %d", len(recs), cfg.RecordsPerFile())
	}
	// all non-init records carry rank, count, duration
	for _, r := range recs {
		if v, ok := r.GetByName("mpi.rank"); !ok || v.AsInt() != 3 {
			t.Fatalf("record lacks mpi.rank=3: %s", r)
		}
		if _, ok := r.GetByName("aggregate.count"); !ok {
			t.Fatalf("record lacks count: %s", r)
		}
		if _, ok := r.GetByName("sum#time.duration"); !ok {
			t.Fatalf("record lacks duration: %s", r)
		}
	}
}

func TestEvaluationQueryProduces85Rows(t *testing.T) {
	cfg := DefaultConfig()
	var buf bytes.Buffer
	if err := WriteRank(&buf, 0, cfg); err != nil {
		t.Fatal(err)
	}
	reg := attr.NewRegistry()
	tree := contexttree.New()
	recs, err := calformat.NewReader(&buf, reg, tree).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	q := calql.MustParse(EvaluationQuery)
	rows, err := query.Run(q, reg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 85 {
		t.Errorf("evaluation query rows = %d, want 85 (paper)", len(rows))
	}
}

// TestReaderTreeSink: a Reader's records do not depend on whether it is
// given a context tree, and a tree it is given grows exactly as it did
// when the Reader resolved paths through it (node counts measured before
// the Reader got its own node table) — cali-stat's node count and the
// index's TreeNodes come from there.
func TestReaderTreeSink(t *testing.T) {
	cfg := DefaultConfig()
	var ranks [2]bytes.Buffer
	for i := range ranks {
		if err := WriteRank(&ranks[i], i, cfg); err != nil {
			t.Fatal(err)
		}
	}
	appended := append(append([]byte{}, ranks[0].Bytes()...), ranks[1].Bytes()...)

	plain, err := calformat.NewReader(bytes.NewReader(appended), attr.NewRegistry(), nil).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	tree := contexttree.New()
	sunk, err := calformat.NewReader(bytes.NewReader(appended), attr.NewRegistry(), tree).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 2*cfg.RecordsPerFile() || len(sunk) != len(plain) {
		t.Fatalf("records = %d without a tree, %d with, want %d", len(plain), len(sunk), 2*cfg.RecordsPerFile())
	}
	for i := range plain {
		// as entry slices: FlatRecord.String would sort the entries
		if p, s := fmt.Sprint([]attr.Entry(plain[i])), fmt.Sprint([]attr.Entry(sunk[i])); p != s {
			t.Fatalf("record %d: %s without a tree, %s with", i, p, s)
		}
	}
	if tree.Len() != 4304 {
		t.Errorf("appended stream: tree has %d nodes, want 4304", tree.Len())
	}

	// two files into one shared registry and tree
	reg, shared := attr.NewRegistry(), contexttree.New()
	for i, want := range []int{2152, 4304} {
		if _, err := calformat.NewReader(&ranks[i], reg, shared).ReadAll(); err != nil {
			t.Fatal(err)
		}
		if shared.Len() != want {
			t.Errorf("after rank %d: shared tree has %d nodes, want %d", i, shared.Len(), want)
		}
	}
}

func TestDeterministicPerRank(t *testing.T) {
	cfg := Config{Kernels: 5, MPIFunctions: 3, Iterations: 2, ExtraRecords: 1}
	var a, b bytes.Buffer
	WriteRank(&a, 7, cfg)
	WriteRank(&b, 7, cfg)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same rank must generate identical bytes")
	}
	var c bytes.Buffer
	WriteRank(&c, 8, cfg)
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("different ranks must differ")
	}
}

func TestGenerateDir(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Kernels: 4, MPIFunctions: 2, Iterations: 3, ExtraRecords: 0}
	paths, err := GenerateDir(filepath.Join(dir, "ds"), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := calformat.NewReader(f, attr.NewRegistry(), contexttree.New()).ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != cfg.RecordsPerFile() {
			t.Errorf("%s: %d records, want %d", p, len(recs), cfg.RecordsPerFile())
		}
	}
	if _, err := GenerateDir(dir, 0, cfg); err == nil {
		t.Error("ranks=0 should error")
	}
}

func TestInvalidConfig(t *testing.T) {
	bad := []Config{
		{Kernels: 0, MPIFunctions: 1, Iterations: 1},
		{Kernels: 1, MPIFunctions: 0, Iterations: 1},
		{Kernels: 1, MPIFunctions: 1, Iterations: 0},
		{Kernels: 1, MPIFunctions: 1, Iterations: 1, ExtraRecords: -1},
	}
	for _, c := range bad {
		var buf bytes.Buffer
		if err := WriteRank(&buf, 0, c); err == nil {
			t.Errorf("WriteRank(%+v) should fail", c)
		}
	}
}

func TestNameGenerators(t *testing.T) {
	if KernelName(0) != "force-calc" {
		t.Errorf("KernelName(0) = %q", KernelName(0))
	}
	if KernelName(99) != "subroutine-99" {
		t.Errorf("KernelName(99) = %q", KernelName(99))
	}
	if MPIName(0) != "MPI_Allreduce" {
		t.Errorf("MPIName(0) = %q", MPIName(0))
	}
	if MPIName(80) != "MPI_X80" {
		t.Errorf("MPIName(80) = %q", MPIName(80))
	}
	// uniqueness within default config range
	cfg := DefaultConfig()
	seen := map[string]bool{}
	for i := 0; i < cfg.Kernels; i++ {
		n := KernelName(i)
		if seen[n] {
			t.Errorf("duplicate kernel name %q", n)
		}
		seen[n] = true
	}
	for i := 0; i < cfg.MPIFunctions; i++ {
		n := MPIName(i)
		if seen[n] {
			t.Errorf("duplicate MPI name %q", n)
		}
		seen[n] = true
	}
}
