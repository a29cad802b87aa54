package contexttree

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"caligo/internal/attr"
	"caligo/internal/testutil"
)

func testReg(t *testing.T) (*attr.Registry, attr.Attribute, attr.Attribute, attr.Attribute) {
	t.Helper()
	reg := attr.NewRegistry()
	fn := reg.MustCreate("function", attr.String, attr.Nested)
	loop := reg.MustCreate("loop", attr.String, attr.Nested)
	iter := reg.MustCreate("iteration", attr.Int, 0)
	return reg, fn, loop, iter
}

func TestGetChildDeduplicates(t *testing.T) {
	_, fn, _, _ := testReg(t)
	tree := New()
	a := tree.GetChild(InvalidNode, fn, attr.StringV("main"))
	b := tree.GetChild(InvalidNode, fn, attr.StringV("main"))
	if a != b {
		t.Errorf("same (parent,attr,value) produced different nodes: %d vs %d", a, b)
	}
	c := tree.GetChild(InvalidNode, fn, attr.StringV("foo"))
	if c == a {
		t.Error("different values must produce different nodes")
	}
	d := tree.GetChild(a, fn, attr.StringV("foo"))
	if d == c {
		t.Error("same pair under different parents must produce different nodes")
	}
	if tree.Len() != 3 {
		t.Errorf("Len = %d, want 3", tree.Len())
	}
}

func TestPathRoundTrip(t *testing.T) {
	reg, fn, loop, iter := testReg(t)
	tree := New()
	entries := []attr.Entry{
		{Attr: fn, Value: attr.StringV("main")},
		{Attr: loop, Value: attr.StringV("mainloop")},
		{Attr: iter, Value: attr.IntV(17)},
		{Attr: fn, Value: attr.StringV("foo")},
	}
	n := tree.GetPath(InvalidNode, entries)
	got, err := tree.Path(n, reg)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("Path len = %d, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].Attr.ID() != entries[i].Attr.ID() || got[i].Value != entries[i].Value {
			t.Errorf("Path[%d] = %v, want %v", i, got[i], entries[i])
		}
	}
}

// TestPathAllocBudget: Path sizes its result exactly — one allocation
// whatever the depth (snapshot.Record.Unpack calls it per snapshot).
func TestPathAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race instrumentation")
	}
	reg, _, _, iter := testReg(t)
	tree := New()
	n := InvalidNode
	for i := 0; i < 9; i++ {
		n = tree.GetChild(n, iter, attr.IntV(int64(i)))
	}
	avg := testing.AllocsPerRun(100, func() {
		if p, err := tree.Path(n, reg); err != nil || len(p) != 9 {
			t.Fatalf("Path = %d entries, %v", len(p), err)
		}
	})
	if avg != 1 {
		t.Fatalf("Path = %.2f allocs, want 1", avg)
	}
}

// TestAppendPath: AppendPath extends dst after what it already holds,
// allocates nothing once dst has the capacity, and returns dst at its old
// length when the node id is bad.
func TestAppendPath(t *testing.T) {
	reg, fn, _, iter := testReg(t)
	tree := New()
	n := tree.GetChild(InvalidNode, fn, attr.StringV("main"))
	raw := tree.GetChild(n, iter, attr.IntV(7))
	head := attr.Entry{Attr: iter, Value: attr.IntV(-1)}
	dst, err := tree.AppendPath([]attr.Entry{head}, raw, reg)
	want := []attr.Entry{head, {Attr: fn, Value: attr.StringV("main")}, {Attr: iter, Value: attr.IntV(7)}}
	if err != nil || !slices.Equal(dst, want) {
		t.Fatalf("AppendPath = %v, %v; want %v", dst, err, want)
	}
	if dst, err = tree.AppendPath(dst, 42, reg); err == nil || len(dst) != len(want) {
		t.Errorf("AppendPath of a nonexistent node = %d entries, %v; want %d and an error", len(dst), err, len(want))
	}
	if !testutil.RaceEnabled {
		if avg := testing.AllocsPerRun(100, func() { dst, _ = tree.AppendPath(dst[:0], raw, reg) }); avg != 0 {
			t.Errorf("AppendPath into a large enough dst = %.2f allocs, want 0", avg)
		}
	}
}

func TestPathOfInvalidNode(t *testing.T) {
	reg, _, _, _ := testReg(t)
	tree := New()
	p, err := tree.Path(InvalidNode, reg)
	if err != nil || len(p) != 0 {
		t.Errorf("Path(InvalidNode) = %v,%v; want empty,nil", p, err)
	}
	if _, err := tree.Path(42, reg); err == nil {
		t.Error("Path of nonexistent node should error")
	}
}

func TestEntryAndParent(t *testing.T) {
	_, fn, _, _ := testReg(t)
	tree := New()
	root := tree.GetChild(InvalidNode, fn, attr.StringV("main"))
	child := tree.GetChild(root, fn, attr.StringV("foo"))
	aid, v, err := tree.Entry(child)
	if err != nil || aid != fn.ID() || v.String() != "foo" {
		t.Errorf("Entry = %v,%v,%v", aid, v, err)
	}
	if tree.Parent(child) != root {
		t.Errorf("Parent(child) = %d, want %d", tree.Parent(child), root)
	}
	if tree.Parent(root) != InvalidNode {
		t.Error("root parent should be InvalidNode")
	}
	if tree.Parent(99) != InvalidNode {
		t.Error("out-of-range parent should be InvalidNode")
	}
	if _, _, err := tree.Entry(99); err == nil {
		t.Error("Entry out-of-range should error")
	}
}

func TestConcurrentGetChild(t *testing.T) {
	_, fn, _, iter := testReg(t)
	tree := New()
	var wg sync.WaitGroup
	results := make([][]NodeID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]NodeID, 50)
			for i := 0; i < 50; i++ {
				parent := tree.GetChild(InvalidNode, fn, attr.StringV(fmt.Sprintf("f%d", i%10)))
				ids[i] = tree.GetChild(parent, iter, attr.IntV(int64(i%5)))
			}
			results[g] = ids
		}(g)
	}
	wg.Wait()
	// All goroutines must agree on node ids for identical paths.
	for g := 1; g < 8; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got node %d for path %d, goroutine 0 got %d",
					g, results[g][i], i, results[0][i])
			}
		}
	}
	// 10 parents, and since i%5 is determined by i%10, one child each.
	if tree.Len() != 20 {
		t.Errorf("Len = %d, want 20", tree.Len())
	}
}

func TestQuickPathRoundTrip(t *testing.T) {
	reg := attr.NewRegistry()
	attrs := []attr.Attribute{
		reg.MustCreate("a", attr.String, 0),
		reg.MustCreate("b", attr.Int, 0),
		reg.MustCreate("c", attr.Float, 0),
	}
	tree := New()
	f := func(sel []uint8, ival int64, sval string) bool {
		if len(sel) > 12 {
			sel = sel[:12]
		}
		var entries []attr.Entry
		for _, s := range sel {
			a := attrs[int(s)%len(attrs)]
			var v attr.Variant
			switch a.Type() {
			case attr.String:
				v = attr.StringV(sval)
			case attr.Int:
				v = attr.IntV(ival)
			default:
				v = attr.FloatV(float64(ival) / 2)
			}
			entries = append(entries, attr.Entry{Attr: a, Value: v})
		}
		n := tree.GetPath(InvalidNode, entries)
		got, err := tree.Path(n, reg)
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range entries {
			if got[i].Attr.ID() != entries[i].Attr.ID() || got[i].Value != entries[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
