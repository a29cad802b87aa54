package snapshot

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
)

type fixture struct {
	reg  *attr.Registry
	tree *contexttree.Tree
	fn   attr.Attribute
	iter attr.Attribute
	dur  attr.Attribute
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	reg := attr.NewRegistry()
	return &fixture{
		reg:  reg,
		tree: contexttree.New(),
		fn:   reg.MustCreate("function", attr.String, attr.Nested),
		iter: reg.MustCreate("iteration", attr.Int, 0),
		dur:  reg.MustCreate("time.duration", attr.Float, attr.AsValue|attr.Aggregatable),
	}
}

func TestBuilderAndUnpack(t *testing.T) {
	fx := newFixture(t)
	n := fx.tree.GetPath(contexttree.InvalidNode, []attr.Entry{
		{Attr: fx.fn, Value: attr.StringV("main")},
		{Attr: fx.fn, Value: attr.StringV("foo")},
	})
	var b Builder
	b.AddNode(n)
	b.AddImmediate(fx.dur, attr.FloatV(2.5))
	rec := b.Record()

	if rec.Empty() {
		t.Fatal("record should not be empty")
	}
	flat, err := rec.Unpack(fx.tree, fx.reg)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if len(flat) != 3 {
		t.Fatalf("flat len = %d, want 3: %v", len(flat), flat)
	}
	if flat[0].Value.String() != "main" || flat[1].Value.String() != "foo" {
		t.Errorf("path order wrong: %v", flat)
	}
	if flat[2].Attr.ID() != fx.dur.ID() || flat[2].Value.AsFloat() != 2.5 {
		t.Errorf("immediate entry wrong: %v", flat[2])
	}
}

func TestBuilderDeduplicatesNodes(t *testing.T) {
	fx := newFixture(t)
	n := fx.tree.GetChild(contexttree.InvalidNode, fx.fn, attr.StringV("f"))
	var b Builder
	b.AddNode(n)
	b.AddNode(n)
	b.AddNode(contexttree.InvalidNode)
	if got := len(b.Record().Nodes); got != 1 {
		t.Errorf("nodes = %d, want 1", got)
	}
	b.AddImmediate(attr.Attribute{}, attr.IntV(1)) // invalid attr ignored
	if got := len(b.Record().Imm); got != 0 {
		t.Errorf("invalid immediate not ignored: %d", got)
	}
}

func TestBuilderReset(t *testing.T) {
	fx := newFixture(t)
	var b Builder
	b.AddNode(fx.tree.GetChild(contexttree.InvalidNode, fx.fn, attr.StringV("f")))
	b.AddImmediate(fx.dur, attr.FloatV(1))
	b.Reset()
	if !b.Record().Empty() {
		t.Error("Reset should clear record")
	}
}

func TestRecordClone(t *testing.T) {
	fx := newFixture(t)
	var b Builder
	b.AddNode(fx.tree.GetChild(contexttree.InvalidNode, fx.fn, attr.StringV("f")))
	b.AddImmediate(fx.dur, attr.FloatV(1))
	rec := b.Record()
	cl := rec.Clone()
	cl.Imm[0].Value = attr.FloatV(99)
	if rec.Imm[0].Value.AsFloat() != 1 {
		t.Error("Clone must deep-copy immediate entries")
	}
	empty := Record{}
	ecl := empty.Clone()
	if !ecl.Empty() {
		t.Error("clone of empty should be empty")
	}
}

func TestUnpackError(t *testing.T) {
	fx := newFixture(t)
	rec := Record{Nodes: []contexttree.NodeID{42}}
	if _, err := rec.Unpack(fx.tree, fx.reg); err == nil {
		t.Error("Unpack with bad node id should error")
	}
}

func TestFlatRecordAccessors(t *testing.T) {
	fx := newFixture(t)
	f := FlatRecord{
		{Attr: fx.fn, Value: attr.StringV("main")},
		{Attr: fx.fn, Value: attr.StringV("foo")},
		{Attr: fx.iter, Value: attr.IntV(7)},
	}
	if v, ok := f.Get(fx.fn.ID()); !ok || v.String() != "foo" {
		t.Errorf("Get = %v,%v; want innermost foo", v, ok)
	}
	if v, ok := f.GetByName("iteration"); !ok || v.AsInt() != 7 {
		t.Errorf("GetByName = %v,%v", v, ok)
	}
	if _, ok := f.GetByName("nope"); ok {
		t.Error("GetByName should miss")
	}
	if vals := f.ValuesOf(fx.fn.ID()); len(vals) != 2 || vals[0].String() != "main" {
		t.Errorf("ValuesOf = %v", vals)
	}
	if p := f.PathOf(fx.fn.ID(), "/"); p != "main/foo" {
		t.Errorf("PathOf = %q, want main/foo", p)
	}
	s := f.String()
	if s != "{function=main,function=foo,iteration=7}" {
		t.Errorf("String = %q, want entries in record order", s)
	}
	var empty FlatRecord
	if _, ok := empty.Get(fx.fn.ID()); ok {
		t.Error("empty Get should miss")
	}
	if empty.PathOf(fx.fn.ID(), "/") != "" {
		t.Error("empty PathOf should be empty string")
	}
}

// TestUnpackIntoMatchesUnpack: over generated records, UnpackInto into one
// reused dst gives exactly what Unpack allocates, an invalid node id is an
// error from both, and dst stays usable after the error.
func TestUnpackIntoMatchesUnpack(t *testing.T) {
	fx := newFixture(t)
	rng := rand.New(rand.NewSource(15))
	var nodes []contexttree.NodeID
	for i := 0; i < 40; i++ {
		parent := contexttree.InvalidNode
		if len(nodes) > 0 && rng.Intn(4) > 0 {
			parent = nodes[rng.Intn(len(nodes))]
		}
		if rng.Intn(2) == 0 {
			nodes = append(nodes, fx.tree.GetChild(parent, fx.fn, attr.StringV(fmt.Sprint("f", rng.Intn(5)))))
		} else {
			nodes = append(nodes, fx.tree.GetChild(parent, fx.iter, attr.IntV(int64(rng.Intn(5)))))
		}
	}
	nodes = append(nodes, fx.tree.GetChild(nodes[0], fx.iter, attr.IntV(99)))

	var dst FlatRecord
	for i := 0; i < 500; i++ {
		var b Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.AddNode(nodes[rng.Intn(len(nodes))])
		}
		for n := rng.Intn(3); n > 0; n-- {
			b.AddImmediate(fx.dur, attr.FloatV(rng.Float64()))
		}
		bad := i%50 == 49
		if bad {
			b.AddNode(contexttree.NodeID(fx.tree.Len() + rng.Intn(3)))
		}
		rec := b.Record()
		want, wantErr := rec.Unpack(fx.tree, fx.reg)
		var gotErr error
		dst, gotErr = rec.UnpackInto(dst, fx.tree, fx.reg)
		if bad {
			if wantErr == nil || gotErr == nil {
				t.Fatalf("record %d: invalid node id: Unpack err %v, UnpackInto err %v", i, wantErr, gotErr)
			}
			if len(dst) != 0 {
				t.Fatalf("record %d: UnpackInto left %d entries after an error", i, len(dst))
			}
			continue
		}
		if wantErr != nil || gotErr != nil {
			t.Fatalf("record %d: Unpack err %v, UnpackInto err %v", i, wantErr, gotErr)
		}
		if !slices.Equal(dst, want) {
			t.Fatalf("record %d: UnpackInto = %v, Unpack = %v", i, dst, want)
		}
	}
}
