package blackboard

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

type fixture struct {
	reg  *attr.Registry
	tree *contexttree.Tree
	bb   *Blackboard
	fn   attr.Attribute // nested string
	loop attr.Attribute // nested string
	iter attr.Attribute // plain int (reference, not nested)
	dur  attr.Attribute // asvalue float
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	reg := attr.NewRegistry()
	tree := contexttree.New()
	return &fixture{
		reg:  reg,
		tree: tree,
		bb:   New(tree, reg),
		fn:   reg.MustCreate("function", attr.String, attr.Nested),
		loop: reg.MustCreate("loop", attr.String, attr.Nested),
		iter: reg.MustCreate("iteration", attr.Int, 0),
		dur:  reg.MustCreate("time.duration", attr.Float, attr.AsValue),
	}
}

func (fx *fixture) flat(t *testing.T) snapshot.FlatRecord {
	t.Helper()
	var sb snapshot.Builder
	fx.bb.Snapshot(&sb)
	f, err := sb.Record().Unpack(fx.tree, fx.reg)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	return f
}

func TestNestedBeginEnd(t *testing.T) {
	fx := newFixture(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fx.bb.Begin(fx.fn, attr.StringV("main")))
	must(fx.bb.Begin(fx.loop, attr.StringV("mainloop")))
	must(fx.bb.Begin(fx.fn, attr.StringV("foo")))

	f := fx.flat(t)
	if p := f.PathOf(fx.fn.ID(), "/"); p != "main/foo" {
		t.Errorf("fn path = %q, want main/foo", p)
	}
	if v, ok := f.Get(fx.loop.ID()); !ok || v.String() != "mainloop" {
		t.Errorf("loop = %v,%v", v, ok)
	}

	must(fx.bb.End(fx.fn))
	must(fx.bb.End(fx.loop))
	must(fx.bb.End(fx.fn))
	if len(fx.flat(t)) != 0 {
		t.Errorf("blackboard not empty after all ends: %v", fx.flat(t))
	}
}

func TestMismatchedNestingDetected(t *testing.T) {
	fx := newFixture(t)
	fx.bb.Begin(fx.fn, attr.StringV("main"))
	fx.bb.Begin(fx.loop, attr.StringV("l"))
	if err := fx.bb.End(fx.fn); err == nil {
		t.Error("ending fn while loop is innermost should error")
	}
	// after the error, state is unchanged: loop can still be ended
	if err := fx.bb.End(fx.loop); err != nil {
		t.Errorf("End(loop) after failed End(fn): %v", err)
	}
}

func TestEndWithoutBegin(t *testing.T) {
	fx := newFixture(t)
	if err := fx.bb.End(fx.fn); err == nil {
		t.Error("End on empty nested stack should error")
	}
	if err := fx.bb.End(fx.iter); err == nil {
		t.Error("End on empty ref stack should error")
	}
	if err := fx.bb.End(fx.dur); err == nil {
		t.Error("End on empty imm stack should error")
	}
}

func TestInvalidAttribute(t *testing.T) {
	fx := newFixture(t)
	var bad attr.Attribute
	if err := fx.bb.Begin(bad, attr.IntV(1)); err == nil {
		t.Error("Begin invalid attr should error")
	}
	if err := fx.bb.End(bad); err == nil {
		t.Error("End invalid attr should error")
	}
	if err := fx.bb.Set(bad, attr.IntV(1)); err == nil {
		t.Error("Set invalid attr should error")
	}
}

func TestReferenceAttributeStack(t *testing.T) {
	fx := newFixture(t)
	fx.bb.Begin(fx.iter, attr.IntV(1))
	fx.bb.Begin(fx.iter, attr.IntV(2))
	f := fx.flat(t)
	vals := f.ValuesOf(fx.iter.ID())
	if len(vals) != 2 || vals[0].AsInt() != 1 || vals[1].AsInt() != 2 {
		t.Errorf("iter stack = %v, want [1 2]", vals)
	}
	if fx.bb.Depth(fx.iter) != 2 {
		t.Errorf("Depth = %d, want 2", fx.bb.Depth(fx.iter))
	}
	fx.bb.End(fx.iter)
	if v, ok := fx.bb.Get(fx.iter); !ok || v.AsInt() != 1 {
		t.Errorf("Get after pop = %v,%v; want 1", v, ok)
	}
}

func TestSetSemantics(t *testing.T) {
	fx := newFixture(t)
	// Set on empty opens a region.
	fx.bb.Set(fx.iter, attr.IntV(5))
	if v, _ := fx.bb.Get(fx.iter); v.AsInt() != 5 {
		t.Errorf("Set-open failed: %v", v)
	}
	// Set replaces the top, not pushes.
	fx.bb.Set(fx.iter, attr.IntV(6))
	if fx.bb.Depth(fx.iter) != 1 {
		t.Errorf("Set pushed instead of replaced: depth %d", fx.bb.Depth(fx.iter))
	}
	if v, _ := fx.bb.Get(fx.iter); v.AsInt() != 6 {
		t.Errorf("Set-replace failed: %v", v)
	}
	// Replacement under a stacked value keeps the parent chain.
	fx.bb.Begin(fx.iter, attr.IntV(7))
	fx.bb.Set(fx.iter, attr.IntV(8))
	vals := fx.flat(t).ValuesOf(fx.iter.ID())
	if len(vals) != 2 || vals[0].AsInt() != 6 || vals[1].AsInt() != 8 {
		t.Errorf("stacked set = %v, want [6 8]", vals)
	}
}

func TestSetNested(t *testing.T) {
	fx := newFixture(t)
	fx.bb.Begin(fx.fn, attr.StringV("main"))
	// Setting loop (not currently innermost) pushes.
	fx.bb.Set(fx.loop, attr.StringV("l0"))
	// Setting loop again (now innermost) replaces.
	fx.bb.Set(fx.loop, attr.StringV("l1"))
	f := fx.flat(t)
	if v, _ := f.Get(fx.loop.ID()); v.String() != "l1" {
		t.Errorf("loop = %v, want l1", v)
	}
	if got := len(f.ValuesOf(fx.loop.ID())); got != 1 {
		t.Errorf("loop depth = %d, want 1", got)
	}
	if v, _ := f.Get(fx.fn.ID()); v.String() != "main" {
		t.Errorf("fn = %v, want main", v)
	}
	if err := fx.bb.End(fx.loop); err != nil {
		t.Errorf("End(loop): %v", err)
	}
	if err := fx.bb.End(fx.fn); err != nil {
		t.Errorf("End(fn): %v", err)
	}
}

func TestImmediateAttribute(t *testing.T) {
	fx := newFixture(t)
	fx.bb.Begin(fx.dur, attr.FloatV(1.5))
	f := fx.flat(t)
	if v, ok := f.Get(fx.dur.ID()); !ok || v.AsFloat() != 1.5 {
		t.Errorf("imm = %v,%v", v, ok)
	}
	fx.bb.Set(fx.dur, attr.FloatV(2.5))
	if v, _ := fx.bb.Get(fx.dur); v.AsFloat() != 2.5 {
		t.Error("imm Set-replace failed")
	}
	fx.bb.End(fx.dur)
	if _, ok := fx.bb.Get(fx.dur); ok {
		t.Error("imm should be unset after End")
	}
}

func TestHiddenAttributeExcludedFromSnapshot(t *testing.T) {
	fx := newFixture(t)
	hidden := fx.reg.MustCreate("secret", attr.Int, attr.Hidden)
	hiddenImm := fx.reg.MustCreate("secret.value", attr.Int, attr.Hidden|attr.AsValue)
	fx.bb.Begin(hidden, attr.IntV(1))
	fx.bb.Begin(hiddenImm, attr.IntV(2))
	fx.bb.Begin(fx.iter, attr.IntV(3))
	f := fx.flat(t)
	if len(f.ValuesOf(hidden.ID())) > 0 || len(f.ValuesOf(hiddenImm.ID())) > 0 {
		t.Errorf("hidden attributes leaked into snapshot: %v", f)
	}
	if len(f.ValuesOf(fx.iter.ID())) == 0 {
		t.Error("visible attribute missing")
	}
}

func TestClearAndUpdates(t *testing.T) {
	fx := newFixture(t)
	fx.bb.Begin(fx.fn, attr.StringV("a"))
	fx.bb.Begin(fx.iter, attr.IntV(1))
	fx.bb.Begin(fx.dur, attr.FloatV(2))
	if fx.bb.Updates() != 3 {
		t.Errorf("Updates = %d, want 3", fx.bb.Updates())
	}
	fx.bb.Clear()
	if len(fx.flat(t)) != 0 {
		t.Error("Clear left entries behind")
	}
	if _, ok := fx.bb.Get(fx.fn); ok {
		t.Error("Get after Clear should miss")
	}
}

func TestGetOnEmpty(t *testing.T) {
	fx := newFixture(t)
	for _, a := range []attr.Attribute{fx.fn, fx.iter, fx.dur} {
		if _, ok := fx.bb.Get(a); ok {
			t.Errorf("Get(%s) on empty blackboard should miss", a.Name())
		}
	}
	if fx.bb.Depth(fx.fn) != 0 || fx.bb.Depth(fx.iter) != 0 || fx.bb.Depth(fx.dur) != 0 {
		t.Error("Depth on empty should be 0")
	}
}

// TestQuickStackDiscipline drives random begin/end sequences and checks the
// blackboard matches a reference stack implementation.
func TestQuickStackDiscipline(t *testing.T) {
	fx := newFixture(t)
	f := func(ops []uint16, seed int64) bool {
		fx.bb.Clear()
		rng := rand.New(rand.NewSource(seed))
		attrs := []attr.Attribute{fx.fn, fx.loop, fx.iter, fx.dur}
		// reference model: one global stack for nested attrs, per-attr stacks otherwise
		var nestedRef []attr.Entry
		refRef := map[attr.ID][]attr.Variant{}
		for _, op := range ops {
			a := attrs[int(op)%len(attrs)]
			v := attr.IntV(int64(rng.Intn(5)))
			if a.Type() == attr.String {
				v = attr.StringV(string(rune('a' + rng.Intn(5))))
			} else if a.Type() == attr.Float {
				v = attr.FloatV(float64(rng.Intn(5)))
			}
			if op&0x8000 == 0 { // begin
				if err := fx.bb.Begin(a, v); err != nil {
					return false
				}
				if a.IsNested() {
					nestedRef = append(nestedRef, attr.Entry{Attr: a, Value: v})
				} else {
					refRef[a.ID()] = append(refRef[a.ID()], v)
				}
			} else { // end innermost region of a, only when legal
				if a.IsNested() {
					if len(nestedRef) == 0 || nestedRef[len(nestedRef)-1].Attr.ID() != a.ID() {
						if err := fx.bb.End(a); err == nil {
							return false // must have errored
						}
						continue
					}
					nestedRef = nestedRef[:len(nestedRef)-1]
				} else {
					if len(refRef[a.ID()]) == 0 {
						if err := fx.bb.End(a); err == nil {
							return false
						}
						continue
					}
					refRef[a.ID()] = refRef[a.ID()][:len(refRef[a.ID()])-1]
				}
				if err := fx.bb.End(a); err != nil {
					return false
				}
			}
		}
		// verify final state matches the reference
		var sb snapshot.Builder
		fx.bb.Snapshot(&sb)
		flat, err := sb.Record().Unpack(fx.tree, fx.reg)
		if err != nil {
			return false
		}
		for _, a := range attrs {
			var want []attr.Variant
			switch {
			case a.IsNested():
				for _, e := range nestedRef {
					if e.Attr.ID() == a.ID() {
						want = append(want, e.Value)
					}
				}
			case a.StoreAsValue():
				// snapshots capture only the top immediate value
				if st := refRef[a.ID()]; len(st) > 0 {
					want = st[len(st)-1:]
				}
			default:
				want = refRef[a.ID()]
			}
			got := flat.ValuesOf(a.ID())
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotOrderIsFirstBegin: with several reference and several
// as-value attributes open, every snapshot lists them in the order they
// were first begun — not in an order that changes from call to call.
func TestSnapshotOrderIsFirstBegin(t *testing.T) {
	fx := newFixture(t)
	var want []string
	for _, name := range []string{"ref.c", "ref.a", "ref.b"} {
		a := fx.reg.MustCreate(name, attr.Int, 0)
		if err := fx.bb.Begin(a, attr.IntV(1)); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	for _, name := range []string{"val.b", "val.c", "val.a"} {
		a := fx.reg.MustCreate(name, attr.Int, attr.AsValue)
		if err := fx.bb.Begin(a, attr.IntV(2)); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	for i := 0; i < 200; i++ {
		// closing and reopening one keeps its place
		if err := fx.bb.End(fx.reg.MustCreate("ref.a", attr.Int, 0)); err != nil {
			t.Fatal(err)
		}
		if err := fx.bb.Begin(fx.reg.MustCreate("ref.a", attr.Int, 0), attr.IntV(1)); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range fx.flat(t) {
			got = append(got, e.Attr.Name())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("snapshot %d lists %v, want %v", i, got, want)
		}
	}
}

// Get returns the innermost current value of attribute a: the test
// oracle for what Begin, Set and End left on the blackboard.
func (b *Blackboard) Get(a attr.Attribute) (attr.Variant, bool) {
	switch {
	case a.StoreAsValue():
		return stackOf(&b.immStacks, a, false).top()
	case a.IsNested():
		for n := b.nested; n != contexttree.InvalidNode; n = b.tree.Parent(n) {
			if aid, v, err := b.tree.Entry(n); err == nil && aid == a.ID() {
				return v, true
			}
		}
		return attr.Variant{}, false
	default:
		tip, ok := stackOf(&b.refStacks, a, false).top()
		if !ok {
			return attr.Variant{}, false
		}
		aid, v, err := b.tree.Entry(tip)
		if err != nil || aid != a.ID() {
			return attr.Variant{}, false
		}
		return v, true
	}
}

// Clear resets the blackboard to the empty state between test cases.
func (b *Blackboard) Clear() {
	b.nested = contexttree.InvalidNode
	b.nestedStack = b.nestedStack[:0]
	b.refStacks = b.refStacks[:0]
	b.immStacks = b.immStacks[:0]
}
