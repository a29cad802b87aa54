// Package blackboard implements the runtime blackboard: the globally
// visible data structure that instrumentation and data-collection services
// update with the current program state (Section IV-A of the paper).
//
// A blackboard tracks, per attribute, a stack of current values with
// begin/end (push/pop) and set (replace) semantics. Attributes with the
// Nested property share one interleaved stack, chained into a single
// context-tree branch, so that e.g. "function" regions nest correctly
// inside "loop" regions and one node reference captures the whole
// annotation stack. Snapshots capture a compressed copy of the current
// contents.
//
// A Blackboard is owned by one thread of execution (one caliper.Thread
// handle) and is not safe for concurrent use; this mirrors Caliper's
// per-thread design that avoids locks on the hot path.
package blackboard

import (
	"fmt"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
	"caligo/internal/snapshot"
)

// Blackboard tracks the current attribute state for one thread.
type Blackboard struct {
	tree *contexttree.Tree

	// nested is the tip of the shared context-tree branch holding all
	// currently open Nested attribute regions; nestedStack remembers, per
	// open region, its attribute (for validation) and the tip below it (so
	// End pops without asking the tree).
	nested      contexttree.NodeID
	nestedStack []nestedRegion

	// refStacks holds, per non-nested reference attribute, the stack of
	// tree nodes (each node chains onto the previous one of the same
	// attribute, so the node path encodes the stack); immStacks holds the
	// value stacks of AsValue attributes. Both are in first-Begin order,
	// which is the order Snapshot emits them in.
	refStacks []stack[contexttree.NodeID]
	immStacks []stack[attr.Variant]

	// updates counts Begin, End and Set calls on valid attributes, an End
	// that fails included (for tests and stats).
	updates uint64
}

type nestedRegion struct {
	attr   attr.Attribute
	parent contexttree.NodeID
}

// stack is one attribute's open values, innermost last. It keeps the
// attribute handle of the latest Begin or Set, so Snapshot sees properties
// merged in since the first one.
type stack[T any] struct {
	attr  attr.Attribute
	items []T
}

// stackOf returns attribute a's stack among stacks. With create a missing
// one is appended (and a found one takes a as its handle); without, a
// missing one is nil.
func stackOf[T any](stacks *[]stack[T], a attr.Attribute, create bool) *stack[T] {
	for i := range *stacks {
		if st := &(*stacks)[i]; st.attr.ID() == a.ID() {
			if create {
				st.attr = a
			}
			return st
		}
	}
	if !create {
		return nil
	}
	*stacks = append(*stacks, stack[T]{attr: a})
	return &(*stacks)[len(*stacks)-1]
}

// top returns the innermost open value; ok is false on a missing or empty
// stack.
func (st *stack[T]) top() (v T, ok bool) {
	if st.depth() == 0 {
		return v, false
	}
	return st.items[len(st.items)-1], true
}

// depth returns the number of open values, 0 for a missing stack.
func (st *stack[T]) depth() int {
	if st == nil {
		return 0
	}
	return len(st.items)
}

// New returns a blackboard writing reference entries into tree. The
// blackboard keeps the attribute handles it is given and reads no registry;
// the parameter stays because bench/ constructs blackboards with one.
func New(tree *contexttree.Tree, _ *attr.Registry) *Blackboard {
	return &Blackboard{tree: tree, nested: contexttree.InvalidNode}
}

// Updates returns the number of Begin, End and Set calls made on valid
// attributes.
func (b *Blackboard) Updates() uint64 { return b.updates }

// Begin opens a region: pushes value v for attribute a.
func (b *Blackboard) Begin(a attr.Attribute, v attr.Variant) error {
	if !a.IsValid() {
		return fmt.Errorf("blackboard: Begin: invalid attribute")
	}
	b.updates++
	switch {
	case a.StoreAsValue():
		st := stackOf(&b.immStacks, a, true)
		st.items = append(st.items, v)
	case a.IsNested():
		b.nestedStack = append(b.nestedStack, nestedRegion{attr: a, parent: b.nested})
		b.nested = b.tree.GetChild(b.nested, a, v)
	default:
		st := stackOf(&b.refStacks, a, true)
		parent := contexttree.InvalidNode
		if len(st.items) > 0 {
			parent = st.items[len(st.items)-1]
		}
		st.items = append(st.items, b.tree.GetChild(parent, a, v))
	}
	return nil
}

// CheckEnd reports the error End(a) would return for a valid attribute,
// changing nothing: ending an attribute that is not the innermost open
// Nested region is an error (mismatched nesting), as is ending an attribute
// with no open region.
func (b *Blackboard) CheckEnd(a attr.Attribute) error {
	if n := len(b.nestedStack); n > 0 && a.IsNested() && !a.StoreAsValue() {
		if top := b.nestedStack[n-1].attr; top.ID() != a.ID() {
			return fmt.Errorf("blackboard: End(%s): mismatched nesting, innermost open region is %s",
				a.Name(), top.Name())
		}
		return nil
	}
	if b.Depth(a) == 0 {
		return fmt.Errorf("blackboard: End(%s): no open region", a.Name())
	}
	return nil
}

// End closes the innermost open region of attribute a, or returns
// CheckEnd's error and leaves the stacks as they were.
func (b *Blackboard) End(a attr.Attribute) error {
	if !a.IsValid() {
		return fmt.Errorf("blackboard: End: invalid attribute")
	}
	b.updates++
	if err := b.CheckEnd(a); err != nil {
		return err
	}
	switch {
	case a.StoreAsValue():
		st := stackOf(&b.immStacks, a, false)
		st.items = st.items[:len(st.items)-1]
	case a.IsNested():
		top := len(b.nestedStack) - 1
		b.nested = b.nestedStack[top].parent
		b.nestedStack = b.nestedStack[:top]
	default:
		st := stackOf(&b.refStacks, a, false)
		st.items = st.items[:len(st.items)-1]
	}
	return nil
}

// Set replaces the innermost value of attribute a (or opens a region if
// none is open). Set on Nested attributes is only valid when the attribute
// is itself the innermost open nested region or no nested region of it is
// open at the tip; in the general case Set pushes a new value.
func (b *Blackboard) Set(a attr.Attribute, v attr.Variant) error {
	if !a.IsValid() {
		return fmt.Errorf("blackboard: Set: invalid attribute")
	}
	b.updates++
	switch {
	case a.StoreAsValue():
		st := stackOf(&b.immStacks, a, true)
		if len(st.items) == 0 {
			st.items = append(st.items, v)
		} else {
			st.items[len(st.items)-1] = v
		}
	case a.IsNested():
		if top := len(b.nestedStack) - 1; top >= 0 && b.nestedStack[top].attr.ID() == a.ID() {
			b.nested = b.tree.GetChild(b.nestedStack[top].parent, a, v)
		} else {
			b.nestedStack = append(b.nestedStack, nestedRegion{attr: a, parent: b.nested})
			b.nested = b.tree.GetChild(b.nested, a, v)
		}
	default:
		st := stackOf(&b.refStacks, a, true)
		if len(st.items) == 0 {
			st.items = append(st.items, b.tree.GetChild(contexttree.InvalidNode, a, v))
		} else {
			parent := contexttree.InvalidNode
			if len(st.items) > 1 {
				parent = st.items[len(st.items)-2]
			}
			st.items[len(st.items)-1] = b.tree.GetChild(parent, a, v)
		}
	}
	return nil
}

// Depth returns the number of open regions of attribute a.
func (b *Blackboard) Depth(a attr.Attribute) int {
	switch {
	case a.StoreAsValue():
		return stackOf(&b.immStacks, a, false).depth()
	case a.IsNested():
		n := 0
		for _, r := range b.nestedStack {
			if r.attr.ID() == a.ID() {
				n++
			}
		}
		return n
	default:
		return stackOf(&b.refStacks, a, false).depth()
	}
}

// Snapshot appends a compressed copy of the current blackboard contents to
// the builder: the nested-branch tip node, then the tip node of every
// non-empty reference stack and the top value of every non-empty immediate
// stack, each in first-Begin order, so the same program state always gives
// the same record. Hidden attributes are skipped.
func (b *Blackboard) Snapshot(sb *snapshot.Builder) {
	if b.nested != contexttree.InvalidNode {
		sb.AddNode(b.nested)
	}
	for i := range b.refStacks {
		st := &b.refStacks[i]
		if tip, ok := st.top(); ok && st.attr.Properties()&attr.Hidden == 0 {
			sb.AddNode(tip)
		}
	}
	for i := range b.immStacks {
		st := &b.immStacks[i]
		if v, ok := st.top(); ok && st.attr.Properties()&attr.Hidden == 0 {
			sb.AddImmediate(st.attr, v)
		}
	}
}
