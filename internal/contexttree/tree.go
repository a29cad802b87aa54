// Package contexttree implements Caliper's generic context tree: a tree of
// (attribute, value) nodes used to compress snapshot records and to encode
// metadata in the .cali stream format.
//
// Each node represents one attribute:value pair; a path from the root to a
// node represents an ordered list of such pairs. Snapshot records then only
// need to store a single node reference instead of the full list, which is
// the compression scheme the paper's runtime relies on ("a compressed copy
// of the current blackboard contents", Section IV-A).
package contexttree

import (
	"fmt"
	"slices"
	"sync"

	"caligo/internal/attr"
)

// NodeID references a node within a Tree. IDs are dense, starting at 0.
type NodeID int32

// InvalidNode marks "no node" (an empty path).
const InvalidNode NodeID = -1

// node is the internal tree node representation. Children are kept in a
// per-node map keyed by (attribute, value) for O(1) child lookup.
type node struct {
	id     NodeID
	parent NodeID
	attr   attr.ID
	// handle is the attribute GetChild was given, so expanding a path
	// needs no registry lookup per entry. An invalid handle is resolved
	// through the registry AppendPath is given.
	handle attr.Attribute
	value  attr.Variant
}

type childKey struct {
	attr  attr.ID
	value attr.Variant
}

// Tree is an append-only context tree. Nodes are never removed, so NodeIDs
// remain valid for the lifetime of the tree. All methods are safe for
// concurrent use.
type Tree struct {
	mu       sync.RWMutex
	nodes    []node
	children map[NodeID]map[childKey]NodeID
}

// New returns an empty context tree.
func New() *Tree {
	return &Tree{children: map[NodeID]map[childKey]NodeID{}}
}

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// GetChild finds or creates the child of parent carrying (a, v) and returns
// its id. Pass InvalidNode as parent for a root-level node.
func (t *Tree) GetChild(parent NodeID, a attr.Attribute, v attr.Variant) NodeID {
	key := childKey{attr: a.ID(), value: v}

	t.mu.RLock()
	if m, ok := t.children[parent]; ok {
		if id, ok := m[key]; ok {
			t.mu.RUnlock()
			return id
		}
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.children[parent]
	if !ok {
		m = map[childKey]NodeID{}
		t.children[parent] = m
	}
	if id, ok := m[key]; ok { // lost the race; someone created it
		return id
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, node{id: id, parent: parent, attr: a.ID(), handle: a, value: v})
	m[key] = id
	return id
}

// GetPath finds or creates the node representing the path of entries below
// parent, chaining one node per entry, and returns the deepest node.
func (t *Tree) GetPath(parent NodeID, entries []attr.Entry) NodeID {
	n := parent
	for _, e := range entries {
		n = t.GetChild(n, e.Attr, e.Value)
	}
	return n
}

// Parent returns the parent node id, or InvalidNode for roots.
func (t *Tree) Parent(id NodeID) NodeID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || int(id) >= len(t.nodes) {
		return InvalidNode
	}
	return t.nodes[id].parent
}

// Entry returns the (attribute id, value) pair stored at a node.
func (t *Tree) Entry(id NodeID) (attr.ID, attr.Variant, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || int(id) >= len(t.nodes) {
		return attr.InvalidID, attr.Variant{}, fmt.Errorf("contexttree: invalid node id %d", id)
	}
	n := t.nodes[id]
	return n.attr, n.value, nil
}

// Path returns the entries on the path from the root down to id, in
// root-to-node order: AppendPath into a fresh slice.
func (t *Tree) Path(id NodeID, reg *attr.Registry) ([]attr.Entry, error) {
	return t.AppendPath(nil, id, reg)
}

// AppendPath appends the entries on the path from the root down to id to
// dst, in root-to-node order, and returns the extended slice. It allocates
// only when dst lacks the capacity. Nodes carry the attribute GetChild was
// given (as it was when the node was created); one given an invalid
// attribute is resolved through reg. On error dst is returned at its
// original length.
func (t *Tree) AppendPath(dst []attr.Entry, id NodeID, reg *attr.Registry) ([]attr.Entry, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	depth := 0
	for n := id; n != InvalidNode; n = t.nodes[n].parent {
		if n < 0 || int(n) >= len(t.nodes) {
			return dst, fmt.Errorf("contexttree: invalid node id %d", n)
		}
		depth++
	}
	base := len(dst)
	dst = slices.Grow(dst, depth)[:base+depth]
	for i := base + depth - 1; i >= base; i-- {
		n := &t.nodes[id]
		a := n.handle
		if !a.IsValid() {
			var ok bool
			if a, ok = reg.Get(n.attr); !ok {
				return dst[:base], fmt.Errorf("contexttree: node %d references unknown attribute %d", id, n.attr)
			}
		}
		dst[i] = attr.Entry{Attr: a, Value: n.value}
		id = n.parent
	}
	return dst, nil
}
