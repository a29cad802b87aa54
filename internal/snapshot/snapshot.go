// Package snapshot defines snapshot records: the unit of measurement data
// flowing through the runtime (Section IV-A of the paper).
//
// A snapshot is a compressed copy of the blackboard contents at one point
// in time. Attributes stored in the context tree are referenced by node id
// (one reference covers a whole path of attribute:value pairs); attributes
// with the AsValue property are stored immediate. Unpacking a record
// expands node references back into explicit attribute:value entries.
package snapshot

import (
	"fmt"
	"strings"

	"caligo/internal/attr"
	"caligo/internal/contexttree"
)

// Record is a compressed snapshot record: context-tree node references plus
// immediate (as-value) entries.
type Record struct {
	// Nodes references paths in the context tree. Multiple references occur
	// when independent attribute hierarchies were active (e.g. the
	// annotation stack and the MPI function stack).
	Nodes []contexttree.NodeID
	// Imm holds the immediate entries (typically measurement values).
	Imm []attr.Entry
}

// Empty reports whether the record carries no data.
func (r Record) Empty() bool { return len(r.Nodes) == 0 && len(r.Imm) == 0 }

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	out := Record{}
	if len(r.Nodes) > 0 {
		out.Nodes = append([]contexttree.NodeID(nil), r.Nodes...)
	}
	if len(r.Imm) > 0 {
		out.Imm = append([]attr.Entry(nil), r.Imm...)
	}
	return out
}

// Unpack expands the record into a flat entry list, expanding node
// references through tree: UnpackInto a fresh record.
func (r Record) Unpack(tree *contexttree.Tree, reg *attr.Registry) (FlatRecord, error) {
	return r.UnpackInto(nil, tree, reg)
}

// UnpackInto expands the record into dst's storage and returns it, so a
// caller that keeps the result as its next dst stops allocating once dst
// has grown to its largest record. Entries from node paths appear
// root-first, followed by immediate entries, preserving record order. On
// error the returned record is empty and still reusable.
func (r Record) UnpackInto(dst FlatRecord, tree *contexttree.Tree, reg *attr.Registry) (FlatRecord, error) {
	dst = dst[:0]
	for _, n := range r.Nodes {
		var err error
		if dst, err = tree.AppendPath(dst, n, reg); err != nil {
			return dst[:0], fmt.Errorf("snapshot: unpack: %w", err)
		}
	}
	return append(dst, r.Imm...), nil
}

// FlatRecord is a fully expanded snapshot record: an ordered list of
// attribute:value entries. Order matters for stacked (nested) attributes:
// outer values come first.
type FlatRecord []attr.Entry

// Clone returns an independent copy of the record. Required when
// retaining a record obtained from a reusing producer (e.g.
// calformat.Reader.NextInto) beyond the producer's next call.
func (f FlatRecord) Clone() FlatRecord {
	if f == nil {
		return nil
	}
	out := make(FlatRecord, len(f))
	copy(out, f)
	return out
}

// Get returns the last (innermost/deepest) value for the attribute with
// the given id.
func (f FlatRecord) Get(id attr.ID) (attr.Variant, bool) {
	for i := len(f) - 1; i >= 0; i-- {
		if f[i].Attr.ID() == id {
			return f[i].Value, true
		}
	}
	return attr.Variant{}, false
}

// GetByName returns the last value for the attribute with the given label.
func (f FlatRecord) GetByName(name string) (attr.Variant, bool) {
	for i := len(f) - 1; i >= 0; i-- {
		if f[i].Attr.Name() == name {
			return f[i].Value, true
		}
	}
	return attr.Variant{}, false
}

// ValuesOf returns all values of the attribute in record order
// (outermost first).
func (f FlatRecord) ValuesOf(id attr.ID) []attr.Variant {
	var out []attr.Variant
	for _, e := range f {
		if e.Attr.ID() == id {
			out = append(out, e.Value)
		}
	}
	return out
}

// PathOf joins all values of the attribute with sep, rendering nested
// stacks like call paths ("main/foo/bar").
func (f FlatRecord) PathOf(id attr.ID, sep string) string {
	var sb strings.Builder
	first := true
	for _, e := range f {
		if e.Attr.ID() == id {
			if !first {
				sb.WriteString(sep)
			}
			sb.WriteString(e.Value.String())
			first = false
		}
	}
	return sb.String()
}

// String renders the record's label=value pairs in entry order, so a
// nested path keeps its order (for tests and debugging).
func (f FlatRecord) String() string {
	parts := make([]string, len(f))
	for i, e := range f {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Builder incrementally assembles a snapshot record. It deduplicates node
// references and keeps immediate entries in append order. The zero Builder
// is ready to use.
type Builder struct {
	rec Record
}

// AddNode appends a context-tree node reference, skipping duplicates and
// invalid ids.
func (b *Builder) AddNode(n contexttree.NodeID) {
	if n == contexttree.InvalidNode {
		return
	}
	for _, have := range b.rec.Nodes {
		if have == n {
			return
		}
	}
	b.rec.Nodes = append(b.rec.Nodes, n)
}

// AddImmediate appends an immediate attribute:value entry.
func (b *Builder) AddImmediate(a attr.Attribute, v attr.Variant) {
	if !a.IsValid() {
		return
	}
	b.rec.Imm = append(b.rec.Imm, attr.Entry{Attr: a, Value: v})
}

// Record returns the assembled record. It shares the builder's storage:
// Reset, then further Adds, overwrite it, so whoever keeps a record past
// the builder's next use Clones it.
func (b *Builder) Record() Record { return b.rec }

// Reset clears the builder for reuse, retaining allocated capacity.
func (b *Builder) Reset() {
	b.rec.Nodes = b.rec.Nodes[:0]
	b.rec.Imm = b.rec.Imm[:0]
}
