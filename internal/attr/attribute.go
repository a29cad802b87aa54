package attr

import (
	"fmt"
	"sync"
)

// ID identifies an attribute within a registry. IDs are dense and start
// at 0, so they can index slices.
type ID int32

// InvalidID marks "no attribute".
const InvalidID ID = -1

// Properties are flags that control how the runtime treats an attribute,
// mirroring Caliper's attribute properties.
type Properties uint32

const (
	// AsValue stores the attribute directly in snapshot records instead
	// of in the context tree (right choice for measurement values).
	AsValue Properties = 1 << iota
	// Nested gives begin/end stack semantics interleaved with other
	// Nested attributes (e.g. "function" nests inside "loop").
	Nested
	// SkipEvents suppresses event-service snapshot triggers for updates
	// of this attribute (used for measurement attributes set by services).
	SkipEvents
	// Hidden excludes the attribute from snapshot records entirely.
	Hidden
	// Global marks per-run metadata (e.g. the experiment name).
	Global
	// Aggregatable hints that the attribute is a metric suitable for
	// reduction operators.
	Aggregatable
)

// String lists the set property names, comma separated.
func (p Properties) String() string {
	names := []struct {
		bit  Properties
		name string
	}{
		{AsValue, "asvalue"}, {Nested, "nested"}, {SkipEvents, "skip_events"},
		{Hidden, "hidden"}, {Global, "global"}, {Aggregatable, "aggregatable"},
	}
	s := ""
	for _, n := range names {
		if p&n.bit != 0 {
			if s != "" {
				s += ","
			}
			s += n.name
		}
	}
	return s
}

// ParseProperties parses a comma-separated property list as produced by
// Properties.String. Unknown names yield an error.
func ParseProperties(s string) (Properties, error) {
	var p Properties
	if s == "" {
		return 0, nil
	}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			name := s[start:i]
			start = i + 1
			switch name {
			case "asvalue":
				p |= AsValue
			case "nested":
				p |= Nested
			case "skip_events":
				p |= SkipEvents
			case "hidden":
				p |= Hidden
			case "global":
				p |= Global
			case "aggregatable":
				p |= Aggregatable
			case "":
			default:
				return 0, fmt.Errorf("attr: unknown property %q", name)
			}
		}
	}
	return p, nil
}

// Attribute is the immutable metadata of one key: its label, value type,
// and properties. Attribute values are only handles; all state lives in
// the Registry.
type Attribute struct {
	id    ID
	name  string
	typ   Type
	props Properties
}

// ID returns the registry-local attribute id.
func (a Attribute) ID() ID { return a.id }

// Name returns the unique attribute label.
func (a Attribute) Name() string { return a.name }

// Type returns the attribute's value type.
func (a Attribute) Type() Type { return a.typ }

// Properties returns the attribute's property flags.
func (a Attribute) Properties() Properties { return a.props }

// IsValid reports whether the handle refers to a registered attribute.
func (a Attribute) IsValid() bool { return a.id != InvalidID && a.name != "" }

// IsNested reports whether the attribute has begin/end stack semantics.
func (a Attribute) IsNested() bool { return a.props&Nested != 0 }

// StoreAsValue reports whether values should be stored immediate in
// snapshot records rather than in the context tree.
func (a Attribute) StoreAsValue() bool { return a.props&AsValue != 0 }

// String implements fmt.Stringer.
func (a Attribute) String() string {
	return fmt.Sprintf("%s(%v,id=%d)", a.name, a.typ, a.id)
}

// Registry is a thread-safe attribute table. Attribute creation is
// idempotent per label: creating an existing label returns the existing
// attribute (and an error if type or properties conflict).
type Registry struct {
	mu     sync.RWMutex
	byName map[string]ID
	attrs  []Attribute

	// intern table: canonical string per distinct byte content, shared by
	// all readers decoding into this registry (guarded separately so
	// value interning never contends with attribute lookups).
	internMu sync.Mutex
	interned map[string]string
}

// NewRegistry returns an empty attribute registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]ID), interned: make(map[string]string)}
}

// Intern returns a canonical heap copy of b. Repeated calls with equal
// content return the same string value, so decoders sharing a registry
// (e.g. per-shard .cali readers) allocate each distinct attribute name or
// string value once for the whole stream set. The map lookup itself does
// not allocate.
func (r *Registry) Intern(b []byte) string {
	r.internMu.Lock()
	s, ok := r.interned[string(b)]
	if !ok {
		if r.interned == nil {
			r.interned = make(map[string]string)
		}
		s = string(b)
		r.interned[s] = s
	}
	r.internMu.Unlock()
	return s
}

// Create registers an attribute, returning the existing one when the label
// is already present. A conflict in type is an error; properties are
// OR-merged like in Caliper.
func (r *Registry) Create(name string, typ Type, props Properties) (Attribute, error) {
	if name == "" {
		return Attribute{id: InvalidID}, fmt.Errorf("attr: empty attribute name")
	}
	if typ == Inv {
		return Attribute{id: InvalidID}, fmt.Errorf("attr: attribute %q: invalid type", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		a := r.attrs[id]
		if a.typ != typ {
			return a, fmt.Errorf("attr: attribute %q already exists with type %v (requested %v)",
				name, a.typ, typ)
		}
		if a.props != props {
			a.props |= props
			r.attrs[id] = a
		}
		return a, nil
	}
	a := Attribute{id: ID(len(r.attrs)), name: name, typ: typ, props: props}
	r.attrs = append(r.attrs, a)
	r.byName[name] = a.id
	return a, nil
}

// MustCreate is Create for static initialization; it panics on conflict.
func (r *Registry) MustCreate(name string, typ Type, props Properties) Attribute {
	a, err := r.Create(name, typ, props)
	if err != nil {
		panic(err)
	}
	return a
}

// Find returns the attribute with the given label.
func (r *Registry) Find(name string) (Attribute, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byName[name]
	if !ok {
		return Attribute{id: InvalidID}, false
	}
	return r.attrs[id], true
}

// Get returns the attribute with the given id.
func (r *Registry) Get(id ID) (Attribute, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id < 0 || int(id) >= len(r.attrs) {
		return Attribute{id: InvalidID}, false
	}
	return r.attrs[id], true
}

// Entry is one attribute:value pair, the unit of the key:value data model.
type Entry struct {
	Attr  Attribute
	Value Variant
}

// String renders the entry as label=value.
func (e Entry) String() string { return e.Attr.Name() + "=" + e.Value.String() }
