package core

import (
	"fmt"
	"strings"
)

// Scheme is a customizable aggregation scheme (Section III-B): the
// aggregation key (GROUP BY attributes, in order), and the reduction
// operators with their aggregation attributes.
type Scheme struct {
	// Key lists the attribute labels forming the aggregation key.
	// Records are grouped by the combination of these attributes' values;
	// for stacked (nested) attributes the full value path is part of the
	// key, so distinct call paths form distinct groups.
	Key []string
	// Ops lists the reduction operator instances.
	Ops []OpSpec
}

// NewScheme validates and returns an aggregation scheme.
func NewScheme(key []string, ops []OpSpec) (*Scheme, error) {
	s := &Scheme{Key: key, Ops: ops}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustScheme is NewScheme for static initialization; it panics on error.
func MustScheme(key []string, ops []OpSpec) *Scheme {
	s, err := NewScheme(key, ops)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks the scheme for consistency: valid operators, no
// duplicate key attributes, no duplicate result names.
func (s *Scheme) Validate() error {
	if len(s.Ops) == 0 {
		return fmt.Errorf("core: scheme has no aggregation operators")
	}
	seenKey := map[string]bool{}
	for _, k := range s.Key {
		if k == "" {
			return fmt.Errorf("core: empty attribute label in aggregation key")
		}
		if seenKey[k] {
			return fmt.Errorf("core: duplicate key attribute %q", k)
		}
		seenKey[k] = true
	}
	seenRes := map[string]bool{}
	for _, o := range s.Ops {
		if err := o.Validate(); err != nil {
			return err
		}
		rn := o.ResultName()
		if seenRes[rn] {
			return fmt.Errorf("core: duplicate aggregation %q", rn)
		}
		seenRes[rn] = true
		if seenKey[o.Target] {
			return fmt.Errorf("core: attribute %q cannot be both key and aggregation attribute", o.Target)
		}
	}
	return nil
}

// String renders the scheme in the description language
// ("AGGREGATE ... GROUP BY ...").
func (s *Scheme) String() string {
	var sb strings.Builder
	sb.WriteString("AGGREGATE ")
	for i, o := range s.Ops {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(o.String())
	}
	if len(s.Key) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(s.Key, ", "))
	}
	return sb.String()
}

// Equal reports whether two schemes are identical (same key order, same
// operator list).
func (s *Scheme) Equal(o *Scheme) bool {
	if len(s.Key) != len(o.Key) || len(s.Ops) != len(o.Ops) {
		return false
	}
	for i := range s.Key {
		if s.Key[i] != o.Key[i] {
			return false
		}
	}
	for i := range s.Ops {
		if s.Ops[i] != o.Ops[i] {
			return false
		}
	}
	return true
}
