// Package attr implements the flexible key:value data model that underlies
// the aggregation system: typed variant values, attribute metadata, and a
// process-wide attribute registry.
//
// The model follows Section III-A of "Flexible Data Aggregation for
// Performance Profiling" (Böhme et al., CLUSTER 2017): a record is a set of
// attributes, each a user-defined key:value pair with a string, integer, or
// floating-point value. Attribute labels are unique identifiers whose
// meaning is defined by the user.
package attr

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the value types a variant can hold.
type Type uint8

// Variant value types. Inv is the zero value and marks an empty variant.
const (
	Inv    Type = iota // invalid / empty
	Int                // signed 64-bit integer
	Uint               // unsigned 64-bit integer
	Float              // 64-bit floating point
	String             // UTF-8 string
	Bool               // boolean
	TypeID             // a Type value itself (used for meta-attributes)
)

// typeNames maps Type constants to their .cali format names.
var typeNames = [...]string{"inv", "int", "uint", "double", "string", "bool", "type"}

// String returns the format name of the type ("int", "double", ...).
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ParseType converts a format name back into a Type.
// It returns Inv and false for unknown names.
func ParseType(s string) (Type, bool) {
	for i, n := range typeNames {
		if n == s {
			return Type(i), true
		}
	}
	return Inv, false
}

// Variant is a compact tagged union holding one typed value.
// The zero Variant is empty (type Inv).
//
// Numeric payloads live in bits; string payloads live in str. This keeps
// Variant comparable (usable as a map key) and cheap to copy.
type Variant struct {
	kind Type
	bits uint64
	str  string
}

// IntV returns an Int variant.
func IntV(v int64) Variant { return Variant{kind: Int, bits: uint64(v)} }

// UintV returns a Uint variant.
func UintV(v uint64) Variant { return Variant{kind: Uint, bits: v} }

// FloatV returns a Float variant.
func FloatV(v float64) Variant { return Variant{kind: Float, bits: math.Float64bits(v)} }

// StringV returns a String variant.
func StringV(v string) Variant { return Variant{kind: String, str: v} }

// BoolV returns a Bool variant.
func BoolV(v bool) Variant {
	var b uint64
	if v {
		b = 1
	}
	return Variant{kind: Bool, bits: b}
}

// TypeV returns a TypeID variant wrapping t.
func TypeV(t Type) Variant { return Variant{kind: TypeID, bits: uint64(t)} }

// Kind reports the variant's type tag.
func (v Variant) Kind() Type { return v.kind }

// AsInt returns the value as int64. Floats truncate; strings parse
// (returning 0 on failure); bools map to 0/1.
func (v Variant) AsInt() int64 {
	switch v.kind {
	case Int, Uint, Bool, TypeID:
		return int64(v.bits)
	case Float:
		return int64(math.Float64frombits(v.bits))
	case String:
		n, _ := strconv.ParseInt(v.str, 10, 64)
		return n
	}
	return 0
}

// AsUint returns the value as uint64.
func (v Variant) AsUint() uint64 {
	switch v.kind {
	case Int, Uint, Bool, TypeID:
		return v.bits
	case Float:
		return uint64(math.Float64frombits(v.bits))
	case String:
		n, _ := strconv.ParseUint(v.str, 10, 64)
		return n
	}
	return 0
}

// AsFloat returns the value as float64. Integer values convert exactly
// where representable; strings parse (NaN on failure).
func (v Variant) AsFloat() float64 {
	switch v.kind {
	case Int:
		return float64(int64(v.bits))
	case Uint, Bool, TypeID:
		return float64(v.bits)
	case Float:
		return math.Float64frombits(v.bits)
	case String:
		f, err := strconv.ParseFloat(v.str, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	}
	return 0
}

// AsBool returns the value interpreted as a boolean: numeric values are
// true when nonzero, strings when equal to "true" or "1".
func (v Variant) AsBool() bool {
	switch v.kind {
	case Int, Uint, Bool, TypeID:
		return v.bits != 0
	case Float:
		return math.Float64frombits(v.bits) != 0
	case String:
		return v.str == "true" || v.str == "1"
	}
	return false
}

// AsType returns the wrapped Type for TypeID variants, Inv otherwise.
func (v Variant) AsType() Type {
	if v.kind == TypeID && v.bits < uint64(len(typeNames)) {
		return Type(v.bits)
	}
	return Inv
}

// String renders the value as text, matching the .cali data encoding.
func (v Variant) String() string {
	switch v.kind {
	case Inv:
		return ""
	case Int:
		return strconv.FormatInt(int64(v.bits), 10)
	case Uint:
		return strconv.FormatUint(v.bits, 10)
	case Float:
		return strconv.FormatFloat(math.Float64frombits(v.bits), 'g', -1, 64)
	case String:
		return v.str
	case Bool:
		if v.bits != 0 {
			return "true"
		}
		return "false"
	case TypeID:
		return v.AsType().String()
	}
	return ""
}

// ParseAs parses text into a variant of the given type.
func ParseAs(s string, t Type) (Variant, error) {
	switch t {
	case Int:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Variant{}, fmt.Errorf("attr: parse %q as int: %w", s, err)
		}
		return IntV(n), nil
	case Uint:
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return Variant{}, fmt.Errorf("attr: parse %q as uint: %w", s, err)
		}
		return UintV(n), nil
	case Float:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Variant{}, fmt.Errorf("attr: parse %q as double: %w", s, err)
		}
		return FloatV(f), nil
	case String:
		return StringV(s), nil
	case Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Variant{}, fmt.Errorf("attr: parse %q as bool: %w", s, err)
		}
		return BoolV(b), nil
	case TypeID:
		tt, ok := ParseType(s)
		if !ok {
			return Variant{}, fmt.Errorf("attr: parse %q as type: unknown type name", s)
		}
		return TypeV(tt), nil
	}
	return Variant{}, fmt.Errorf("attr: cannot parse %q as %v", s, t)
}

// GuessV builds a variant from a Go value, choosing the closest type.
// Unsupported kinds are stringified.
func GuessV(v any) Variant {
	switch x := v.(type) {
	case nil:
		return Variant{}
	case Variant:
		return x
	case int:
		return IntV(int64(x))
	case int8:
		return IntV(int64(x))
	case int16:
		return IntV(int64(x))
	case int32:
		return IntV(int64(x))
	case int64:
		return IntV(x)
	case uint:
		return UintV(uint64(x))
	case uint8:
		return UintV(uint64(x))
	case uint16:
		return UintV(uint64(x))
	case uint32:
		return UintV(uint64(x))
	case uint64:
		return UintV(x)
	case float32:
		return FloatV(float64(x))
	case float64:
		return FloatV(x)
	case string:
		return StringV(x)
	case bool:
		return BoolV(x)
	default:
		return StringV(fmt.Sprint(v))
	}
}

// Compare orders two variants. Variants of the same numeric family compare
// numerically; strings compare lexicographically; otherwise the rendered
// text is compared. Returns -1, 0, or +1.
func Compare(a, b Variant) int {
	an, aok := a.numeric()
	bn, bok := b.numeric()
	switch {
	case aok && bok:
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		}
		return 0
	case a.kind == String && b.kind == String:
		return strings.Compare(a.str, b.str)
	default:
		return strings.Compare(a.String(), b.String())
	}
}

// numeric returns the value as float64 if the variant is numeric.
func (v Variant) numeric() (float64, bool) {
	switch v.kind {
	case Int:
		return float64(int64(v.bits)), true
	case Uint, Bool:
		return float64(v.bits), true
	case Float:
		return math.Float64frombits(v.bits), true
	}
	return 0, false
}

// AppendEncoded appends a compact, self-delimiting binary encoding of the
// variant to dst. The encoding is injective per (kind, value): it starts
// with the kind byte, then a varint-framed payload. It is the building
// block for collision-free aggregation keys (Section IV-B of the paper).
func (v Variant) AppendEncoded(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case String:
		dst = binary.AppendUvarint(dst, uint64(len(v.str)))
		dst = append(dst, v.str...)
	case Inv:
		// no payload
	default:
		dst = binary.AppendUvarint(dst, v.bits)
	}
	return dst
}

// EncodedLen returns the number of bytes AppendEncoded appends for v, so a
// caller can size a buffer once for everything it is about to encode.
func (v Variant) EncodedLen() int {
	switch v.kind {
	case String:
		return 1 + uvarintLen(uint64(len(v.str))) + len(v.str)
	case Inv:
		return 1
	default:
		return 1 + uvarintLen(v.bits)
	}
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// splitEncoded parses the encoding at the head of src — the one place that
// decides what a valid encoding is. It returns the kind, the varint payload
// (the value bits, or a string's length), the offset the string bytes start
// at, and the number of bytes the encoding occupies.
func splitEncoded(src []byte) (kind Type, payload uint64, body, n int, err error) {
	if len(src) == 0 {
		return Inv, 0, 0, 0, fmt.Errorf("attr: decode variant: empty input")
	}
	switch kind = Type(src[0]); kind {
	case Inv:
		return kind, 0, 1, 1, nil
	case String:
		length, sz := binary.Uvarint(src[1:])
		if sz <= 0 {
			return kind, 0, 0, 0, fmt.Errorf("attr: decode variant: bad string length")
		}
		if uint64(len(src)-1-sz) < length {
			return kind, 0, 0, 0, fmt.Errorf("attr: decode variant: truncated string")
		}
		return kind, length, 1 + sz, 1 + sz + int(length), nil
	case Int, Uint, Float, Bool, TypeID:
		bits, sz := binary.Uvarint(src[1:])
		if sz <= 0 {
			return kind, 0, 0, 0, fmt.Errorf("attr: decode variant: bad payload")
		}
		return kind, bits, 1 + sz, 1 + sz, nil
	}
	return kind, 0, 0, 0, fmt.Errorf("attr: decode variant: unknown kind %d", kind)
}

// DecodeVariant decodes a variant previously produced by AppendEncoded,
// returning the variant and the number of bytes consumed.
func DecodeVariant(src []byte) (Variant, int, error) {
	kind, payload, body, n, err := splitEncoded(src)
	switch {
	case err != nil:
		return Variant{}, 0, err
	case kind == String:
		return StringV(string(src[body:n])), n, nil
	}
	return Variant{kind: kind, bits: payload}, n, nil
}

// AppendCanonical appends to dst the AppendEncoded form of the variant
// encoded at the head of src and returns the number of source bytes it
// occupies: AppendCanonical(dst, src) is DecodeVariant(src) followed by
// AppendEncoded(dst) — a non-minimal varint in src comes out minimal —
// without building the Variant or, for a string, copying it twice.
func AppendCanonical(dst, src []byte) ([]byte, int, error) {
	kind, payload, body, n, err := splitEncoded(src)
	if err != nil {
		return dst, 0, err
	}
	dst = append(dst, byte(kind))
	if kind != Inv {
		dst = binary.AppendUvarint(dst, payload)
	}
	return append(dst, src[body:n]...), n, nil
}
