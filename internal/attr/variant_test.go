package attr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVariantConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Variant
		kind Type
		i    int64
		f    float64
		s    string
	}{
		{"int positive", IntV(42), Int, 42, 42, "42"},
		{"int negative", IntV(-17), Int, -17, -17, "-17"},
		{"int zero", IntV(0), Int, 0, 0, "0"},
		{"uint", UintV(18446744073709551615), Uint, -1, 1.8446744073709552e19, "18446744073709551615"},
		{"float", FloatV(2.5), Float, 2, 2.5, "2.5"},
		{"float negative", FloatV(-0.25), Float, 0, -0.25, "-0.25"},
		{"string", StringV("hello"), String, 0, math.NaN(), "hello"},
		{"string numeric", StringV("37"), String, 37, 37, "37"},
		{"bool true", BoolV(true), Bool, 1, 1, "true"},
		{"bool false", BoolV(false), Bool, 0, 0, "false"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if got := tt.v.AsInt(); got != tt.i {
				t.Errorf("AsInt() = %d, want %d", got, tt.i)
			}
			gotF := tt.v.AsFloat()
			if math.IsNaN(tt.f) {
				if !math.IsNaN(gotF) {
					t.Errorf("AsFloat() = %v, want NaN", gotF)
				}
			} else if gotF != tt.f {
				t.Errorf("AsFloat() = %v, want %v", gotF, tt.f)
			}
			if got := tt.v.String(); got != tt.s {
				t.Errorf("String() = %q, want %q", got, tt.s)
			}
		})
	}
}

func TestVariantEmpty(t *testing.T) {
	var v Variant
	if v.Kind() != Inv {
		t.Errorf("zero Variant kind = %v, want Inv", v.Kind())
	}
	if v.String() != "" {
		t.Errorf("zero Variant string = %q, want empty", v.String())
	}
	if IntV(0).Kind() == Inv {
		t.Error("IntV(0) should not be empty")
	}
}

func TestVariantAsBool(t *testing.T) {
	tests := []struct {
		v    Variant
		want bool
	}{
		{BoolV(true), true},
		{BoolV(false), false},
		{IntV(1), true},
		{IntV(0), false},
		{IntV(-3), true},
		{FloatV(0.5), true},
		{FloatV(0), false},
		{StringV("true"), true},
		{StringV("1"), true},
		{StringV("false"), false},
		{StringV("yes"), false},
		{Variant{}, false},
	}
	for _, tt := range tests {
		if got := tt.v.AsBool(); got != tt.want {
			t.Errorf("%v.AsBool() = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestVariantAsUint(t *testing.T) {
	if got := UintV(7).AsUint(); got != 7 {
		t.Errorf("AsUint = %d, want 7", got)
	}
	if got := StringV("12").AsUint(); got != 12 {
		t.Errorf("string AsUint = %d, want 12", got)
	}
	if got := FloatV(3.9).AsUint(); got != 3 {
		t.Errorf("float AsUint = %d, want 3", got)
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{Inv, Int, Uint, Float, String, Bool, TypeID} {
		got, ok := ParseType(typ.String())
		if !ok || got != typ {
			t.Errorf("ParseType(%q) = %v,%v; want %v,true", typ.String(), got, ok, typ)
		}
	}
	if _, ok := ParseType("nonsense"); ok {
		t.Error("ParseType should reject unknown names")
	}
}

func TestTypeVariant(t *testing.T) {
	v := TypeV(Float)
	if v.AsType() != Float {
		t.Errorf("AsType = %v, want Float", v.AsType())
	}
	if v.String() != "double" {
		t.Errorf("String = %q, want double", v.String())
	}
	if IntV(3).AsType() != Inv {
		t.Error("AsType on non-type variant should be Inv")
	}
}

func TestParseAs(t *testing.T) {
	tests := []struct {
		in   string
		typ  Type
		want Variant
		ok   bool
	}{
		{"42", Int, IntV(42), true},
		{"-8", Int, IntV(-8), true},
		{"9", Uint, UintV(9), true},
		{"2.75", Float, FloatV(2.75), true},
		{"abc", String, StringV("abc"), true},
		{"true", Bool, BoolV(true), true},
		{"double", TypeID, TypeV(Float), true},
		{"xyz", Int, Variant{}, false},
		{"-1", Uint, Variant{}, false},
		{"zz", Float, Variant{}, false},
		{"maybe", Bool, Variant{}, false},
		{"wat", TypeID, Variant{}, false},
		{"1", Inv, Variant{}, false},
	}
	for _, tt := range tests {
		got, err := ParseAs(tt.in, tt.typ)
		if (err == nil) != tt.ok {
			t.Errorf("ParseAs(%q,%v) error = %v, want ok=%v", tt.in, tt.typ, err, tt.ok)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("ParseAs(%q,%v) = %v, want %v", tt.in, tt.typ, got, tt.want)
		}
	}
}

func TestGuessV(t *testing.T) {
	tests := []struct {
		in   any
		want Variant
	}{
		{42, IntV(42)},
		{int8(-5), IntV(-5)},
		{int16(100), IntV(100)},
		{int32(7), IntV(7)},
		{int64(8), IntV(8)},
		{uint(3), UintV(3)},
		{uint8(4), UintV(4)},
		{uint16(5), UintV(5)},
		{uint32(6), UintV(6)},
		{uint64(7), UintV(7)},
		{float32(1.5), FloatV(1.5)},
		{2.25, FloatV(2.25)},
		{"s", StringV("s")},
		{true, BoolV(true)},
		{nil, Variant{}},
		{IntV(9), IntV(9)},
		{[]int{1}, StringV("[1]")},
	}
	for _, tt := range tests {
		if got := GuessV(tt.in); got != tt.want {
			t.Errorf("GuessV(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Variant
		want int
	}{
		{IntV(1), IntV(2), -1},
		{IntV(2), IntV(2), 0},
		{IntV(3), IntV(2), 1},
		{IntV(2), FloatV(2.5), -1}, // cross-numeric comparison
		{UintV(3), IntV(2), 1},
		{StringV("a"), StringV("b"), -1},
		{StringV("b"), StringV("b"), 0},
		{StringV("10"), IntV(9), -1}, // mixed falls back to text
	}
	for _, tt := range tests {
		if got := Compare(tt.a, tt.b); got != tt.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestVariantEncodeDecodeRoundTrip(t *testing.T) {
	vals := []Variant{
		{}, IntV(0), IntV(-1), IntV(1 << 40), UintV(0), UintV(math.MaxUint64),
		FloatV(0), FloatV(-3.25), FloatV(math.Inf(1)), BoolV(true), BoolV(false),
		StringV(""), StringV("x"), StringV("hello world with spaces, punctuation=stuff"),
		TypeV(Float),
	}
	for _, v := range vals {
		enc := v.AppendEncoded(nil)
		got, n, err := DecodeVariant(enc)
		if err != nil {
			t.Fatalf("DecodeVariant(%v): %v", v, err)
		}
		if n != len(enc) {
			t.Errorf("DecodeVariant(%v) consumed %d of %d bytes", v, n, len(enc))
		}
		if got != v {
			t.Errorf("round trip: got %#v, want %#v", got, v)
		}
	}
}

func TestVariantDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(String)},         // missing length
		{byte(String), 5, 'a'}, // truncated string
		{byte(Int)},            // missing payload
		{200, 1},               // unknown kind
	}
	for _, c := range cases {
		if _, _, err := DecodeVariant(c); err == nil {
			t.Errorf("DecodeVariant(%v) should fail", c)
		}
	}
}

// TestAppendCanonicalMatchesDecode: on valid encodings, their prefixes,
// non-minimal re-spellings and arbitrary bytes, AppendCanonical accepts what
// DecodeVariant accepts, consumes the same bytes, leaves dst alone on
// rejection, and appends what encoding the decoded variant would — and
// EncodedLen is the length of that.
func TestAppendCanonicalMatchesDecode(t *testing.T) {
	check := func(src []byte) {
		t.Helper()
		prefix := []byte("dst")
		v, n, err := DecodeVariant(src)
		got, gn, gerr := AppendCanonical(prefix, src)
		if (err == nil) != (gerr == nil) || n != gn {
			t.Fatalf("%v: DecodeVariant = (%d, %v), AppendCanonical = (%d, %v)", src, n, err, gn, gerr)
		}
		want := prefix
		if err == nil {
			want = v.AppendEncoded(prefix)
			if v.EncodedLen() != len(want)-len(prefix) {
				t.Errorf("%v: EncodedLen = %d, encoding has %d bytes", src, v.EncodedLen(), len(want)-len(prefix))
			}
		}
		if string(got) != string(want) {
			t.Errorf("%v: AppendCanonical appended %v, want %v", src, got[len(prefix):], want[len(prefix):])
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		enc := quickVariant(uint8(rng.Intn(5)), rng.Uint64()>>uint(rng.Intn(64)), "some string"[:rng.Intn(12)]).AppendEncoded(nil)
		check(enc)
		check(enc[:rng.Intn(len(enc)+1)])
		check(append(enc, 7, 7)) // trailing bytes are not the variant's
		// a redundant continuation byte on the first varint: same value
		if len(enc) > 1 && len(enc) < 9 {
			padded := append([]byte{enc[0], enc[1] | 0x80, 0}, enc[2:]...)
			if enc[1] < 0x80 {
				check(padded)
			}
		}
		junk := make([]byte, rng.Intn(12))
		rng.Read(junk)
		check(junk)
	}
	check([]byte{byte(Inv)})
	check([]byte{byte(TypeID), byte(Float)})
	check([]byte{byte(Int), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // varint overflow
}

// quickVariant builds a variant from arbitrary quick-generated values.
func quickVariant(kindSel uint8, bits uint64, s string) Variant {
	switch kindSel % 5 {
	case 0:
		return IntV(int64(bits))
	case 1:
		return UintV(bits)
	case 2:
		f := math.Float64frombits(bits)
		if math.IsNaN(f) {
			f = 0 // NaN breaks == comparison; tested separately
		}
		return FloatV(f)
	case 3:
		return StringV(s)
	default:
		return BoolV(bits&1 == 1)
	}
}

func TestQuickVariantEncodeRoundTrip(t *testing.T) {
	f := func(kindSel uint8, bits uint64, s string) bool {
		v := quickVariant(kindSel, bits, s)
		enc := v.AppendEncoded(nil)
		got, n, err := DecodeVariant(enc)
		return err == nil && n == len(enc) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEncodingInjective(t *testing.T) {
	// Distinct variants must encode to distinct byte strings (collision-free
	// key property from Section IV-B).
	f := func(k1 uint8, b1 uint64, s1 string, k2 uint8, b2 uint64, s2 string) bool {
		v1, v2 := quickVariant(k1, b1, s1), quickVariant(k2, b2, s2)
		e1, e2 := string(v1.AppendEncoded(nil)), string(v2.AppendEncoded(nil))
		if v1 == v2 {
			return e1 == e2
		}
		return e1 != e2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		v, err := ParseAs(IntV(n).String(), Int)
		return err == nil && v == IntV(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(u uint64) bool {
		v, err := ParseAs(UintV(u).String(), Uint)
		return err == nil && v == UintV(u)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestVariantKindSwitchExhaustive(t *testing.T) {
	// reflect-based sanity: all constructors produce comparable values
	vals := []Variant{IntV(1), UintV(1), FloatV(1), StringV("1"), BoolV(true)}
	for _, v := range vals {
		if !reflect.TypeOf(v).Comparable() {
			t.Fatalf("Variant must stay comparable (map-key requirement)")
		}
	}
}
