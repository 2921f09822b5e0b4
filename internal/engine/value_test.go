package engine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCompareOrdering(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Text("apple"), Text("banana"), -1},
		{Text("Apple"), Text("apple"), -1}, // case-insensitive tie broken by case
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Bool(true), Bool(false), 1},
		{Bool(true), Int(1), 0},
		{Text("2023-01-01"), Text("2023-02-01"), -1}, // ISO date ordering
	}
	for _, tc := range tests {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTextAntisymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return Compare(Text(a), Text(b)) == -Compare(Text(b), Text(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyEqualityMatchesCompare(t *testing.T) {
	// Two values with equal keys must compare equal; this keeps the
	// grouping map and Compare consistent.
	f := func(a, b int64) bool {
		keyEq := Int(a).Key() == Int(b).Key()
		cmpEq := Compare(Int(a), Int(b)) == 0
		return keyEq == cmpEq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntFloatKeyCollapse(t *testing.T) {
	if Int(3).Key() != Float(3.0).Key() {
		t.Error("integral float key should equal int key")
	}
	if Int(3).Key() == Float(3.5).Key() {
		t.Error("distinct values must have distinct keys")
	}
	if Int(3).Key() == Text("3").Key() {
		t.Error("number and text keys must differ")
	}
}

func TestEqualNullUnknown(t *testing.T) {
	if _, known := Equal(Null(), Int(1)); known {
		t.Error("NULL equality should be unknown")
	}
	if eq, known := Equal(Int(1), Int(1)); !known || !eq {
		t.Error("1 = 1 should be known true")
	}
}

func TestTruthy(t *testing.T) {
	tests := []struct {
		v    Value
		want bool
	}{
		{Bool(true), true},
		{Bool(false), false},
		{Int(0), false},
		{Int(7), true},
		{Float(0), false},
		{Float(0.1), true},
		{Text(""), false},
		{Text("x"), true},
		{Null(), false},
	}
	for _, tc := range tests {
		if got := tc.v.Truthy(); got != tc.want {
			t.Errorf("Truthy(%v) = %v", tc.v, got)
		}
	}
}

// TestValueLayout pins the 32-byte Value: a REAL round-trips its exact bits
// through I, and every value that is neither INT nor REAL has I == 0, so an
// unguarded read of I sees 0 for it.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("Value is %d bytes, want 32", n)
	}
	for _, x := range []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8_0000_dead_beef), // a NaN with a payload
		math.Inf(1),
		math.Inf(-1),
		math.SmallestNonzeroFloat64,
		math.MaxFloat64,
	} {
		if got := Float(x).Real(); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("Float(%v).Real() has bits %#x, want %#x", x, math.Float64bits(got), math.Float64bits(x))
		}
	}
	for _, v := range []Value{Text(""), Text("abc"), Bool(true), Bool(false), Null()} {
		if v.I != 0 {
			t.Errorf("%v (%s) has I = %d, want 0", v, v.T, v.I)
		}
	}
}

func TestParseLiteral(t *testing.T) {
	v, err := ParseLiteral("42", TypeInt)
	if err != nil || v.I != 42 {
		t.Errorf("int: %v, %v", v, err)
	}
	v, err = ParseLiteral("3.5", TypeFloat)
	if err != nil || v.Real() != 3.5 {
		t.Errorf("float: %v, %v", v, err)
	}
	v, err = ParseLiteral("TRUE", TypeBool)
	if err != nil || !v.B {
		t.Errorf("bool: %v, %v", v, err)
	}
	if _, err = ParseLiteral("zap", TypeInt); err == nil {
		t.Error("bad int should error")
	}
	if _, err = ParseLiteral("zap", TypeBool); err == nil {
		t.Error("bad bool should error")
	}
}

func TestTypeFromSQL(t *testing.T) {
	tests := map[string]Type{
		"INT": TypeInt, "integer": TypeInt,
		"REAL": TypeFloat, "FLOAT": TypeFloat,
		"BOOL": TypeBool, "BOOLEAN": TypeBool,
		"TEXT": TypeText, "VARCHAR": TypeText, "DATE": TypeText,
	}
	for name, want := range tests {
		if got := TypeFromSQL(name); got != want {
			t.Errorf("TypeFromSQL(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Int(5), "5"},
		{Float(2.5), "2.5"},
		{Text("hi"), "hi"},
		{Bool(true), "true"},
		{Null(), "NULL"},
	}
	for _, tc := range tests {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	tests := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "x%", false},
		{"hello", "", false},
		{"", "%", true},
		{"HELLO", "hello", true}, // case-insensitive
		{"abc", "a%c", true},
		{"abc", "a_c", true},
		{"ac", "a_c", false},
	}
	ex := &Executor{}
	for _, tc := range tests {
		if got := ex.like(tc.s, tc.p); got != tc.want {
			t.Errorf("like(%q, %q) = %v", tc.s, tc.p, got)
		}
	}
}

// TestCompareFoldMatchesToLower pins the allocation-free text comparison to
// the definition it replaced: lexicographic order of strings.ToLower copies.
func TestCompareFoldMatchesToLower(t *testing.T) {
	ref := func(a, b string) int {
		al, bl := strings.ToLower(a), strings.ToLower(b)
		return strings.Compare(al, bl)
	}
	fixed := []string{
		"", "a", "A", "ab", "AB", "aB", "abc", "ABD", "z", "Z",
		"Straße", "STRASSE", "ñ", "Ñ", "É", "é", "日本語", "日本",
		"\xff", "a\xffb", "a\xc3", "�", "\U00010000", "K", "K",
	}
	for _, a := range fixed {
		for _, b := range fixed {
			if got, want := compareFold(a, b), ref(a, b); got != want {
				t.Errorf("compareFold(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
	}
	f := func(a, b string) bool { return compareFold(a, b) == ref(a, b) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
