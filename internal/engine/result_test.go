package engine

import (
	"math"
	"strings"
	"testing"
)

func res(ordered bool, rows ...[]Value) *Result {
	cols := []string{}
	if len(rows) > 0 {
		for i := range rows[0] {
			cols = append(cols, string(rune('a'+i)))
		}
	}
	return &Result{Columns: cols, Rows: rows, Ordered: ordered}
}

func TestEqualResultsUnorderedMultiset(t *testing.T) {
	a := res(false, []Value{Int(1)}, []Value{Int(2)})
	b := res(false, []Value{Int(2)}, []Value{Int(1)})
	if !EqualResults(a, b) {
		t.Error("unordered results should match as multisets")
	}
}

func TestEqualResultsOrderedSensitive(t *testing.T) {
	a := res(true, []Value{Int(1)}, []Value{Int(2)})
	b := res(true, []Value{Int(2)}, []Value{Int(1)})
	if EqualResults(a, b) {
		t.Error("ordered results must match in order")
	}
	c := res(true, []Value{Int(1)}, []Value{Int(2)})
	if !EqualResults(a, c) {
		t.Error("identical ordered results should match")
	}
}

func TestEqualResultsMixedOrderIsOrderSensitive(t *testing.T) {
	// A prediction that drops the gold ORDER BY must be able to fail: one
	// ordered side forces ordered comparison.
	a := res(true, []Value{Int(1)}, []Value{Int(2)})
	b := res(false, []Value{Int(2)}, []Value{Int(1)})
	if EqualResults(a, b) {
		t.Error("one ordered side must force order-sensitive comparison")
	}
	c := res(false, []Value{Int(1)}, []Value{Int(2)})
	if !EqualResults(a, c) {
		t.Error("same order should still match")
	}
}

func TestEqualResultsDifferentShape(t *testing.T) {
	a := res(false, []Value{Int(1)})
	b := res(false, []Value{Int(1)}, []Value{Int(1)})
	if EqualResults(a, b) {
		t.Error("different row counts must differ")
	}
	c := res(false, []Value{Int(1), Int(2)})
	if EqualResults(a, c) {
		t.Error("different column counts must differ")
	}
}

func TestEqualResultsMultisetDuplicates(t *testing.T) {
	a := res(false, []Value{Int(1)}, []Value{Int(1)}, []Value{Int(2)})
	b := res(false, []Value{Int(1)}, []Value{Int(2)}, []Value{Int(2)})
	if EqualResults(a, b) {
		t.Error("multiset cardinalities must match")
	}
}

func TestEqualResultsNumericTypeCollapse(t *testing.T) {
	a := res(false, []Value{Int(3)})
	b := res(false, []Value{Float(3.0)})
	if !EqualResults(a, b) {
		t.Error("COUNT-style int vs float results should compare equal")
	}
}

func TestEqualResultsNil(t *testing.T) {
	if !EqualResults(nil, nil) {
		t.Error("nil == nil")
	}
	if EqualResults(nil, res(false)) {
		t.Error("nil != non-nil")
	}
}

// TestEqualResultsGroupingEquivalence pins the row equality EqualResults
// compares under: ints, bools and integral floats collapse, NULL equals
// NULL, NaNs are one value, text is case-sensitive, and rows whose text holds
// what an unframed key would use as a separator stay apart.
func TestEqualResultsGroupingEquivalence(t *testing.T) {
	for _, tc := range []struct {
		a, b []Value
		want bool
	}{
		{[]Value{Int(1), Null()}, []Value{Bool(true), Null()}, true},
		{[]Value{Float(math.Copysign(0, -1))}, []Value{Int(0)}, true},
		{[]Value{Float(math.NaN())}, []Value{Float(-math.NaN())}, true},
		{[]Value{Int(1 << 53)}, []Value{Int(1<<53 + 1)}, false},
		{[]Value{Float(0x1p63)}, []Value{Int(math.MaxInt64)}, false},
		{[]Value{Text("a")}, []Value{Text("A")}, false},
		{[]Value{Text("1")}, []Value{Int(1)}, false},
		{[]Value{Text("a\x1fsc"), Text("b")}, []Value{Text("a"), Text("c\x1fsb")}, false},
		{[]Value{Text("s1:a")}, []Value{Text("a")}, false},
	} {
		for _, ordered := range []bool{false, true} {
			if got := EqualResults(res(ordered, tc.a), res(ordered, tc.b)); got != tc.want {
				t.Errorf("ordered=%v: EqualResults(%v, %v) = %v, want %v", ordered, tc.a, tc.b, got, tc.want)
			}
		}
	}
}

func TestFormatTable(t *testing.T) {
	r := &Result{
		Columns: []string{"Name", "Release Year"},
		Rows:    [][]Value{{Text("Tribal King"), Text("2016")}},
	}
	out := r.Format()
	if !strings.Contains(out, "Tribal King") || !strings.Contains(out, "Release Year") {
		t.Errorf("format output: %q", out)
	}
	empty := &Result{Columns: []string{"x"}}
	if empty.Format() != "(no rows)" {
		t.Errorf("empty format: %q", empty.Format())
	}
}
