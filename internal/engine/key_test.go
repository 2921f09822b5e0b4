package engine

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// keyPool holds values at the edges of the grouping equivalence: NULL, both
// zeros, bools against 0 / 1, integers float64 cannot tell apart around
// ±2^53 and at ±2^63, floats at and just inside ±2^63, NaN payloads, the
// infinities, and text that spells other keys or holds separator bytes.
var keyPool = []Value{
	Null(),
	Int(0), Float(0), Float(math.Copysign(0, -1)), Bool(false),
	Int(1), Float(1), Bool(true), Int(-1),
	Int(1 << 53), Int(1<<53 + 1), Float(1 << 53), Float(1<<53 + 2),
	Int(-1 << 53), Int(-1<<53 - 1), Float(-1 << 53),
	Int(math.MaxInt64), Int(math.MinInt64), Int(math.MaxInt64 - 1),
	Float(0x1p63), Float(-0x1p63), Float(math.Nextafter(0x1p63, 0)), Float(math.Nextafter(-0x1p63, math.Inf(-1))),
	Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0xfff0000000000001)),
	Float(math.Inf(1)), Float(math.Inf(-1)), Float(0.5), Float(-2.5), Float(1e300),
	Text(""), Text("a"), Text("A"), Text("b"), Text("1"), Text("#1"), Text("\x00N"),
	Text("a\x1fsc"), Text("c\x1fsb"), Text("s1:a"),
}

// groupRef is one value's grouping key as the equivalence states it,
// computed without intKey: a float is an integer key when math/big converts
// it to an int64 exactly.
type groupRef struct {
	kind byte
	i    int64
	bits uint64
	s    string
}

func groupKeyRef(v Value) groupRef {
	switch v.T {
	case TypeNull:
		return groupRef{kind: 'n'}
	case TypeInt:
		return groupRef{kind: 'i', i: v.I}
	case TypeBool:
		if v.B {
			return groupRef{kind: 'i', i: 1}
		}
		return groupRef{kind: 'i'}
	case TypeFloat:
		if math.IsNaN(v.Real()) {
			return groupRef{kind: 'f'}
		}
		if !math.IsInf(v.Real(), 0) {
			if i, acc := big.NewFloat(v.Real()).Int64(); acc == big.Exact {
				return groupRef{kind: 'i', i: i}
			}
		}
		return groupRef{kind: 'f', bits: math.Float64bits(v.Real())}
	}
	return groupRef{kind: 's', s: v.S}
}

// keyCase decodes a fuzz input into keys one to three values wide: a byte
// picks a key's width, then one byte per value picks it from keyPool.
func keyCase(data []byte) [][]Value {
	var keys [][]Value
	for len(data) > 0 {
		w := 1 + int(data[0])%3
		if len(data) < 1+w {
			break
		}
		key := make([]Value, w)
		for k := range key {
			key[k] = keyPool[int(data[1+k])%len(keyPool)]
		}
		keys = append(keys, key)
		data = data[1+w:]
	}
	return keys
}

// checkKeyIndexCase numbers the decoded keys three ways — keyIndex, the
// concatenated appendKey bytes, and the equivalence as stated — and requires
// the same numbers from all three.
func checkKeyIndexCase(t *testing.T, data []byte) {
	t.Helper()
	var idx keyIndex
	byBytes := map[string]int32{}
	type refTuple struct {
		n int
		k [3]groupRef
	}
	byRef := map[refTuple]int32{}
	for _, key := range keyCase(data) {
		var b []byte
		ref := refTuple{n: len(key)}
		for k, v := range key {
			b = v.appendKey(b)
			ref.k[k] = groupKeyRef(v)
		}
		wantID, seen := byBytes[string(b)]
		if !seen {
			wantID = int32(len(byBytes))
			byBytes[string(b)] = wantID
		}
		refID, refSeen := byRef[ref]
		if !refSeen {
			refID = int32(len(byRef))
			byRef[ref] = refID
		}
		if refID != wantID {
			t.Fatalf("key %v: appendKey bytes %q number it %d, the equivalence %d", key, b, wantID, refID)
		}
		if id, isNew := idx.id(key); id != wantID || isNew == seen {
			t.Fatalf("key %v: keyIndex gave (%d, new=%v), want (%d, new=%v)", key, id, isNew, wantID, !seen)
		}
	}
}

// checkColCodesCase lays the values of the decoded keys out as one column
// and requires its codes to be keyIndex.id1's ids over the same values, in
// the same first-seen order, and groupByCodes' numbering of every row and of
// every other row to be a fresh keyIndex's over the selected values, where
// it takes the selection.
func checkColCodesCase(t *testing.T, data []byte) {
	t.Helper()
	tbl := &Table{Name: "c", Columns: []Column{{Name: "v"}}}
	for _, key := range keyCase(data) {
		for _, v := range key {
			tbl.Rows = append(tbl.Rows, []Value{v})
		}
	}
	ct := buildColTable(tbl)
	c := ct.colCodes(0)
	var idx keyIndex
	for i, row := range tbl.Rows {
		if id, _ := idx.id1(row[0]); c.ids[i] != id {
			t.Fatalf("column %v: row %d has code %d, keyIndex says %d", tbl.Rows, i, c.ids[i], id)
		}
	}
	if c.n != idx.n || c.null != idx.null-1 {
		t.Fatalf("column %v: %d codes, NULL %d; keyIndex has %d keys, NULL %d", tbl.Rows, c.n, c.null, idx.n, idx.null-1)
	}
	v := &vecExec{vp: &vecPlan{t1: tbl}, ct1: ct}
	for step := 1; step <= 2; step++ {
		var sel []int32
		for i := 0; i < len(tbl.Rows); i += step {
			sel = append(sel, int32(i))
		}
		gid, ng := v.groupByCodes(sel, colSlot{})
		if gid == nil {
			continue
		}
		var fresh keyIndex
		for n, i := range sel {
			if id, _ := fresh.id1(tbl.Rows[i][0]); gid[n] != id {
				t.Fatalf("column %v, rows %v: row %d in group %d, keyIndex says %d", tbl.Rows, sel, i, gid[n], id)
			}
		}
		if ng != int(fresh.n) {
			t.Fatalf("column %v, rows %v: %d groups, keyIndex has %d keys", tbl.Rows, sel, ng, fresh.n)
		}
	}
}

// eqPools are homogeneous domains for the equality table: numbers with
// int / float ties, both zeros, the infinities and ints that share a
// float64; text with case-fold ties, which Compare keeps apart.
var eqPools = [][]Value{
	{Int(0), Float(math.Copysign(0, -1)), Float(0), Int(1), Float(1), Int(2), Float(2.5),
		Int(1 << 53), Int(1<<53 + 1), Float(1 << 53), Float(math.Inf(1)), Float(math.Inf(-1)),
		Int(math.MinInt64), Float(-0x1p63), Int(math.MaxInt64), Float(0x1p63)},
	{Text(""), Text("a"), Text("A"), Text("b"), Text("é"), Text("É"), Text("a\x1fsc"), Text("1")},
}

// checkEqTableCase decodes byte 0 as the domain and every later byte as a
// NULL (one in eight) or a value of it, builds an eqTable over the values,
// and probes it with every value and NULL: a probe must match exactly the
// rows Equal calls equal, in row order, as a window whose capacity ends at
// its length.
func checkEqTableCase(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	pool := eqPools[int(data[0])%len(eqPools)]
	vals := make([]Value, 0, len(data)-1)
	dom := domNone
	for _, b := range data[1:] {
		v := Null()
		if b%8 != 0 {
			v = pool[int(b/8)%len(pool)]
		}
		vals = append(vals, v)
		dom = dom.with(v)
	}
	if dom == domNone {
		return
	}
	if !dom.hashable() {
		t.Fatalf("values %v: domain %d has no hash", vals, dom)
	}
	ht := newEqTable(dom, len(vals), func(i int) Value { return vals[i] })
	for _, probe := range append(vals, Null()) {
		var want []int32
		for i, v := range vals {
			if eq, known := Equal(probe, v); eq && known {
				want = append(want, int32(i))
			}
		}
		got := ht.match(probe)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %#v over %v: matched %v, Equal says %v", probe, vals, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("probe %#v over %v: window %v has capacity %d", probe, vals, got, cap(got))
		}
	}
}

// TestKeyIndexMatchesAppendKey checks keyIndex and appendKey against the
// grouping equivalence, a column's grouping codes against keyIndex, and the
// equality table against Equal, on random inputs; half of them draw from a
// few values only, for long runs of repeated keys.
func TestKeyIndexMatchesAppendKey(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 1+rng.Intn(120))
		rng.Read(data)
		if rng.Intn(2) == 0 {
			for i := 1; i < len(data); i++ {
				data[i] %= 24
			}
		}
		checkKeyIndexCase(t, data)
		checkColCodesCase(t, data)
		checkEqTableCase(t, data)
	}
}

func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4})     // one-value zeros and bools
	f.Add([]byte{0, 9, 0, 10, 0, 11, 0, 12})  // ints and floats around 2^53
	f.Add([]byte{0, 16, 0, 17, 0, 19, 0, 20}) // the ends of the int64 range
	f.Add([]byte{0, 23, 0, 24, 0, 25, 0, 26}) // NaN payloads and an infinity
	f.Add([]byte{1, 38, 34, 1, 32, 39})       // two-value text rows holding \x1f
	f.Add([]byte{2, 0, 31, 32, 2, 31, 0, 32}) // three-value rows with NULL and empty text
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzzer's minimizer is quadratic in the input length, and the
		// equality-table check quadratic in the value count.
		if len(data) > 96 {
			t.Skip()
		}
		checkKeyIndexCase(t, data)
		checkColCodesCase(t, data)
		checkEqTableCase(t, data)
	})
}

// TestRowKeysInjective keeps two rows apart whose text holds the byte an
// unframed row key would put between its values: ("a\x1fsc", "b") and
// ("a", "c\x1fsb") under DISTINCT and a two-key GROUP BY, on every leg.
func TestRowKeysInjective(t *testing.T) {
	db := NewDatabase("inj")
	if err := db.LoadScript("CREATE TABLE p (a TEXT, b TEXT);"); err != nil {
		t.Fatal(err)
	}
	p, _ := db.Table("p")
	p.Rows = [][]Value{{Text("a\x1fsc"), Text("b")}, {Text("a"), Text("c\x1fsb")}}
	if res, err := runLegs(t, db, "SELECT DISTINCT a, b FROM p"); err != nil || !reflect.DeepEqual(res.Rows, p.Rows) {
		t.Errorf("DISTINCT: %+v (err %v), want %v", res, err, p.Rows)
	}
	want := [][]Value{{p.Rows[0][0], p.Rows[0][1], Int(1)}, {p.Rows[1][0], p.Rows[1][1], Int(1)}}
	if res, err := runLegs(t, db, "SELECT a, b, COUNT(*) FROM p GROUP BY a, b"); err != nil || !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("GROUP BY: %+v (err %v), want %v", res, err, want)
	}
}
