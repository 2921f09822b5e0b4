package engine

import (
	"math"
	"strconv"
)

// This file holds the engine's two notions of "the same value". Each has one
// implementation, and every site that hashes values uses it.
//
// Grouping equivalence — GROUP BY, DISTINCT, UNION / INTERSECT / EXCEPT,
// COUNT(DISTINCT) and EqualResults. NULL groups with NULL. Int, Bool (0 / 1)
// and an integral Float in [-2^63, 2^63) are keyed by their int64 value, so
// -0 ≡ 0 and 1 ≡ 1.0 ≡ true. Any other Float is keyed by its bits, every NaN
// being one key. Text is exact and case-sensitive. appendKey spells a key out
// as bytes; keyIndex numbers keys. A column's grouping codes (colCodes,
// columnar.go) are one keyIndex's numbers over the whole column, built once
// per loaded table.
//
// Join equivalence — the vectorized hash equi-join (buildPairs) and IN over
// a closed subquery. It is Compare equality, where NULL never matches. It has a
// hash only on a homogeneous keyDomain: on numbers the key is the float64
// value with -0 folded into 0 (Compare compares int and float as float64);
// on text it is the exact string (Compare ties only identical strings).
// Bool (it equals numbers and text alike), NaN (it equals every number) and
// mixed domains have no hash, and the sites fall back to Compare. eqTable is
// the hash table: it numbers the keys and partitions the rows by key, the
// same partition that lays out GROUP BY's groups. The join's tables are
// built once per loaded table and column (colTable.eqTable), IN's once per
// Run.

// intKey returns the int64 that keys v under the grouping equivalence, if
// any. The range test comes first: converting an out-of-range float to int64
// is implementation-defined in Go.
func intKey(v Value) (int64, bool) {
	switch v.T {
	case TypeInt:
		return v.I, true
	case TypeBool:
		if v.B {
			return 1, true
		}
		return 0, true
	case TypeFloat:
		if f := v.Real(); f >= -0x1p63 && f < 0x1p63 && f == float64(int64(f)) {
			return int64(f), true
		}
	}
	return 0, false
}

// appendKey appends v's grouping key to dst as bytes Key returns. Every
// encoding is self-delimiting — a number never contains a tag byte ('#',
// 's', '\x00') and text is length-prefixed — so the concatenated keys of a
// row are equal exactly when the rows are equal key by key.
func (v Value) appendKey(dst []byte) []byte {
	if i, ok := intKey(v); ok {
		return strconv.AppendInt(append(dst, '#'), i, 10)
	}
	switch v.T {
	case TypeNull:
		return append(dst, "\x00N"...)
	case TypeFloat:
		return strconv.AppendFloat(append(dst, '#'), v.Real(), 'g', -1, 64)
	case TypeText:
		dst = strconv.AppendInt(append(dst, 's'), int64(len(v.S)), 10)
		return append(append(dst, ':'), v.S...)
	}
	return append(dst, '?')
}

// keyIndex numbers the distinct grouping keys it is shown 0, 1, 2, ... in
// first-seen order. A one-value key probes a map of its kind, so the common
// GROUP BY and DISTINCT on one column never builds a key string; a wider key
// probes by its appendKey bytes. The zero value is ready to use; hint sizes
// the maps when they are made.
type keyIndex struct {
	n    int32
	hint int
	null int32 // the NULL key's id + 1; 0 until seen
	ints map[int64]int32
	bits map[uint64]int32
	strs map[string]int32
	wide map[string]int32
	buf  []byte
}

// id returns the number of the key vals, and whether this call assigned it.
func (x *keyIndex) id(vals []Value) (int32, bool) {
	if len(vals) == 1 {
		return x.id1(vals[0])
	}
	x.buf = x.buf[:0]
	for _, v := range vals {
		x.buf = v.appendKey(x.buf)
	}
	if id, ok := x.wide[string(x.buf)]; ok {
		return id, false
	}
	if x.wide == nil {
		x.wide = make(map[string]int32, x.hint)
	}
	x.wide[string(x.buf)] = x.n
	x.n++
	return x.n - 1, true
}

// id1 is id of the one-value key v.
func (x *keyIndex) id1(v Value) (int32, bool) {
	if i, ok := intKey(v); ok {
		return keyID(x, &x.ints, i)
	}
	switch v.T {
	case TypeFloat:
		b := math.Float64bits(v.Real())
		if v.Real() != v.Real() {
			b = math.Float64bits(math.NaN())
		}
		return keyID(x, &x.bits, b)
	case TypeText:
		return keyID(x, &x.strs, v.S)
	}
	if x.null > 0 {
		return x.null - 1, false
	}
	x.n++
	x.null = x.n
	return x.n - 1, true
}

// keyID looks k up in the key map *m, numbering it when it is new.
func keyID[K comparable](x *keyIndex, m *map[K]int32, k K) (int32, bool) {
	if id, ok := (*m)[k]; ok {
		return id, false
	}
	if *m == nil {
		*m = make(map[K]int32, x.hint)
	}
	(*m)[k] = x.n
	x.n++
	return x.n - 1, true
}

// keyDomain is the type domain of a set of values to be matched under the
// join equivalence. Only domNum and domText have a hash.
type keyDomain uint8

const (
	domNone  keyDomain = iota // no non-NULL value seen
	domNum                    // int and float, no NaN
	domText                   // text
	domMixed                  // anything else: no hash
)

// with widens d to cover v. NULLs never match and leave d alone.
func (d keyDomain) with(v Value) keyDomain {
	switch v.T {
	case TypeNull:
		return d
	case TypeInt:
		return d.merge(domNum)
	case TypeFloat:
		if math.IsNaN(v.Real()) {
			return domMixed
		}
		return d.merge(domNum)
	case TypeText:
		return d.merge(domText)
	}
	return domMixed
}

// merge is the domain covering both d and e.
func (d keyDomain) merge(e keyDomain) keyDomain {
	switch {
	case d == domNone || d == e:
		return e
	case e == domNone:
		return d
	}
	return domMixed
}

// hashable reports whether the join equivalence has a hash on d.
func (d keyDomain) hashable() bool { return d == domNum || d == domText }

// eqTable indexes rows by a key value under the join equivalence: match(v)
// returns, in row order, the rows whose key Compare-equals v. The rows are
// partitioned by key, so a table costs the same few allocations however
// many distinct keys it holds.
type eqTable struct {
	num  map[uint64]int32 // key → id, on domNum
	text map[string]int32 // key → id, on domText
	rows parts[int32]     // id → its rows
}

// newEqTable indexes rows 0..n-1 by key(i) over the hashable domain dom.
// Every key must be NULL or lie in dom; a NULL is never recorded: it
// matches nothing.
func newEqTable(dom keyDomain, n int, key func(int) Value) eqTable {
	var t eqTable
	if dom == domNum {
		t.num = make(map[uint64]int32, n)
	} else {
		t.text = make(map[string]int32, n)
	}
	rows, ids := make([]int32, 0, n), make([]int32, 0, n)
	for i := 0; i < n; i++ {
		var g int32
		switch v := key(i); {
		case v.IsNull():
			continue
		case t.num != nil:
			g = eqID(t.num, numKey(v))
		default:
			g = eqID(t.text, v.S)
		}
		rows, ids = append(rows, int32(i)), append(ids, g)
	}
	t.rows = partition(rows, ids, len(t.num)+len(t.text))
	return t
}

// eqID returns k's id in m, numbering it len(m) when it is new.
func eqID[K comparable](m map[K]int32, k K) int32 {
	id, ok := m[k]
	if !ok {
		id = int32(len(m))
		m[k] = id
	}
	return id
}

func numKey(v Value) uint64 {
	f, _ := v.AsFloat()
	if f == 0 {
		f = 0 // -0 Compare-equals 0
	}
	return math.Float64bits(f)
}

// match returns the rows whose key Compare-equals v; none for NULL.
func (t *eqTable) match(v Value) []int32 {
	var g int32
	var ok bool
	switch {
	case v.IsNull():
		return nil
	case t.num != nil:
		g, ok = t.num[numKey(v)]
	default:
		g, ok = t.text[v.S]
	}
	if !ok {
		return nil
	}
	return t.rows.at(int(g))
}
