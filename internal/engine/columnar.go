package engine

import (
	"math"
	"sync"
)

// This file implements the columnar half of the engine's storage: a typed,
// column-major projection of a Table, built lazily once per table and cached
// on the Database. The row-major [][]Value layout stays the source of truth
// — output values and ORDER BY keys are always copied from Table.Rows, never
// reconstructed from the arrays — so the columnar form is purely an
// acceleration structure for the vectorized kernels in vec.go: filter masks
// and aggregate folds stride over packed float64/string arrays instead of
// 32-byte Value structs scattered across row slices.

// colKind classifies the non-NULL values observed in one column. Kernels
// only run over kinds whose Compare semantics they can mirror exactly:
// numeric kinds compare as float64 (Compare's rule for int/float), string
// columns compare with compareFold plus an exact tiebreak. Everything else
// (bool, mixed domains, NaN) is kindOther and handled by the generic
// row-at-a-time fallback.
type colKind uint8

const (
	// kindEmpty means every value is NULL (or the table has no rows).
	kindEmpty colKind = iota
	// kindInt: all non-NULL values are TypeInt.
	kindInt
	// kindFloat: all non-NULL values are TypeFloat, none NaN.
	kindFloat
	// kindNum: a mix of TypeInt and TypeFloat, none NaN.
	kindNum
	// kindString: all non-NULL values are TypeText.
	kindString
	// kindOther: bool values, mixed text/number domains, or NaN — Compare
	// is not faithfully representable in a typed array (bool equates with
	// both numbers and text; NaN Compare-equals every number).
	kindOther
)

// domain is the keyDomain of the column's non-NULL values.
func (k colKind) domain() keyDomain {
	switch k {
	case kindEmpty:
		return domNone
	case kindInt, kindFloat, kindNum:
		return domNum
	case kindString:
		return domText
	}
	return domMixed
}

// colData is one column's typed projection.
type colData struct {
	kind colKind
	// nulls flags NULL slots; nil when the column has no NULLs.
	nulls []bool
	// nums holds the float64 rendering of every non-NULL value for the
	// numeric kinds (NULL slots are zero and must be guarded by nulls).
	nums []float64
	// strs holds the raw strings for kindString.
	strs []string
}

// null reports whether row i is NULL in this column.
func (c *colData) null(i int) bool { return c.nulls != nil && c.nulls[i] }

// colTable is the columnar projection of one table at a point in time.
// Besides the typed arrays, which buildColTable fills, it holds per-column
// structures that are built on first use: a join table (eqTable) and
// grouping codes (colCodes). Every part is immutable once built, and all of
// it goes stale with the projection.
type colTable struct {
	t *Table
	// n is the row count the projection was built from; n != len(t.Rows)
	// means the table has grown and the projection is stale (see
	// Database.colMu).
	n    int
	cols []colData
	// names are the table's column names, shared by every vecPlan over it.
	names []string

	// mu guards eqs and codes, one entry per column, nil until the
	// column's first use.
	mu    sync.Mutex
	eqs   []*eqTable
	codes []*colCodes
}

// colCodes numbers one column's values under the grouping equivalence:
// ids[i] is row i's key number from one keyIndex over the whole column, in
// first-seen order, n is the number of keys and null the NULL key's number,
// -1 when the column holds no NULL.
type colCodes struct {
	ids     []int32
	n, null int32
}

// eqTable returns column ci's join table, built on first use in the
// column's own domain, which must be hashable.
func (ct *colTable) eqTable(ci int) *eqTable {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.eqs[ci] == nil {
		rows := ct.t.Rows
		ht := newEqTable(ct.cols[ci].kind.domain(), ct.n, func(i int) Value { return rows[i][ci] })
		ct.eqs[ci] = &ht
	}
	return ct.eqs[ci]
}

// colCodes returns column ci's grouping codes, built on first use.
func (ct *colTable) colCodes(ci int) *colCodes {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.codes[ci] == nil {
		var idx keyIndex
		c := &colCodes{ids: make([]int32, ct.n)}
		for i, row := range ct.t.Rows[:ct.n] {
			c.ids[i], _ = idx.id1(row[ci])
		}
		c.n, c.null = idx.n, idx.null-1
		ct.codes[ci] = c
	}
	return ct.codes[ci]
}

// buildColTable projects t into typed column arrays.
func buildColTable(t *Table) *colTable {
	n := len(t.Rows)
	nc := len(t.Columns)
	ct := &colTable{t: t, n: n, cols: make([]colData, nc), names: make([]string, nc),
		eqs: make([]*eqTable, nc), codes: make([]*colCodes, nc)}
	for ci, col := range t.Columns {
		ct.names[ci] = col.Name
		c := &ct.cols[ci]
		// Pass 1: classify the column's non-NULL domain.
		kind := kindEmpty
		hasNull := false
		for _, row := range t.Rows {
			v := row[ci]
			switch v.T {
			case TypeNull:
				hasNull = true
				continue
			case TypeInt:
				switch kind {
				case kindEmpty:
					kind = kindInt
				case kindFloat, kindNum:
					kind = kindNum
				case kindInt:
				default:
					kind = kindOther
				}
			case TypeFloat:
				if math.IsNaN(v.Real()) {
					kind = kindOther
					break
				}
				switch kind {
				case kindEmpty:
					kind = kindFloat
				case kindInt, kindNum:
					kind = kindNum
				case kindFloat:
				default:
					kind = kindOther
				}
			case TypeText:
				if kind == kindEmpty || kind == kindString {
					kind = kindString
				} else {
					kind = kindOther
				}
			default:
				kind = kindOther
			}
		}
		c.kind = kind
		if hasNull {
			c.nulls = make([]bool, n)
		}
		// Pass 2: fill the typed array for kernel-usable kinds.
		switch kind {
		case kindInt, kindFloat, kindNum:
			c.nums = make([]float64, n)
			for i, row := range t.Rows {
				v := row[ci]
				if v.T == TypeNull {
					c.nulls[i] = true
					continue
				}
				f, _ := v.AsFloat()
				c.nums[i] = f
			}
		case kindString:
			c.strs = make([]string, n)
			for i, row := range t.Rows {
				v := row[ci]
				if v.T == TypeNull {
					c.nulls[i] = true
					continue
				}
				c.strs[i] = v.S
			}
		default:
			if hasNull {
				for i, row := range t.Rows {
					if row[ci].T == TypeNull {
						c.nulls[i] = true
					}
				}
			}
		}
	}
	return ct
}

// colTable returns the cached columnar projection of t, rebuilding it when
// rows were appended since the last build. Safe for concurrent use; the
// projection is immutable once returned, apart from the per-column
// structures it builds once, on first use, under its own lock.
func (db *Database) colTable(t *Table) *colTable {
	db.colMu.Lock()
	defer db.colMu.Unlock()
	if ct, ok := db.colCache[t]; ok && ct.n == len(t.Rows) {
		return ct
	}
	ct := buildColTable(t)
	if db.colCache == nil {
		db.colCache = map[*Table]*colTable{}
	}
	db.colCache[t] = ct
	return ct
}
