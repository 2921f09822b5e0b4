package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"fisql/internal/sqlast"
)

// orderRows sorts res.Rows by sel's ORDER BY keys, stably: every key is
// resolved once, read once per row, and the rows are reordered through a
// sorted permutation — sorted on typed key arrays where the keys allow it,
// except under the plan-less Select, which always sorts on Compare so that
// the differential oracle does not share the typed path. A key that is not
// an output column evaluates against row i's candidate, cands' src[i]; a
// compound statement passes no candidates, so there it cannot resolve.
//
// When every key is an output column, or a planned column of the table a
// single-table, non-aggregated vectorized arm scanned, the typed key arrays
// are read straight from the rows or the table: nothing is evaluated and
// nothing can fail. Anything else extracts the keys as values first.
func (ex *Executor) orderRows(sel *sqlast.SelectStmt, res *Result, cands *candidates, src []int32) error {
	n, nk := len(res.Rows), len(sel.OrderBy)
	if n == 0 {
		return nil
	}
	var buf [8]int
	if from, ok := ex.directOrderKeys(sel, res, cands, buf[:]); ok {
		if n == 1 {
			return nil
		}
		var table [][]Value
		var idx []int32
		if cands != nil && cands.vec != nil {
			table, idx = cands.vec.vp.t1.Rows, cands.idx
		}
		if typed := directOrderCols(sel.OrderBy, res.Rows, from, table, idx, src); typed != nil {
			ex.sortRows(res, typed, nil, nil)
			return nil
		}
	}
	// Row-major extraction: the first key of the first row that fails is
	// the error reported, whatever LIMIT would have kept.
	keys := make([]Value, n*nk)
	cols := make([]int, nk)
	width := -1
	for i, r := range res.Rows {
		if len(r) != width {
			// Resolution depends on the row width, which only differs
			// between rows when a compound arm aggregated zero rows under
			// a star item (its one row is narrower than its header).
			width = len(r)
			resolveOrderKeys(cols, sel, res.Columns, width)
		}
		for k, c := range cols {
			if c >= 0 {
				keys[i*nk+k] = r[c]
				continue
			}
			// General expression over the source row/group.
			if cands == nil {
				return fmt.Errorf("cannot resolve ORDER BY expression %s", sqlast.PrintExpr(sel.OrderBy[k].Expr))
			}
			v, err := ex.eval(sel.OrderBy[k].Expr, cands.env(int(src[i])), cands.ctx(int(src[i])))
			if err != nil {
				return err
			}
			keys[i*nk+k] = v
		}
	}
	if n == 1 {
		return nil
	}
	var typed []orderCol
	if ex.plan != nil {
		typed = typedOrderCols(sel.OrderBy, keys, n)
	}
	ex.sortRows(res, typed, keys, sel.OrderBy)
	return nil
}

// directOrderKeys resolves every ORDER BY key, on the planned path, to an
// output column c (as c) or to a planned column c of the table that
// single-table, non-aggregated vectorized candidates scanned (as ^c), into
// dst. ok=false means some key has to be evaluated, or the rows differ in
// width.
func (ex *Executor) directOrderKeys(sel *sqlast.SelectStmt, res *Result, cands *candidates, dst []int) ([]int, bool) {
	if ex.plan == nil || len(sel.OrderBy) > len(dst) {
		return nil, false
	}
	width := len(res.Rows[0])
	for _, r := range res.Rows {
		if len(r) != width {
			return nil, false
		}
	}
	from := resolveOrderKeys(dst[:len(sel.OrderBy)], sel, res.Columns, width)
	for k, c := range from {
		if c >= 0 {
			continue
		}
		if cands == nil || cands.vec == nil || cands.vec.vp.t2 != nil || cands.vec.vp.aggregated {
			return nil, false
		}
		ci, ok := cands.vec.slotCol(sel.OrderBy[k].Expr)
		if !ok {
			return nil, false
		}
		from[k] = ^ci
	}
	return from, true
}

// resolveOrderKeys maps each ORDER BY key to the output column that holds
// it in rows of the given width, or to -1 when the key has to be evaluated
// against each row's source environment, into cols (one entry per key). In
// order of precedence: an ordinal (ORDER BY 2), an unqualified output
// column or alias, an expression that prints like a select item (ORDER BY
// COUNT(*)).
func resolveOrderKeys(cols []int, sel *sqlast.SelectStmt, columns []string, width int) []int {
	var itemPrints []string // printed on first need: most keys are columns
next:
	for k, ob := range sel.OrderBy {
		cols[k] = -1
		if lit, ok := ob.Expr.(*sqlast.Literal); ok && lit.Kind == sqlast.LitNumber {
			if n, err := strconv.Atoi(lit.Text); err == nil && n >= 1 && n <= width {
				cols[k] = n - 1
				continue
			}
		}
		if cr, ok := ob.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
			for j, c := range columns {
				if j < width && strings.EqualFold(c, cr.Column) {
					cols[k] = j
					continue next
				}
			}
		}
		if itemPrints == nil {
			itemPrints = make([]string, len(sel.Items))
			for j, it := range sel.Items {
				if it.Expr != nil {
					itemPrints[j] = sqlast.PrintExpr(it.Expr)
				}
			}
		}
		want := sqlast.PrintExpr(ob.Expr)
		for j, it := range sel.Items {
			if it.Expr != nil && j < width && itemPrints[j] == want {
				cols[k] = j
				break
			}
		}
	}
	return cols
}

// sortRows reorders res.Rows through a sorted permutation: on the typed key
// columns when there are any, else on Compare over keys (row-major, one
// value per ORDER BY item). Only a planned executor counts the sort.
func (ex *Executor) sortRows(res *Result, typed []orderCol, keys []Value, order []sqlast.OrderItem) {
	n := len(res.Rows)
	if ex.plan != nil {
		ex.orderStats.Rows += int64(n)
		if typed != nil {
			ex.orderStats.TypedSorts++
		} else {
			ex.orderStats.GenericSorts++
		}
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	switch {
	case typed != nil && numericOnly(typed):
		radixSort(perm, typed)
	case typed != nil:
		// Compare is a total preorder on a homogeneous domain, so breaking
		// ties by original index makes the order strict and total: any
		// correct sort then returns exactly what the stable sort returns.
		slices.SortFunc(perm, func(a, b int32) int {
			for k := range typed {
				if c := typed[k].compare(a, b); c != 0 {
					return c
				}
			}
			return int(a) - int(b)
		})
	default:
		// Across type domains Compare is not transitive, and what a sort
		// returns then depends on which comparisons it makes: this is the
		// stable insertion + symMerge sort, comparison for comparison, that
		// has always defined the engine's row order.
		nk := len(order)
		slices.SortStableFunc(perm, func(a, b int32) int {
			ka, kb := keys[int(a)*nk:], keys[int(b)*nk:]
			for k, ob := range order {
				if c := Compare(ka[k], kb[k]); c != 0 {
					if ob.Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}
	sorted := make([][]Value, n)
	for i, p := range perm {
		sorted[i] = res.Rows[p]
	}
	res.Rows = sorted
}

// orderCol is one ORDER BY key column in typed form, indexed by row. A
// numeric column holds orderBits of every key, 0 for NULL, inverted for
// DESC, so that comparing two entries as integers is Compare on their keys
// in the key's direction. A text column holds every non-NULL key's text.
// A column whose keys are all NULL holds neither: every pair ties.
type orderCol struct {
	desc bool
	bits []uint64
	null []bool // text only; nil when no key is NULL
	str  []string
}

// orderBits maps a non-NaN float64 to a uint64 whose unsigned order is the
// float's numeric order, with -0 folded onto 0 (Compare ties them). No
// float maps to 0, which leaves 0 for NULL, below every number.
func orderBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// set records key v of row i of n. It reports false when v leaves the
// column's domain: text in a numeric column, a number in a text column, or
// a NaN, which compares equal to every number.
func (c *orderCol) set(i, n int, v *Value) bool {
	switch v.T {
	case TypeNull:
		if c.str != nil {
			if c.null == nil {
				c.null = make([]bool, n)
			}
			c.null[i] = true
		}
	case TypeText:
		if c.bits != nil {
			return false
		}
		if c.str == nil {
			c.str = make([]string, n)
			if i > 0 {
				// Every key before the first text is NULL.
				c.null = make([]bool, n)
				for j := range i {
					c.null[j] = true
				}
			}
		}
		c.str[i] = v.S
	default:
		f, ok := v.numeric()
		if !ok || f != f || c.str != nil {
			return false
		}
		if c.bits == nil {
			c.bits = make([]uint64, n)
		}
		c.bits[i] = orderBits(f)
	}
	return true
}

// done applies the column's direction once every key is set.
func (c *orderCol) done() {
	if c.desc {
		for i := range c.bits {
			c.bits[i] = ^c.bits[i]
		}
	}
}

// typedOrderCols returns the key columns in typed form, or nil unless every
// column's non-NULL keys lie in one domain on which Compare is a total
// preorder: all numeric (int / float / bool, NaN excluded — it compares
// equal to every number) or all text. The gate is eqTable's (see
// keyDomain) except that bool counts as a number, which is how Compare
// orders it against the only types a numeric column lets it meet.
func typedOrderCols(order []sqlast.OrderItem, keys []Value, n int) []orderCol {
	cols := make([]orderCol, len(order))
	for k := range cols {
		c := &cols[k]
		c.desc = order[k].Desc
		for i := 0; i < n; i++ {
			if !c.set(i, n, &keys[i*len(cols)+k]) {
				return nil
			}
		}
		c.done()
	}
	return cols
}

// directOrderCols is typedOrderCols over keys read in place: key k of row i
// is rows[i][from[k]], or column ^from[k] of the table row the row was
// projected from, table[idx[src[i]]].
func directOrderCols(order []sqlast.OrderItem, rows [][]Value, from []int, table [][]Value, idx, src []int32) []orderCol {
	n := len(rows)
	cols := make([]orderCol, len(order))
	for k := range cols {
		c := &cols[k]
		c.desc = order[k].Desc
		f := from[k]
		for i := 0; i < n; i++ {
			var v *Value
			if f >= 0 {
				v = &rows[i][f]
			} else {
				v = &table[idx[src[i]]][^f]
			}
			if !c.set(i, n, v) {
				return nil
			}
		}
		c.done()
	}
	return cols
}

// compare orders rows a and b on this key exactly as Compare orders their
// key values, negated for DESC.
func (c *orderCol) compare(a, b int32) int {
	if c.str == nil {
		if c.bits == nil {
			return 0
		}
		return cmp.Compare(c.bits[a], c.bits[b])
	}
	r := 0
	switch {
	case c.null != nil && (c.null[a] || c.null[b]):
		switch {
		case !c.null[b]:
			r = -1
		case !c.null[a]:
			r = 1
		}
	default:
		if r = compareFold(c.str[a], c.str[b]); r == 0 {
			r = strings.Compare(c.str[a], c.str[b])
		}
	}
	if c.desc {
		return -r
	}
	return r
}

func numericOnly(cols []orderCol) bool {
	for k := range cols {
		if cols[k].str != nil {
			return false
		}
	}
	return true
}

// radixItem is one row in the radix sort: its key on the current column and
// its index.
type radixItem struct {
	key uint64
	row int32
}

// radixSort sorts the identity permutation perm by the numeric key columns
// cols, stably: one LSD radix sort, the last key's bytes first, a byte at a
// time from the lowest. Stability keeps ties in input order, which is what
// the comparator sort's index tiebreak does. A byte that is the same in
// every key would move nothing, so it gets no pass.
func radixSort(perm []int32, cols []orderCol) {
	n := len(perm)
	buf := make([]radixItem, 2*n)
	a, b := buf[:n], buf[n:]
	for i := range a {
		a[i].row = int32(i)
	}
	for k := len(cols) - 1; k >= 0; k-- {
		bits := cols[k].bits
		if bits == nil {
			continue // all NULL: every pair ties
		}
		var diff uint64 // the bits in which some key differs from the first
		first := bits[a[0].row]
		for i := range a {
			x := bits[a[i].row]
			a[i].key = x
			diff |= x ^ first
		}
		for shift := 0; shift < 64; shift += 8 {
			if byte(diff>>shift) == 0 {
				continue
			}
			var cnt [256]int32
			for _, it := range a {
				cnt[byte(it.key>>shift)]++
			}
			sum := int32(0)
			for j, c := range cnt {
				cnt[j] = sum
				sum += c
			}
			for _, it := range a {
				j := byte(it.key >> shift)
				b[cnt[j]] = it
				cnt[j]++
			}
			a, b = b, a
		}
	}
	for i := range perm {
		perm[i] = a[i].row
	}
}

// OrderStats counts the ORDER BY sorts of two or more rows under
// Executor.Run.
type OrderStats struct {
	// TypedSorts ran on typed key arrays: every key column was all numeric
	// or all text.
	TypedSorts int64
	// GenericSorts ran on Compare: some key column mixed type domains.
	GenericSorts int64
	// Rows is the total number of rows those sorts ordered.
	Rows int64
}

// OrderStats reports the database's cumulative ORDER BY sort counts.
// Counting happens in Executor.Run; the plan-less Select path always sorts
// on Compare and is not counted.
func (db *Database) OrderStats() OrderStats {
	return OrderStats{
		TypedSorts:   db.orderTyped.Load(),
		GenericSorts: db.orderGeneric.Load(),
		Rows:         db.orderRows.Load(),
	}
}
