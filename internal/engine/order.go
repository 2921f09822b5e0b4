package engine

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fisql/internal/sqlast"
)

// orderRows sorts res.Rows by sel's ORDER BY keys, stably: every key is
// resolved once, extracted once per row, and the rows are reordered through
// a sorted permutation — sorted on typed key arrays where the keys allow it,
// except under the plan-less Select, which always sorts on Compare so that
// the differential oracle does not share the typed path. A key that is not
// an output column evaluates against row i's candidate, cands' src[i]; a
// compound statement passes no candidates, so there it cannot resolve.
func (ex *Executor) orderRows(sel *sqlast.SelectStmt, res *Result, cands *candidates, src []int32) error {
	n, nk := len(res.Rows), len(sel.OrderBy)
	if n == 0 {
		return nil
	}
	// Row-major extraction: the first key of the first row that fails is
	// the error reported, whatever LIMIT would have kept.
	keys := make([]Value, n*nk)
	var cols []int
	width := -1
	for i, r := range res.Rows {
		if len(r) != width {
			// Resolution depends on the row width, which only differs
			// between rows when a compound arm aggregated zero rows under
			// a star item (its one row is narrower than its header).
			width = len(r)
			cols = resolveOrderKeys(sel, res.Columns, width)
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
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	var typed []orderCol
	if ex.plan != nil {
		typed = typedOrderCols(sel.OrderBy, keys, n)
		ex.orderStats.Rows += int64(n)
		if typed != nil {
			ex.orderStats.TypedSorts++
		} else {
			ex.orderStats.GenericSorts++
		}
	}
	if typed != nil {
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
	} else {
		// Across type domains Compare is not transitive, and what a sort
		// returns then depends on which comparisons it makes: this is the
		// stable insertion + symMerge sort, comparison for comparison, that
		// has always defined the engine's row order.
		slices.SortStableFunc(perm, func(a, b int32) int {
			ka, kb := keys[int(a)*nk:], keys[int(b)*nk:]
			for k, ob := range sel.OrderBy {
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
	return nil
}

// resolveOrderKeys maps each ORDER BY key to the output column that holds
// it in rows of the given width, or to -1 when the key has to be evaluated
// against each row's source environment. In order of precedence: an ordinal
// (ORDER BY 2), an unqualified output column or alias, an expression that
// prints like a select item (ORDER BY COUNT(*)).
func resolveOrderKeys(sel *sqlast.SelectStmt, columns []string, width int) []int {
	cols := make([]int, len(sel.OrderBy))
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

// orderCol is one ORDER BY key column in typed form: the Value.numeric of
// every non-NULL key, or every non-NULL key's text, indexed by row.
type orderCol struct {
	desc bool
	null []bool // nil when no key is NULL
	num  []float64
	str  []string
}

// typedOrderCols returns the key columns in typed form, or nil unless every
// column's non-NULL keys lie in one domain on which Compare is a total
// preorder: all numeric (int / float / bool, NaN excluded — it compares
// equal to every number) or all text. The gate is the hash join's (see
// keyDomain) except that bool counts as a number, which is how Compare
// orders it against the only types a numeric column lets it meet.
func typedOrderCols(order []sqlast.OrderItem, keys []Value, n int) []orderCol {
	cols := make([]orderCol, len(order))
	for k := range cols {
		c := &cols[k]
		c.desc = order[k].Desc
		for i := 0; i < n; i++ {
			v := &keys[i*len(cols)+k]
			switch v.T {
			case TypeNull:
				if c.null == nil {
					c.null = make([]bool, n)
				}
				c.null[i] = true
			case TypeText:
				if c.num != nil {
					return nil
				}
				if c.str == nil {
					c.str = make([]string, n)
				}
				c.str[i] = v.S
			default:
				f, ok := v.numeric()
				if !ok || f != f || c.str != nil {
					return nil
				}
				if c.num == nil {
					c.num = make([]float64, n)
				}
				c.num[i] = f
			}
		}
	}
	return cols
}

// compare orders rows a and b on this key exactly as Compare orders their
// key values, negated for DESC.
func (c *orderCol) compare(a, b int32) int {
	r := 0
	switch {
	case c.null != nil && (c.null[a] || c.null[b]):
		switch {
		case !c.null[b]:
			r = -1
		case !c.null[a]:
			r = 1
		}
	case c.str != nil:
		if r = compareFold(c.str[a], c.str[b]); r == 0 {
			r = strings.Compare(c.str[a], c.str[b])
		}
	case c.num[a] < c.num[b]:
		r = -1
	case c.num[a] > c.num[b]:
		r = 1
	}
	if c.desc {
		return -r
	}
	return r
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
