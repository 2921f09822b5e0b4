package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"fisql/internal/sqlast"
)

// This file implements the vectorized columnar execution path. Executor.Run
// tries it before the row-at-a-time executor, for the statement and for
// each execution of a closed subquery, which runs as a sub-plan of the
// statement; SetColumnar(false) disables it. It vectorizes the first half
// of a SELECT — scan, join, WHERE, GROUP BY and the aggregate folds — and
// stops at its candidates: the selected context rows, or the groups with
// their aggregates folded into one slab, len(aggNodes) values per group,
// which evalCtx.folded exposes one group at a time. A closed scalar
// subquery is a constant to the mask kernels and a closed IN subquery a
// candidate set, both taken from the Run's memo (subquery.go).
//
// The one tail (finish, exec.go) then runs HAVING, the select list,
// DISTINCT, ORDER BY and LIMIT. Over the rows of one scanned table, not
// aggregated, it reads columns: a select list of * and planned columns is
// copied from Table.Rows into the result arena, and ORDER BY keys that are
// output columns or planned columns fill the typed key arrays straight from
// the rows or the table. Everything else evaluates over one scratch
// environment, refilled for each row of a single table or each (left, right)
// pair of a join with the bindings the row path itself would see. The tail
// is done with one candidate's environment before it asks for the next.
// The typed column arrays (columnar.go) feed the masks and the folds, and
// their kinds give the join keys' domain.
//
// Results are byte-identical by construction. The vectorized stages succeed
// only where the row stages succeed with the same selection and the same
// groups, so an error the tail raises afterwards is the row path's and is
// returned as is. What the vectorized stages cannot mirror abandons the
// attempt before the tail and reruns the statement on the row executor,
// which owns those errors: a mask error (masks do not short-circuit), a
// group-key error, a fold error (the row path folds lazily inside the tail,
// so it may meet another error first), a join-key domain without a hash
// (key.go), and a scan or join past maxRows.
//
// Qualification (buildVecPlan, on a SELECT's first run) is purely
// structural: single catalog table, or exactly one INNER/LEFT hash
// equi-join of two catalog tables on a planned cross-side column equality.
// Everything else — derived tables, multi-joins, compound selects — routes
// to the row executor.

// vecPlan is one SELECT's columnar qualification, cached on the Plan for
// the statement and on the planSub for a closed subquery.
type vecPlan struct {
	ok bool

	t1     *Table
	alias1 string
	cols1  []string

	// Join fields; t2 == nil means single-table.
	t2       *Table
	alias2   string
	cols2    []string
	joinType sqlast.JoinType
	leftCol  int // key column in t1
	rightCol int // key column in t2

	// aggregated is the row path's aggregated(stmt); aggNodes are the
	// aggregate calls reachable from items/HAVING/ORDER BY, folded once per
	// group.
	aggregated bool
	aggNodes   []*sqlast.FuncCall

	// header is the result header over a non-empty selection, which every
	// Run of the plan shares.
	header []string
}

// buildVecPlan qualifies sel, p's statement or one of its closed
// subqueries, for columnar execution. Column references resolve through
// p's slots, which cover both.
func buildVecPlan(p *Plan, sel *sqlast.SelectStmt) *vecPlan {
	no := &vecPlan{}
	if sel.Compound != nil || sel.From == nil || sel.From.First.Sub != nil {
		return no
	}
	t1, ok := p.db.Table(sel.From.First.Name)
	if !ok {
		return no
	}
	vp := &vecPlan{ok: true, t1: t1}
	vp.alias1 = strings.ToLower(sel.From.First.Alias)
	if vp.alias1 == "" {
		vp.alias1 = strings.ToLower(sel.From.First.Name)
	}
	vp.cols1 = p.db.colTable(t1).names

	if len(sel.From.Joins) > 1 {
		return no
	}
	if len(sel.From.Joins) == 1 {
		j := &sel.From.Joins[0]
		if j.Source.Sub != nil || j.On == nil {
			return no
		}
		if j.Type != sqlast.JoinInner && j.Type != sqlast.JoinLeft {
			return no
		}
		t2, ok := p.db.Table(j.Source.Name)
		if !ok {
			return no
		}
		conjs := splitAnd(j.On)
		if len(conjs) != 1 {
			return no
		}
		eq, ok := conjs[0].(*sqlast.Binary)
		if !ok || eq.Op != sqlast.OpEq {
			return no
		}
		lref, lok := eq.L.(*sqlast.ColumnRef)
		rref, rok := eq.R.(*sqlast.ColumnRef)
		if !lok || !rok {
			return no
		}
		ls, lok := p.cols[lref]
		rs, rok := p.cols[rref]
		if !lok || !rok || ls.depth != 0 || rs.depth != 0 {
			return no
		}
		switch {
		case ls.binding == 0 && rs.binding == 1:
			vp.leftCol, vp.rightCol = ls.col, rs.col
		case ls.binding == 1 && rs.binding == 0:
			vp.leftCol, vp.rightCol = rs.col, ls.col
		default:
			return no // both operands resolve to the same side
		}
		vp.t2 = t2
		vp.joinType = j.Type
		vp.alias2 = strings.ToLower(j.Source.Alias)
		if vp.alias2 == "" {
			vp.alias2 = strings.ToLower(j.Source.Name)
		}
		vp.cols2 = p.db.colTable(t2).names
	}

	binds := []binding{{alias: vp.alias1, cols: vp.cols1}}
	if vp.t2 != nil {
		binds = append(binds, binding{alias: vp.alias2, cols: vp.cols2})
	}
	vp.header = outputColumns(p.db, sel, &rowEnv{bindings: binds})

	vp.aggregated = aggregated(sel)
	if vp.aggregated {
		for _, it := range sel.Items {
			if it.Expr != nil {
				collectAggregates(it.Expr, &vp.aggNodes)
			}
		}
		collectAggregates(sel.Having, &vp.aggNodes)
		for _, ob := range sel.OrderBy {
			collectAggregates(ob.Expr, &vp.aggNodes)
		}
	}
	return vp
}

// collectAggregates gathers the aggregate calls in e that evaluate in THIS
// statement's group context, with the same subquery-skipping walk as
// hasAggregate. Aggregate arguments are not descended into: nested
// aggregates error in the row path and the fold reproduces that.
func collectAggregates(e sqlast.Expr, out *[]*sqlast.FuncCall) {
	if e == nil {
		return
	}
	sqlast.Walk(e, func(n sqlast.Expr) bool {
		switch x := n.(type) {
		case *sqlast.FuncCall:
			if isAggregateName(x.Name) {
				*out = append(*out, x)
				return false
			}
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			return false
		case *sqlast.InExpr:
			if x.Sub != nil {
				collectAggregates(x.X, out)
				return false
			}
		}
		return true
	})
}

// ----------------------------------------------------------------------------
// Execution

// vecPair is one joined row: an index into t1.Rows and one into t2.Rows,
// r == -1 for a LEFT JOIN null row.
type vecPair struct{ l, r int32 }

// vecExec is the per-run state of one columnar execution attempt.
type vecExec struct {
	ex   *Executor
	vp   *vecPlan
	stmt *sqlast.SelectStmt
	ct1  *colTable
	ct2  *colTable
	n    int // context rows: len(t1.Rows) or len(pairs)

	// A reusable scratch environment over context row i, with one binding
	// per table; env fills it.
	scratch      rowEnv
	scratchBinds [2]binding

	// Join: materialized pair indices.
	pairs      []vecPair
	rightNulls []Value

	// Aggregated: the aggregate slab, group g's value of vp.aggNodes[k] at
	// g*len(aggNodes)+k (nil when the statement has no aggregate call), and
	// the scratch folded hands out one group at a time.
	aggs []Value
	fold foldedAggs
}

// runVec runs the vectorized stages of sel, p's statement or one of its
// closed subqueries, whose qualification cache holds, and returns its
// candidates and header for the tail. ok=false means the caller must run
// the row executor; it is returned for both unqualified statements and
// mid-flight bails.
func (ex *Executor) runVec(p *Plan, sel *sqlast.SelectStmt, cache *atomic.Pointer[vecPlan]) (c candidates, cols []string, ok bool) {
	vp := cache.Load()
	if vp == nil {
		vp = buildVecPlan(p, sel)
		cache.Store(vp)
	}
	if !vp.ok {
		return candidates{}, nil, false
	}
	// The row executor owns the oversized-scan and oversized-join errors:
	// bail rather than replicate their text and order.
	if len(vp.t1.Rows) > ex.maxRows {
		return candidates{}, nil, false
	}
	v := &vecExec{ex: ex, vp: vp, stmt: sel}
	v.scratchBinds[0] = binding{alias: vp.alias1, cols: vp.cols1}
	if vp.t2 == nil {
		v.n = len(vp.t1.Rows)
		v.ct1 = ex.db.colTable(vp.t1)
		v.scratch.bindings = v.scratchBinds[:1]
	} else {
		if len(vp.t2.Rows) > ex.maxRows {
			return candidates{}, nil, false
		}
		v.ct1 = ex.db.colTable(vp.t1)
		v.ct2 = ex.db.colTable(vp.t2)
		if !v.buildPairs() {
			return candidates{}, nil, false
		}
		v.n = len(v.pairs)
		v.rightNulls = make([]Value, len(vp.cols2))
		for i := range v.rightNulls {
			v.rightNulls[i] = Null()
		}
		v.scratchBinds[1] = binding{alias: vp.alias2, cols: vp.cols2}
		v.scratch.bindings = v.scratchBinds[:]
	}
	return v.run()
}

// env returns the evaluation environment for context row i: the scratch
// env over the table's row, or over a join's (left, right) pair, valid
// until the next call. Row -1, the representative of the empty global
// group, has no bindings.
func (v *vecExec) env(i int) *rowEnv {
	if i < 0 {
		return &rowEnv{}
	}
	if v.vp.t2 == nil {
		v.scratchBinds[0].vals = v.vp.t1.Rows[i]
		return &v.scratch
	}
	p := v.pairs[i]
	v.scratchBinds[0].vals = v.vp.t1.Rows[p.l]
	if p.r >= 0 {
		v.scratchBinds[1].vals = v.vp.t2.Rows[p.r]
	} else {
		v.scratchBinds[1].vals = v.rightNulls
	}
	return &v.scratch
}

// buildPairs materializes the hash equi-join as (left, right) index pairs in
// the row path's emission order: left-major, right-source order per left
// row, LEFT JOIN null rows for matchless left rows. NULL keys never match.
// false means bail (a key domain without a hash, or a result larger than
// maxRows — the row executor's nested loop owns the error there).
func (v *vecExec) buildPairs() bool {
	vp := v.vp
	d1 := v.ct1.cols[vp.leftCol].kind.domain()
	d2 := v.ct2.cols[vp.rightCol].kind.domain()
	dom := d1.merge(d2)
	switch {
	case d1 == domNone || d2 == domNone:
		dom = domNone // an all-NULL key column matches nothing
	case !dom.hashable():
		return false
	}
	var ht *eqTable
	if dom != domNone {
		ht = v.ct2.eqTable(vp.rightCol)
	}
	leftJoin := vp.joinType == sqlast.JoinLeft
	pairs := make([]vecPair, 0, len(vp.t1.Rows))
	for li, r := range vp.t1.Rows {
		var matches []int32
		if dom != domNone {
			matches = ht.match(r[vp.leftCol])
		}
		if len(matches) == 0 && leftJoin {
			pairs = append(pairs, vecPair{int32(li), -1})
		}
		for _, ri := range matches {
			pairs = append(pairs, vecPair{int32(li), ri})
		}
		if len(pairs) > v.ex.maxRows {
			return false
		}
	}
	v.pairs = pairs
	return true
}

// run executes the vectorized stages and returns the candidates and the
// header. ok=false means bail to the row executor.
func (v *vecExec) run() (candidates, []string, bool) {
	selIdx, ok := v.filter()
	if !ok {
		return candidates{}, nil, false
	}
	cols := v.vp.header
	if len(selIdx) == 0 {
		cols = outputColumns(v.ex.db, v.stmt, nil)
	}
	if !v.vp.aggregated {
		return candidates{vec: v, idx: selIdx}, cols, true
	}
	groups, reps, ok := v.groupSel(selIdx)
	if !ok {
		return candidates{}, nil, false
	}
	if nodes := v.vp.aggNodes; len(nodes) > 0 {
		k := len(nodes)
		v.aggs = make([]Value, groups.len()*k)
		for g := range groups.len() {
			for j, node := range nodes {
				val, err := v.aggValue(node, groups.at(g))
				if err != nil {
					return candidates{}, nil, false
				}
				v.aggs[g*k+j] = val
			}
		}
		v.fold.nodes = nodes
	}
	return candidates{vec: v, idx: reps}, cols, true
}

// folded returns group g's row of the aggregate slab, in a scratch valid
// until the next call.
func (v *vecExec) folded(g int) *foldedAggs {
	k := len(v.fold.nodes)
	v.fold.vals = v.aggs[g*k : (g+1)*k]
	return &v.fold
}

// filter applies WHERE and returns the surviving context rows in order.
func (v *vecExec) filter() ([]int32, bool) {
	if v.stmt.Where == nil {
		sel := make([]int32, v.n)
		for i := range sel {
			sel[i] = int32(i)
		}
		return sel, true
	}
	if v.vp.t2 == nil {
		m, err := v.mask(v.stmt.Where)
		if err != nil {
			return nil, false
		}
		kept := 0
		for _, mv := range m {
			if mv == mTrue {
				kept++
			}
		}
		sel := make([]int32, 0, kept)
		for i, mv := range m {
			if mv == mTrue {
				sel = append(sel, int32(i))
			}
		}
		return sel, true
	}
	// Join rows: generic row-order evaluation over the scratch env (the
	// same evalBool the row path's WHERE filter runs).
	var sel []int32
	for i := 0; i < v.n; i++ {
		keep, err := v.ex.evalBool(v.stmt.Where, v.env(i), nil)
		if err != nil {
			return nil, false
		}
		if keep {
			sel = append(sel, int32(i))
		}
	}
	return sel, true
}

// ----------------------------------------------------------------------------
// Filter masks
//
// A mask holds one three-valued truth per context row — the truth3 of the
// value the row path's eval would produce. Typed kernels cover the
// comparison/LIKE/BETWEEN/IN/IS NULL shapes whose evaluation provably
// cannot error; everything else evaluates generically per row through
// ex.eval, so errors (which force a bail) and exotic semantics stay the row
// path's own.

const (
	mFalse int8 = 0
	mTrue  int8 = 1
	mNull  int8 = 2
)

func truth3(val Value) int8 {
	if val.IsNull() {
		return mNull
	}
	if val.Truthy() {
		return mTrue
	}
	return mFalse
}

// slotCol resolves e as a planned reference to a column of the scanned
// table (single-table context only).
func (v *vecExec) slotCol(e sqlast.Expr) (int, bool) {
	cr, ok := e.(*sqlast.ColumnRef)
	if !ok || v.ex.plan == nil {
		return 0, false
	}
	slot, ok := v.ex.plan.cols[cr]
	if !ok || slot.depth != 0 || slot.binding != 0 {
		return 0, false
	}
	return slot.col, true
}

// constOperand reports whether e has one value for every context row: a
// literal, or, over a non-empty context, a closed scalar subquery.
func (v *vecExec) constOperand(e sqlast.Expr) bool {
	switch x := e.(type) {
	case *sqlast.Literal:
		return true
	case *sqlast.SubqueryExpr:
		return v.n > 0 && v.ex.closedSub(x.Sub)
	}
	return false
}

// constVal evaluates a constant operand once. Neither form reads the
// environment. An unparseable number literal or a failing subquery surfaces
// as an error and bails the whole attempt (the row executor owns whether
// that error is ever reached).
func (v *vecExec) constVal(e sqlast.Expr) (Value, error) {
	return v.ex.eval(e, nil, nil)
}

// countRowEvals is called once a kernel has evaluated the constant operand
// e and is sure to produce its mask. The row path evaluates e on every
// context row, and a closed subquery answers each row after the first from
// its memo; those answers are counted here, so that SubqueryStats reads the
// same on both paths.
func (v *vecExec) countRowEvals(e sqlast.Expr) {
	if _, ok := e.(*sqlast.SubqueryExpr); ok {
		v.ex.subStats.MemoHits += int64(v.n - 1)
	}
}

func fillMask(n int, m int8) []int8 {
	out := make([]int8, n)
	if m != 0 {
		for i := range out {
			out[i] = m
		}
	}
	return out
}

// cmpFloat mirrors Compare's numeric ordering.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpText mirrors Compare's text ordering: case-insensitive fold with an
// exact tiebreak (so equality is exact string equality).
func cmpText(a, b string) int {
	if c := compareFold(a, b); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

func cmpResult(op sqlast.BinaryOp, c int) int8 {
	var r bool
	switch op {
	case sqlast.OpEq:
		r = c == 0
	case sqlast.OpNeq:
		r = c != 0
	case sqlast.OpLt:
		r = c < 0
	case sqlast.OpLte:
		r = c <= 0
	case sqlast.OpGt:
		r = c > 0
	default: // OpGte
		r = c >= 0
	}
	if r {
		return mTrue
	}
	return mFalse
}

// flipCmp mirrors an ordering operator across swapped operands.
func flipCmp(op sqlast.BinaryOp) sqlast.BinaryOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLte:
		return sqlast.OpGte
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGte:
		return sqlast.OpLte
	}
	return op // Eq/Neq are symmetric
}

// mask computes the truth mask of e over the scanned table.
func (v *vecExec) mask(e sqlast.Expr) ([]int8, error) {
	switch x := e.(type) {
	case *sqlast.Binary:
		switch x.Op {
		case sqlast.OpAnd, sqlast.OpOr:
			a, err := v.mask(x.L)
			if err != nil {
				return nil, err
			}
			b, err := v.mask(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == sqlast.OpAnd {
				for i := range a {
					a[i] = and3(a[i], b[i])
				}
			} else {
				for i := range a {
					a[i] = or3(a[i], b[i])
				}
			}
			return a, nil
		case sqlast.OpEq, sqlast.OpNeq, sqlast.OpLt, sqlast.OpLte, sqlast.OpGt, sqlast.OpGte:
			return v.cmpMask(x)
		}
	case *sqlast.Unary:
		if x.Op == sqlast.OpNot {
			m, err := v.mask(x.X)
			if err != nil {
				return nil, err
			}
			for i := range m {
				switch m[i] {
				case mTrue:
					m[i] = mFalse
				case mFalse:
					m[i] = mTrue
				}
			}
			return m, nil
		}
	case *sqlast.IsNullExpr:
		if ci, ok := v.slotCol(x.X); ok {
			c := &v.ct1.cols[ci]
			m := make([]int8, v.n)
			for i := range m {
				if c.null(i) != x.Not {
					m[i] = mTrue
				}
			}
			return m, nil
		}
	case *sqlast.BetweenExpr:
		if m, ok, err := v.betweenMask(x); err != nil {
			return nil, err
		} else if ok {
			return m, nil
		}
	case *sqlast.LikeExpr:
		if m, ok, err := v.likeMask(x); err != nil {
			return nil, err
		} else if ok {
			return m, nil
		}
	case *sqlast.InExpr:
		if m, ok, err := v.inMask(x); err != nil {
			return nil, err
		} else if ok {
			return m, nil
		}
	case *sqlast.Literal:
		val, err := v.constVal(x)
		if err != nil {
			return nil, err
		}
		return fillMask(v.n, truth3(val)), nil
	case *sqlast.ColumnRef:
		if ci, ok := v.slotCol(x); ok {
			c := &v.ct1.cols[ci]
			switch {
			case c.kind.domain() == domNum:
				m := make([]int8, v.n)
				for i := range m {
					switch {
					case c.null(i):
						m[i] = mNull
					case c.nums[i] != 0:
						m[i] = mTrue
					}
				}
				return m, nil
			case c.kind == kindString:
				m := make([]int8, v.n)
				for i := range m {
					switch {
					case c.null(i):
						m[i] = mNull
					case c.strs[i] != "":
						m[i] = mTrue
					}
				}
				return m, nil
			case c.kind == kindEmpty:
				return fillMask(v.n, mNull), nil
			}
		}
	}
	return v.genericMask(e)
}

// genericMask evaluates e per row with the row path's eval.
func (v *vecExec) genericMask(e sqlast.Expr) ([]int8, error) {
	m := make([]int8, v.n)
	for i := 0; i < v.n; i++ {
		val, err := v.ex.eval(e, v.env(i), nil)
		if err != nil {
			return nil, err
		}
		m[i] = truth3(val)
	}
	return m, nil
}

func and3(a, b int8) int8 {
	if a == mFalse || b == mFalse {
		return mFalse
	}
	if a == mNull || b == mNull {
		return mNull
	}
	return mTrue
}

func or3(a, b int8) int8 {
	if a == mTrue || b == mTrue {
		return mTrue
	}
	if a == mNull || b == mNull {
		return mNull
	}
	return mFalse
}

// cmpMask vectorizes a comparison of a planned column with a constant
// operand or with another planned column.
func (v *vecExec) cmpMask(x *sqlast.Binary) ([]int8, error) {
	if ci, ok := v.slotCol(x.L); ok {
		if cj, ok := v.slotCol(x.R); ok {
			if m, ok := v.cmpColCol(ci, cj, x.Op); ok {
				return m, nil
			}
		} else if v.constOperand(x.R) {
			return v.cmpColConst(ci, x.R, x.Op)
		}
	} else if ci, ok := v.slotCol(x.R); ok && v.constOperand(x.L) {
		return v.cmpColConst(ci, x.L, flipCmp(x.Op))
	}
	return v.genericMask(x)
}

// cmpColConst compares column ci with the constant operand e: on the typed
// column where the domains allow, with Compare per row, as evalBinary does,
// otherwise.
func (v *vecExec) cmpColConst(ci int, e sqlast.Expr, op sqlast.BinaryOp) ([]int8, error) {
	k, err := v.constVal(e)
	if err != nil {
		return nil, err
	}
	v.countRowEvals(e)
	if m, ok := v.cmpColLit(ci, k, op); ok {
		return m, nil
	}
	rows := v.vp.t1.Rows
	m := make([]int8, v.n)
	for i := range m {
		if val := rows[i][ci]; val.IsNull() {
			m[i] = mNull
		} else {
			m[i] = cmpResult(op, Compare(val, k))
		}
	}
	return m, nil
}

func (v *vecExec) cmpColLit(ci int, lit Value, op sqlast.BinaryOp) ([]int8, bool) {
	c := &v.ct1.cols[ci]
	if lit.IsNull() || c.kind == kindEmpty {
		return fillMask(v.n, mNull), true
	}
	if lf, ok := lit.numeric(); ok && c.kind.domain() == domNum {
		m := make([]int8, v.n)
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			m[i] = cmpResult(op, cmpFloat(c.nums[i], lf))
		}
		return m, true
	}
	if lit.T == TypeText && c.kind == kindString {
		m := make([]int8, v.n)
		if op == sqlast.OpEq || op == sqlast.OpNeq {
			want := op == sqlast.OpEq
			for i := range m {
				if c.null(i) {
					m[i] = mNull
					continue
				}
				if (c.strs[i] == lit.S) == want {
					m[i] = mTrue
				}
			}
			return m, true
		}
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			m[i] = cmpResult(op, cmpText(c.strs[i], lit.S))
		}
		return m, true
	}
	return nil, false
}

func (v *vecExec) cmpColCol(ci, cj int, op sqlast.BinaryOp) ([]int8, bool) {
	a, b := &v.ct1.cols[ci], &v.ct1.cols[cj]
	if a.kind == kindEmpty || b.kind == kindEmpty {
		return fillMask(v.n, mNull), true
	}
	switch {
	case a.kind.domain() == domNum && b.kind.domain() == domNum:
		m := make([]int8, v.n)
		for i := range m {
			if a.null(i) || b.null(i) {
				m[i] = mNull
				continue
			}
			m[i] = cmpResult(op, cmpFloat(a.nums[i], b.nums[i]))
		}
		return m, true
	case a.kind == kindString && b.kind == kindString:
		m := make([]int8, v.n)
		for i := range m {
			if a.null(i) || b.null(i) {
				m[i] = mNull
				continue
			}
			m[i] = cmpResult(op, cmpText(a.strs[i], b.strs[i]))
		}
		return m, true
	}
	return nil, false
}

func (v *vecExec) betweenMask(x *sqlast.BetweenExpr) ([]int8, bool, error) {
	ci, ok := v.slotCol(x.X)
	if !ok || !v.constOperand(x.Lo) || !v.constOperand(x.Hi) {
		return nil, false, nil
	}
	lo, err := v.constVal(x.Lo)
	if err != nil {
		return nil, false, err
	}
	hi, err := v.constVal(x.Hi)
	if err != nil {
		return nil, false, err
	}
	v.countRowEvals(x.Lo)
	v.countRowEvals(x.Hi)
	c := &v.ct1.cols[ci]
	if lo.IsNull() || hi.IsNull() || c.kind == kindEmpty {
		return fillMask(v.n, mNull), true, nil
	}
	lf, lnum := lo.numeric()
	hf, hnum := hi.numeric()
	switch {
	case c.kind.domain() == domNum && lnum && hnum:
		m := make([]int8, v.n)
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			f := c.nums[i]
			in := cmpFloat(f, lf) >= 0 && cmpFloat(f, hf) <= 0
			if in != x.Not {
				m[i] = mTrue
			}
		}
		return m, true, nil
	case c.kind == kindString && lo.T == TypeText && hi.T == TypeText:
		m := make([]int8, v.n)
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			s := c.strs[i]
			in := cmpText(s, lo.S) >= 0 && cmpText(s, hi.S) <= 0
			if in != x.Not {
				m[i] = mTrue
			}
		}
		return m, true, nil
	}
	rows := v.vp.t1.Rows
	m := make([]int8, v.n)
	for i := range m {
		val := rows[i][ci]
		if val.IsNull() {
			m[i] = mNull
			continue
		}
		if in := Compare(val, lo) >= 0 && Compare(val, hi) <= 0; in != x.Not {
			m[i] = mTrue
		}
	}
	return m, true, nil
}

func (v *vecExec) likeMask(x *sqlast.LikeExpr) ([]int8, bool, error) {
	ci, ok := v.slotCol(x.X)
	if !ok || !v.constOperand(x.Pattern) {
		return nil, false, nil
	}
	pat, err := v.constVal(x.Pattern)
	if err != nil {
		return nil, false, err
	}
	v.countRowEvals(x.Pattern)
	c := &v.ct1.cols[ci]
	if pat.IsNull() || c.kind == kindEmpty {
		return fillMask(v.n, mNull), true, nil
	}
	lp := v.ex.lowerPattern(pat.String())
	m := make([]int8, v.n)
	if c.kind == kindString {
		for i := range m {
			if c.null(i) {
				m[i] = mNull
				continue
			}
			if likeMatchLower(c.strs[i], lp) != x.Not {
				m[i] = mTrue
			}
		}
		return m, true, nil
	}
	rows := v.vp.t1.Rows
	for i := range m {
		val := rows[i][ci]
		if val.IsNull() {
			m[i] = mNull
			continue
		}
		if likeMatchLower(val.String(), lp) != x.Not {
			m[i] = mTrue
		}
	}
	return m, true, nil
}

func (v *vecExec) inMask(x *sqlast.InExpr) ([]int8, bool, error) {
	ci, ok := v.slotCol(x.X)
	if !ok {
		return nil, false, nil
	}
	if x.Sub != nil {
		if !v.ex.closedSub(x.Sub) {
			return nil, false, nil
		}
		return v.inSubMask(ci, x)
	}
	// A list element is evaluated only for a non-NULL x, so only literals
	// are constants here.
	candidates := make([]Value, 0, len(x.List))
	for _, le := range x.List {
		if _, isLit := le.(*sqlast.Literal); !isLit {
			return nil, false, nil
		}
		cv, err := v.constVal(le)
		if err != nil {
			return nil, false, err
		}
		candidates = append(candidates, cv)
	}
	rows := v.vp.t1.Rows
	m := make([]int8, v.n)
	for i := range m {
		val := rows[i][ci]
		if val.IsNull() {
			m[i] = mNull
			continue
		}
		sawNull := false
		matched := false
		for _, cv := range candidates {
			eq, known := Equal(val, cv)
			if !known {
				sawNull = true
				continue
			}
			if eq {
				matched = true
				break
			}
		}
		switch {
		case matched:
			if !x.Not {
				m[i] = mTrue
			}
		case sawNull:
			m[i] = mNull
		default:
			if x.Not {
				m[i] = mTrue
			}
		}
	}
	return m, true, nil
}

// inSubMask evaluates column ci [NOT] IN a closed subquery as evalIn does:
// the subquery runs at the first non-NULL value of the column, its column
// folds into the memo's candidate set once, and every further non-NULL value
// is one memo hit.
func (v *vecExec) inSubMask(ci int, x *sqlast.InExpr) ([]int8, bool, error) {
	rows := v.vp.t1.Rows
	nonNull := 0
	for i := range rows {
		if !rows[i][ci].IsNull() {
			nonNull++
		}
	}
	if nonNull == 0 {
		return fillMask(v.n, mNull), true, nil
	}
	memo := v.ex.memoFor(x.Sub)
	res, err := v.ex.subResult(x.Sub, nil, memo)
	if err != nil {
		return nil, false, err
	}
	if len(res.Columns) != 1 {
		return nil, false, fmt.Errorf("IN subquery returned %d columns", len(res.Columns))
	}
	v.ex.subStats.MemoHits += int64(nonNull - 1)
	if memo.in == nil {
		memo.in = newInSet(res.Rows)
	}
	m := make([]int8, v.n)
	for i := range m {
		val := rows[i][ci]
		switch {
		case val.IsNull():
			m[i] = mNull
		case memo.in.contains(val):
			if !x.Not {
				m[i] = mTrue
			}
		case memo.in.sawNull:
			m[i] = mNull
		case x.Not:
			m[i] = mTrue
		}
	}
	return m, true, nil
}

// ----------------------------------------------------------------------------
// Grouping

// groupSel partitions the selected context rows by the GROUP BY key,
// mirroring groupRows: a group id per row, numbering the keys in first-seen
// order, then one partition; first row as representative. One bare column
// key takes its ids from the column's codes (groupByCodes) when that is
// cheap; otherwise one keyIndex numbers the key values, a bare column key
// gathered from its slot, any other evaluated per row. rep == -1 marks the
// empty global group.
func (v *vecExec) groupSel(selIdx []int32) (groups parts[int32], reps []int32, ok bool) {
	if len(v.stmt.GroupBy) == 0 {
		rep := int32(-1)
		if len(selIdx) > 0 {
			rep = selIdx[0]
		}
		return parts[int32]{start: []int32{0, int32(len(selIdx))}, items: selIdx}, []int32{rep}, true
	}
	slots := make([]colSlot, len(v.stmt.GroupBy))
	bare := make([]bool, len(v.stmt.GroupBy))
	for k, g := range v.stmt.GroupBy {
		slots[k], bare[k] = v.argSlot(g)
	}
	var gid []int32
	var ng int
	if len(slots) == 1 && bare[0] {
		gid, ng = v.groupByCodes(selIdx, slots[0])
	}
	if gid == nil {
		var idx keyIndex
		key := make([]Value, len(v.stmt.GroupBy))
		gid = make([]int32, len(selIdx))
		for n, i := range selIdx {
			for k, g := range v.stmt.GroupBy {
				if bare[k] {
					key[k] = v.gatherSlot(i, slots[k])
					continue
				}
				val, err := v.ex.eval(g, v.env(int(i)), nil)
				if err != nil {
					return groups, nil, false
				}
				key[k] = val
			}
			gid[n], _ = idx.id(key)
		}
		ng = int(idx.n)
	}
	groups = partition(selIdx, gid, ng)
	reps = make([]int32, groups.len())
	for g := range reps {
		reps[g] = groups.at(g)[0]
	}
	return groups, reps, true
}

// groupByCodes numbers the groups of one bare column key from the column's
// codes. They are keyIndex's ids over the whole column, so renumbering them
// in first-seen order over the selection gives the ids one keyIndex over the
// selected values would. A LEFT JOIN pad row's NULL takes the column's NULL
// code, or a slot of its own when the column holds no NULL. The renumbering
// runs through a dense slice with one entry per code, so it is taken only
// when the column has at most twice as many keys as the selection has rows;
// gid == nil means the caller numbers the keys itself.
func (v *vecExec) groupByCodes(selIdx []int32, slot colSlot) (gid []int32, ng int) {
	ct := v.ct1
	if slot.binding == 1 {
		ct = v.ct2
	}
	c := ct.colCodes(slot.col)
	if int(c.n) > 2*len(selIdx) {
		return nil, 0
	}
	pad := c.null
	if pad < 0 {
		pad = c.n
	}
	remap := make([]int32, c.n+1) // code → group id + 1
	gid = make([]int32, len(selIdx))
	for n, i := range selIdx {
		code := pad
		if v.vp.t2 == nil {
			code = c.ids[i]
		} else if p := v.pairs[i]; slot.binding == 0 {
			code = c.ids[p.l]
		} else if p.r >= 0 {
			code = c.ids[p.r]
		}
		if remap[code] == 0 {
			ng++
			remap[code] = int32(ng)
		}
		gid[n] = remap[code] - 1
	}
	return gid, ng
}

// ----------------------------------------------------------------------------
// Aggregate folds

// gatherSlot reads the value of a depth-0 planned column slot for context
// row i without building an environment.
func (v *vecExec) gatherSlot(i int32, slot colSlot) Value {
	if v.vp.t2 == nil {
		return v.vp.t1.Rows[i][slot.col]
	}
	p := v.pairs[i]
	if slot.binding == 0 {
		return v.vp.t1.Rows[p.l][slot.col]
	}
	if p.r < 0 {
		return Null()
	}
	return v.vp.t2.Rows[p.r][slot.col]
}

// argSlot resolves an aggregate argument or a group key as a depth-0 column
// reference of either source.
func (v *vecExec) argSlot(e sqlast.Expr) (colSlot, bool) {
	cr, ok := e.(*sqlast.ColumnRef)
	if !ok || v.ex.plan == nil {
		return colSlot{}, false
	}
	slot, ok := v.ex.plan.cols[cr]
	if !ok || slot.depth != 0 {
		return colSlot{}, false
	}
	max := 1
	if v.vp.t2 != nil {
		max = 2
	}
	if slot.binding >= max {
		return colSlot{}, false
	}
	return slot, true
}

// aggValue folds one aggregate call over a group of context rows: on a
// typed column when typedFold can, otherwise with the row path's own fold
// over argument values gathered from a column slot or evaluated per row.
func (v *vecExec) aggValue(x *sqlast.FuncCall, group []int32) (Value, error) {
	var slot colSlot
	fastArg := false
	if !x.Star && len(x.Args) == 1 {
		if ci, ok := v.slotCol(x.Args[0]); ok && v.vp.t2 == nil && !x.Distinct {
			if val, ok := v.typedFold(x.Name, &v.ct1.cols[ci], ci, group); ok {
				return val, nil
			}
		}
		slot, fastArg = v.argSlot(x.Args[0])
	}
	return foldAggregate(x, len(group), func(k int) (Value, error) {
		if fastArg {
			return v.gatherSlot(group[k], slot), nil
		}
		return v.ex.eval(x.Args[0], v.env(int(group[k])), nil)
	})
}

// typedFold folds COUNT/SUM/AVG/MIN/MAX over one typed column. ok=false
// falls through to the generic fold.
func (v *vecExec) typedFold(name string, c *colData, ci int, group []int32) (Value, bool) {
	if c.kind == kindEmpty {
		// Every value NULL: COUNT is 0, everything else NULL.
		if name == "COUNT" {
			return Int(0), true
		}
		if name == "SUM" || name == "AVG" || name == "MIN" || name == "MAX" {
			return Null(), true
		}
		return Value{}, false
	}
	switch name {
	case "COUNT":
		if c.kind == kindOther {
			return Value{}, false
		}
		n := 0
		if c.nulls == nil {
			n = len(group)
		} else {
			for _, i := range group {
				if !c.nulls[i] {
					n++
				}
			}
		}
		return Int(int64(n)), true
	case "SUM", "AVG":
		// kindNum would need per-row int/float tags to reproduce SUM's
		// all-int result typing; the generic fold handles it.
		if c.kind != kindInt && c.kind != kindFloat {
			return Value{}, false
		}
		n := 0
		sum := 0.0
		for _, i := range group {
			if c.null(int(i)) {
				continue
			}
			n++
			sum += c.nums[i]
		}
		if n == 0 {
			return Null(), true
		}
		if name == "AVG" {
			return Float(sum / float64(n)), true
		}
		if c.kind == kindInt {
			return Int(int64(sum)), true
		}
		return Float(sum), true
	case "MIN", "MAX":
		isMin := name == "MIN"
		switch {
		case c.kind.domain() == domNum:
			bestIdx := int32(-1)
			var bestF float64
			for _, i := range group {
				if c.null(int(i)) {
					continue
				}
				f := c.nums[i]
				if bestIdx < 0 || (isMin && f < bestF) || (!isMin && f > bestF) {
					bestIdx, bestF = i, f
				}
			}
			if bestIdx < 0 {
				return Null(), true
			}
			return v.vp.t1.Rows[bestIdx][ci], true
		case c.kind == kindString:
			bestIdx := int32(-1)
			var bestS string
			for _, i := range group {
				if c.null(int(i)) {
					continue
				}
				s := c.strs[i]
				if bestIdx < 0 {
					bestIdx, bestS = i, s
					continue
				}
				cmp := cmpText(s, bestS)
				if (isMin && cmp < 0) || (!isMin && cmp > 0) {
					bestIdx, bestS = i, s
				}
			}
			if bestIdx < 0 {
				return Null(), true
			}
			return v.vp.t1.Rows[bestIdx][ci], true
		}
	}
	return Value{}, false
}
