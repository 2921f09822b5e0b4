package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"fisql/internal/sqlast"
)

// Executor runs SELECT statements against one database. An Executor is not
// safe for concurrent use; they are cheap, so create one per goroutine.
type Executor struct {
	db *Database
	// maxRows caps base-table scans, subquery materialization and
	// intermediate join sizes to guard against accidental cartesian blowups
	// from generated queries.
	maxRows int
	// plan, when set, supplies resolved column slots so eval can index
	// binding values directly instead of scanning names per row.
	plan *Plan
	// noColumnar disables the vectorized columnar path; see SetColumnar.
	noColumnar bool
	// likePatterns memoizes lowercased LIKE patterns so the per-row match
	// does not re-lower the pattern for every candidate row.
	likePatterns map[string]string
	// memo holds the current Run's closed-subquery results, one slot per
	// plan.subs entry, allocated on first use; subStats tallies the Run's
	// subquery executions. See subquery.go.
	memo     []subMemo
	subStats SubqueryStats
	// orderStats tallies the Run's ORDER BY sorts. See order.go.
	orderStats OrderStats
}

// NewExecutor returns an executor over db.
func NewExecutor(db *Database) *Executor {
	return &Executor{db: db, maxRows: 2_000_000}
}

// SetColumnar toggles the vectorized columnar path Run tries before the
// row-at-a-time executor (on by default). The columnar path is
// result-identical by construction — it bails back to the row path rather
// than diverge — so the knob exists for differential tests and paired
// benchmarks.
func (ex *Executor) SetColumnar(on bool) { ex.noColumnar = !on }

// Query parses, plans and executes a SELECT given as text. Use a shared
// Cache to amortize the parse+plan work across repeated queries.
func (ex *Executor) Query(sql string) (*Result, error) {
	p, err := Prepare(ex.db, sql)
	if err != nil {
		return nil, err
	}
	return ex.Run(p)
}

// Run executes a prepared plan. The plan must have been prepared against the
// executor's database.
func (ex *Executor) Run(p *Plan) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("nil plan")
	}
	if p.db != ex.db {
		return nil, fmt.Errorf("plan prepared against a different database")
	}
	prev := ex.plan
	ex.plan = p
	defer func() {
		ex.plan = prev
		ex.endRun()
	}()
	return ex.runSelect(p.Stmt, &p.vec)
}

// runSelect runs sel, the plan's statement or one of its closed subqueries,
// with no outer scope: on its vectorized stages when the cached
// qualification allows, and on the row executor otherwise. Each attempt
// counts in ColumnarStats.
func (ex *Executor) runSelect(sel *sqlast.SelectStmt, cache *atomic.Pointer[vecPlan]) (*Result, error) {
	if !ex.noColumnar {
		if c, cols, ok := ex.runVec(ex.plan, sel, cache); ok {
			// A hit even if the tail errors: that error is the row path's.
			ex.db.colHits.Add(1)
			return ex.finish(sel, cols, &c, nil)
		}
		ex.db.colFallbacks.Add(1)
	}
	return ex.execSelect(sel, nil)
}

// Select executes a parsed SELECT without a planning pass: every column
// reference resolves through the dynamic per-row lookup. This is the
// reference interpreter the differential tests compare planned execution
// against, and nothing else: no non-test code outside this package calls
// it (TestOracleIsTestOnly in the module root checks), so production runs
// Query/Run.
func (ex *Executor) Select(sel *sqlast.SelectStmt) (*Result, error) {
	return ex.execSelect(sel, nil)
}

// ----------------------------------------------------------------------------
// Row environments

// binding exposes one table source's columns under its alias.
type binding struct {
	alias string // lowercase alias or table name
	cols  []string
	vals  []Value
}

// rowEnv is the scope an expression evaluates in: the current row's
// bindings, chained to the enclosing query's scope for correlated
// subqueries.
type rowEnv struct {
	bindings []binding
	outer    *rowEnv
}

// lookup resolves a (possibly qualified) column reference.
func (env *rowEnv) lookup(table, col string) (Value, error) {
	for e := env; e != nil; e = e.outer {
		if table != "" {
			for _, b := range e.bindings {
				if b.alias == strings.ToLower(table) {
					for i, c := range b.cols {
						if strings.EqualFold(c, col) {
							return b.vals[i], nil
						}
					}
					return Value{}, fmt.Errorf("column %s.%s not found", table, col)
				}
			}
			continue // alias might belong to an outer scope
		}
		found := false
		var v Value
		for _, b := range e.bindings {
			for i, c := range b.cols {
				if strings.EqualFold(c, col) {
					if found {
						return Value{}, fmt.Errorf("ambiguous column %q", col)
					}
					found = true
					v = b.vals[i]
				}
			}
		}
		if found {
			return v, nil
		}
	}
	if table != "" {
		return Value{}, fmt.Errorf("unknown table or alias %q", table)
	}
	return Value{}, fmt.Errorf("unknown column %q", col)
}

// ----------------------------------------------------------------------------
// FROM evaluation

// sourceRows materializes one table source as a binding list per row. Scans
// and subquery materializations are capped at maxRows so a huge generated
// base table errors instead of exhausting memory downstream.
func (ex *Executor) sourceRows(ts sqlast.TableSource, outer *rowEnv) (alias string, cols []string, rows [][]Value, err error) {
	if ts.Sub != nil {
		res, err := ex.subResult(ts.Sub, outer, ex.memoFor(ts.Sub))
		if err != nil {
			return "", nil, nil, err
		}
		alias = strings.ToLower(ts.Alias)
		if alias == "" {
			alias = "subquery"
		}
		if len(res.Rows) > ex.maxRows {
			return "", nil, nil, fmt.Errorf("FROM subquery %q exceeds %d rows", alias, ex.maxRows)
		}
		return alias, res.Columns, res.Rows, nil
	}
	t, ok := ex.db.Table(ts.Name)
	if !ok {
		return "", nil, nil, fmt.Errorf("unknown table %q", ts.Name)
	}
	alias = strings.ToLower(ts.Alias)
	if alias == "" {
		alias = strings.ToLower(ts.Name)
	}
	if len(t.Rows) > ex.maxRows {
		return "", nil, nil, fmt.Errorf("table %q exceeds %d rows", ts.Name, ex.maxRows)
	}
	cols = make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	return alias, cols, t.Rows, nil
}

// fromRows evaluates the FROM clause into a slice of row environments.
func (ex *Executor) fromRows(from *sqlast.FromClause, outer *rowEnv) ([]*rowEnv, error) {
	if from == nil {
		return []*rowEnv{{outer: outer}}, nil
	}
	envs, err := ex.baseEnvs(from.First, outer)
	if err != nil {
		return nil, err
	}
	for i := range from.Joins {
		j := &from.Joins[i]
		jAlias, jCols, jRows, err := ex.sourceRows(j.Source, outer)
		if err != nil {
			return nil, err
		}
		envs, err = ex.nestedJoin(envs, j, jAlias, jCols, jRows, outer)
		if err != nil {
			return nil, err
		}
	}
	return envs, nil
}

// baseEnvs materializes the first FROM source into row environments,
// bulk-allocating the environments and their single-binding slices in three
// allocations. Downstream stages never append to an emitted env's bindings
// (joins copy into a fresh scratch), so the capped one-element slices are
// safe to share.
func (ex *Executor) baseEnvs(ts sqlast.TableSource, outer *rowEnv) ([]*rowEnv, error) {
	alias, cols, rows, err := ex.sourceRows(ts, outer)
	if err != nil {
		return nil, err
	}
	envs := make([]*rowEnv, len(rows))
	envStore := make([]rowEnv, len(rows))
	bindStore := make([]binding, len(rows))
	for i, r := range rows {
		bindStore[i] = binding{alias: alias, cols: cols, vals: r}
		envStore[i] = rowEnv{bindings: bindStore[i : i+1 : i+1], outer: outer}
		envs[i] = &envStore[i]
	}
	return envs, nil
}

// envArena snapshots scratch environments for emitted join rows, handing
// out rowEnv structs and binding slices from 256-entry blocks so a join
// emitting k rows costs ~2k/256 heap allocations instead of 2k. The binding
// structs are copied (column-name and value slices stay shared), and the
// carved slices are capacity-capped, so emitted environments are as
// isolated as individually allocated clones.
type envArena struct {
	envs  []rowEnv
	binds []binding
}

func (a *envArena) clone(src *rowEnv) *rowEnv {
	if len(a.envs) == 0 {
		a.envs = make([]rowEnv, 256)
	}
	e := &a.envs[0]
	a.envs = a.envs[1:]
	need := len(src.bindings)
	if len(a.binds) < need {
		a.binds = make([]binding, 256*need)
	}
	b := a.binds[:need:need]
	a.binds = a.binds[need:]
	copy(b, src.bindings)
	e.bindings = b
	e.outer = src.outer
	return e
}

// nestedJoin is the row executor's join, O(n·m): every (left, right) pair
// is materialized into a reusable scratch environment and tested against
// the ON clause; the scratch is cloned only for pairs that survive. The
// engine's one hash join is the vectorized path's (buildPairs, vec.go).
func (ex *Executor) nestedJoin(envs []*rowEnv, j *sqlast.Join, jAlias string, jCols []string, jRows [][]Value, outer *rowEnv) ([]*rowEnv, error) {
	joined := make([]*rowEnv, 0, len(envs))
	var nulls []Value
	if j.Type == sqlast.JoinLeft {
		nulls = make([]Value, len(jCols))
		for i := range nulls {
			nulls[i] = Null()
		}
	}
	scratch := &rowEnv{outer: outer}
	var arena envArena
	for _, left := range envs {
		nb := len(left.bindings)
		if cap(scratch.bindings) < nb+1 {
			scratch.bindings = make([]binding, nb+1)
		}
		scratch.bindings = scratch.bindings[:nb+1]
		copy(scratch.bindings, left.bindings)
		scratch.bindings[nb] = binding{alias: jAlias, cols: jCols}
		matched := false
		for _, r := range jRows {
			scratch.bindings[nb].vals = r
			if j.On != nil {
				ok, err := ex.evalBool(j.On, scratch, nil)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			matched = true
			joined = append(joined, arena.clone(scratch))
			if len(joined) > ex.maxRows {
				return nil, fmt.Errorf("join result exceeds %d rows", ex.maxRows)
			}
		}
		if !matched && j.Type == sqlast.JoinLeft {
			scratch.bindings[nb].vals = nulls
			joined = append(joined, arena.clone(scratch))
		}
	}
	return joined, nil
}

// splitAnd flattens a conjunction into its top-level conjuncts.
func splitAnd(e sqlast.Expr) []sqlast.Expr {
	if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sqlast.Expr{e}
}

// ----------------------------------------------------------------------------
// Expression evaluation

// evalCtx carries the optional aggregate group: when non-nil, aggregate
// function calls evaluate over these rows instead of erroring.
type evalCtx struct {
	group []*rowEnv
	// folded, when non-nil, supplies the group's aggregate values folded
	// ahead. The vectorized path folds aggregates over column arrays instead
	// of row environments and hands the results over here, so
	// HAVING/items/ORDER BY evaluate in the shared tail. Calls it does not
	// hold fall through to the group fold.
	folded *foldedAggs
}

// foldedAggs is one group's row of the vectorized path's aggregate slab:
// vals[k] is the value of the call nodes[k].
type foldedAggs struct {
	nodes []*sqlast.FuncCall
	vals  []Value
}

// value returns x's folded value. The scan is linear: a statement has only
// a handful of aggregate calls.
func (f *foldedAggs) value(x *sqlast.FuncCall) (Value, bool) {
	for k, n := range f.nodes {
		if n == x {
			return f.vals[k], true
		}
	}
	return Value{}, false
}

func (ex *Executor) evalBool(e sqlast.Expr, env *rowEnv, ctx *evalCtx) (bool, error) {
	v, err := ex.eval(e, env, ctx)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

func (ex *Executor) eval(e sqlast.Expr, env *rowEnv, ctx *evalCtx) (Value, error) {
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		// Planned references read their value by slot index; anything the
		// planner left unresolved (or an env shape the slot does not fit,
		// e.g. the empty representative env of a global aggregation over no
		// rows) falls back to the dynamic name scan, which raises the
		// interpreter's errors at the interpreter's moments.
		if ex.plan != nil {
			if slot, ok := ex.plan.cols[x]; ok {
				e := env
				for d := 0; d < slot.depth && e != nil; d++ {
					e = e.outer
				}
				if e != nil && slot.binding < len(e.bindings) {
					b := &e.bindings[slot.binding]
					if slot.col < len(b.vals) {
						return b.vals[slot.col], nil
					}
				}
			}
		}
		return env.lookup(x.Table, x.Column)
	case *sqlast.Literal:
		switch x.Kind {
		case sqlast.LitNull:
			return Null(), nil
		case sqlast.LitBool:
			return Bool(x.Text == "TRUE"), nil
		case sqlast.LitString:
			return Text(x.Text), nil
		case sqlast.LitNumber:
			if strings.Contains(x.Text, ".") {
				f, err := strconv.ParseFloat(x.Text, 64)
				if err != nil {
					return Value{}, fmt.Errorf("bad number %q", x.Text)
				}
				return Float(f), nil
			}
			i, err := strconv.ParseInt(x.Text, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("bad number %q", x.Text)
			}
			return Int(i), nil
		}
		return Value{}, fmt.Errorf("bad literal kind %d", x.Kind)
	case *sqlast.Binary:
		return ex.evalBinary(x, env, ctx)
	case *sqlast.Unary:
		v, err := ex.eval(x.X, env, ctx)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case sqlast.OpNot:
			if v.IsNull() {
				return Null(), nil
			}
			return Bool(!v.Truthy()), nil
		case sqlast.OpNeg:
			switch v.T {
			case TypeInt:
				return Int(-v.I), nil
			case TypeFloat:
				return Float(-v.Real()), nil
			case TypeNull:
				return Null(), nil
			}
			return Value{}, fmt.Errorf("cannot negate %s", v.T)
		}
		return Value{}, fmt.Errorf("bad unary op %d", x.Op)
	case *sqlast.FuncCall:
		return ex.evalFunc(x, env, ctx)
	case *sqlast.InExpr:
		return ex.evalIn(x, env, ctx)
	case *sqlast.BetweenExpr:
		v, err := ex.eval(x.X, env, ctx)
		if err != nil {
			return Value{}, err
		}
		lo, err := ex.eval(x.Lo, env, ctx)
		if err != nil {
			return Value{}, err
		}
		hi, err := ex.eval(x.Hi, env, ctx)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if x.Not {
			in = !in
		}
		return Bool(in), nil
	case *sqlast.LikeExpr:
		v, err := ex.eval(x.X, env, ctx)
		if err != nil {
			return Value{}, err
		}
		pat, err := ex.eval(x.Pattern, env, ctx)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return Null(), nil
		}
		m := ex.like(v.String(), pat.String())
		if x.Not {
			m = !m
		}
		return Bool(m), nil
	case *sqlast.IsNullExpr:
		v, err := ex.eval(x.X, env, ctx)
		if err != nil {
			return Value{}, err
		}
		isNull := v.IsNull()
		if x.Not {
			isNull = !isNull
		}
		return Bool(isNull), nil
	case *sqlast.ExistsExpr:
		res, err := ex.subResult(x.Sub, env, ex.memoFor(x.Sub))
		if err != nil {
			return Value{}, err
		}
		exists := len(res.Rows) > 0
		if x.Not {
			exists = !exists
		}
		return Bool(exists), nil
	case *sqlast.SubqueryExpr:
		res, err := ex.subResult(x.Sub, env, ex.memoFor(x.Sub))
		if err != nil {
			return Value{}, err
		}
		if len(res.Rows) == 0 {
			return Null(), nil
		}
		if len(res.Columns) != 1 {
			return Value{}, fmt.Errorf("scalar subquery returned %d columns", len(res.Columns))
		}
		if len(res.Rows) > 1 {
			return Value{}, fmt.Errorf("scalar subquery returned %d rows", len(res.Rows))
		}
		return res.Rows[0][0], nil
	case *sqlast.CaseExpr:
		for _, w := range x.Whens {
			ok, err := ex.evalBool(w.When, env, ctx)
			if err != nil {
				return Value{}, err
			}
			if ok {
				return ex.eval(w.Then, env, ctx)
			}
		}
		if x.Else != nil {
			return ex.eval(x.Else, env, ctx)
		}
		return Null(), nil
	}
	return Value{}, fmt.Errorf("unsupported expression %T", e)
}

func (ex *Executor) evalBinary(x *sqlast.Binary, env *rowEnv, ctx *evalCtx) (Value, error) {
	// AND/OR get three-valued logic with short-circuiting.
	if x.Op == sqlast.OpAnd || x.Op == sqlast.OpOr {
		l, err := ex.eval(x.L, env, ctx)
		if err != nil {
			return Value{}, err
		}
		if x.Op == sqlast.OpAnd && !l.IsNull() && !l.Truthy() {
			return Bool(false), nil
		}
		if x.Op == sqlast.OpOr && !l.IsNull() && l.Truthy() {
			return Bool(true), nil
		}
		r, err := ex.eval(x.R, env, ctx)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			// a AND NULL is NULL unless a is false (handled above);
			// a OR NULL is NULL unless a is true (handled above).
			if x.Op == sqlast.OpAnd && !r.IsNull() && !r.Truthy() {
				return Bool(false), nil
			}
			if x.Op == sqlast.OpOr && !r.IsNull() && r.Truthy() {
				return Bool(true), nil
			}
			return Null(), nil
		}
		if x.Op == sqlast.OpAnd {
			return Bool(l.Truthy() && r.Truthy()), nil
		}
		return Bool(l.Truthy() || r.Truthy()), nil
	}
	l, err := ex.eval(x.L, env, ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := ex.eval(x.R, env, ctx)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case sqlast.OpEq, sqlast.OpNeq, sqlast.OpLt, sqlast.OpLte, sqlast.OpGt, sqlast.OpGte:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c := Compare(l, r)
		switch x.Op {
		case sqlast.OpEq:
			return Bool(c == 0), nil
		case sqlast.OpNeq:
			return Bool(c != 0), nil
		case sqlast.OpLt:
			return Bool(c < 0), nil
		case sqlast.OpLte:
			return Bool(c <= 0), nil
		case sqlast.OpGt:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpDiv, sqlast.OpMod:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			return Value{}, fmt.Errorf("arithmetic on non-numeric values %s, %s", l.T, r.T)
		}
		bothInt := l.T == TypeInt && r.T == TypeInt
		switch x.Op {
		case sqlast.OpAdd:
			if bothInt {
				return Int(l.I + r.I), nil
			}
			return Float(lf + rf), nil
		case sqlast.OpSub:
			if bothInt {
				return Int(l.I - r.I), nil
			}
			return Float(lf - rf), nil
		case sqlast.OpMul:
			if bothInt {
				return Int(l.I * r.I), nil
			}
			return Float(lf * rf), nil
		case sqlast.OpDiv:
			if rf == 0 {
				return Null(), nil
			}
			return Float(lf / rf), nil
		default: // OpMod
			if !bothInt || r.I == 0 {
				return Null(), nil
			}
			return Int(l.I % r.I), nil
		}
	}
	return Value{}, fmt.Errorf("bad binary op %d", x.Op)
}

func (ex *Executor) evalIn(x *sqlast.InExpr, env *rowEnv, ctx *evalCtx) (Value, error) {
	v, err := ex.eval(x.X, env, ctx)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return Null(), nil
	}
	var candidates []Value
	if x.Sub != nil {
		m := ex.memoFor(x.Sub)
		res, err := ex.subResult(x.Sub, env, m)
		if err != nil {
			return Value{}, err
		}
		if len(res.Columns) != 1 {
			return Value{}, fmt.Errorf("IN subquery returned %d columns", len(res.Columns))
		}
		if m != nil {
			// Closed: the candidate column is the same for every row of
			// this Run, so it is folded into a set once.
			if m.in == nil {
				m.in = newInSet(res.Rows)
			}
			switch {
			case m.in.contains(v):
				return Bool(!x.Not), nil
			case m.in.sawNull:
				return Null(), nil
			}
			return Bool(x.Not), nil
		}
		candidates = make([]Value, 0, len(res.Rows))
		for _, row := range res.Rows {
			candidates = append(candidates, row[0])
		}
	} else {
		candidates = make([]Value, 0, len(x.List))
		for _, le := range x.List {
			c, err := ex.eval(le, env, ctx)
			if err != nil {
				return Value{}, err
			}
			candidates = append(candidates, c)
		}
	}
	sawNull := false
	for _, c := range candidates {
		eq, known := Equal(v, c)
		if !known {
			sawNull = true
			continue
		}
		if eq {
			return Bool(!x.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(x.Not), nil
}

// like implements SQL LIKE with % and _ wildcards, case-insensitively.
func (ex *Executor) like(s, pattern string) bool {
	return likeMatchLower(s, ex.lowerPattern(pattern))
}

// lowerPattern returns pattern lowered, memoized so a WHERE ... LIKE
// 'literal' lowers the pattern once per query, not per row.
func (ex *Executor) lowerPattern(pattern string) string {
	lp, ok := ex.likePatterns[pattern]
	if !ok {
		if ex.likePatterns == nil || len(ex.likePatterns) >= 256 {
			ex.likePatterns = make(map[string]string)
		}
		lp = strings.ToLower(pattern)
		ex.likePatterns[pattern] = lp
	}
	return lp
}

// likeMatchLower matches s, as lowered, against the lowered pattern p with
// an iterative two-pointer matcher: O(len(s)·len(p)) worst case. On a
// mismatch it backtracks to the most recent '%' and retries with that
// wildcard consuming one more character, instead of the exponential
// recursion a naive matcher does on patterns like %a%a%a%...
//
// Wildcards are defined over characters, not bytes: '_' must consume one
// full rune ('é' LIKE '_' is true) and '%' backtracking must advance by
// whole runes, never splitting a UTF-8 sequence. Pure-ASCII inputs — the
// overwhelmingly common case — take a byte-wise fast path that folds s as
// it compares, with no allocation; anything multi-byte lowers s and falls
// back to a rune-wise run of the same algorithm.
func likeMatchLower(s, p string) bool {
	if isASCII(s) && isASCII(p) {
		si, pi := 0, 0
		starP, starS := -1, 0
		for si < len(s) {
			c := s[si]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if pi < len(p) && (p[pi] == '_' || p[pi] == c) {
				si++
				pi++
			} else if pi < len(p) && p[pi] == '%' {
				starP, starS = pi, si
				pi++
			} else if starP >= 0 {
				starS++
				si, pi = starS, starP+1
			} else {
				return false
			}
		}
		for pi < len(p) && p[pi] == '%' {
			pi++
		}
		return pi == len(p)
	}
	return likeMatchRunes([]rune(strings.ToLower(s)), []rune(p))
}

// likeMatchRunes is the rune-wise twin of the ASCII loop above.
func likeMatchRunes(s, p []rune) bool {
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		if pi < len(p) && (p[pi] == '_' || p[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(p) && p[pi] == '%' {
			starP, starS = pi, si
			pi++
		} else if starP >= 0 {
			starS++
			si, pi = starS, starP+1
		} else {
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// ----------------------------------------------------------------------------
// Aggregates

func isAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// aggregated reports whether sel runs as an aggregate query: it has a GROUP
// BY or a HAVING, or a select item aggregates. An aggregate in ORDER BY
// alone does not make one.
func aggregated(sel *sqlast.SelectStmt) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, it := range sel.Items {
		if it.Expr != nil && hasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// hasAggregate reports whether e contains an aggregate call outside
// subqueries.
func hasAggregate(e sqlast.Expr) bool {
	found := false
	sqlast.Walk(e, func(n sqlast.Expr) bool {
		switch x := n.(type) {
		case *sqlast.FuncCall:
			if isAggregateName(x.Name) {
				found = true
				return false
			}
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			return false // do not descend into subqueries
		case *sqlast.InExpr:
			if x.Sub != nil {
				sqlast.Walk(x.X, func(m sqlast.Expr) bool {
					if fc, ok := m.(*sqlast.FuncCall); ok && isAggregateName(fc.Name) {
						found = true
						return false
					}
					return true
				})
				return false
			}
		}
		return true
	})
	return found
}

func (ex *Executor) evalFunc(x *sqlast.FuncCall, env *rowEnv, ctx *evalCtx) (Value, error) {
	if isAggregateName(x.Name) {
		if ctx != nil && ctx.folded != nil {
			if v, ok := ctx.folded.value(x); ok {
				return v, nil
			}
		}
		if ctx == nil || ctx.group == nil {
			return Value{}, fmt.Errorf("aggregate %s used outside aggregation context", x.Name)
		}
		return foldAggregate(x, len(ctx.group), func(i int) (Value, error) {
			return ex.eval(x.Args[0], ctx.group[i], nil)
		})
	}
	// Scalar functions.
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ex.eval(a, env, ctx)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch x.Name {
	case "LENGTH":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("LENGTH takes 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].String()))), nil
	case "LOWER":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("LOWER takes 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToLower(args[0].String())), nil
	case "UPPER":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("UPPER takes 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToUpper(args[0].String())), nil
	case "ABS":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("ABS takes 1 argument")
		}
		switch args[0].T {
		case TypeNull:
			return Null(), nil
		case TypeInt:
			if args[0].I < 0 {
				return Int(-args[0].I), nil
			}
			return args[0], nil
		case TypeFloat:
			if args[0].Real() < 0 {
				return Float(-args[0].Real()), nil
			}
			return args[0], nil
		}
		return Value{}, fmt.Errorf("ABS of non-numeric value")
	}
	return Value{}, fmt.Errorf("unknown function %q", x.Name)
}

// foldAggregate folds aggregate call x over a group of rows rows; arg(i) is
// the call's argument in row i. It is the one fold both executors use: the row
// executor evaluates the argument per environment, the vectorized path
// gathers it from a column slot where it can.
func foldAggregate(x *sqlast.FuncCall, rows int, arg func(i int) (Value, error)) (Value, error) {
	// COUNT(*) counts rows; everything else evaluates the argument per row
	// and skips NULLs.
	if x.Star {
		if x.Name != "COUNT" {
			return Value{}, fmt.Errorf("%s(*) is not valid", x.Name)
		}
		return Int(int64(rows)), nil
	}
	if len(x.Args) != 1 {
		return Value{}, fmt.Errorf("%s takes 1 argument", x.Name)
	}
	// One streaming pass: the argument is evaluated for every row (so
	// argument-evaluation errors surface exactly as before) and folded into
	// the running aggregate without materializing a value slice. The
	// SUM/AVG non-numeric error is deferred until after the loop because
	// the two-pass version it replaces reported evaluation errors from
	// later rows ahead of it.
	var seen keyIndex
	n := 0
	sum := 0.0
	allInt := true
	badNumeric := false
	var best Value
	for i := 0; i < rows; i++ {
		v, err := arg(i)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			if _, isNew := seen.id1(v); !isNew {
				continue
			}
		}
		n++
		switch x.Name {
		case "SUM", "AVG":
			f, ok := v.AsFloat()
			if !ok {
				badNumeric = true
				continue
			}
			if v.T != TypeInt {
				allInt = false
			}
			if !badNumeric {
				sum += f
			}
		case "MIN", "MAX":
			if n == 1 {
				best = v
			} else if c := Compare(v, best); (x.Name == "MIN" && c < 0) || (x.Name == "MAX" && c > 0) {
				best = v
			}
		}
	}
	switch x.Name {
	case "COUNT":
		return Int(int64(n)), nil
	case "SUM", "AVG":
		if badNumeric {
			return Value{}, fmt.Errorf("%s of non-numeric value", x.Name)
		}
		if n == 0 {
			return Null(), nil
		}
		if x.Name == "AVG" {
			return Float(sum / float64(n)), nil
		}
		if allInt {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	case "MIN", "MAX":
		if n == 0 {
			return Null(), nil
		}
		return best, nil
	}
	return Value{}, fmt.Errorf("unknown aggregate %q", x.Name)
}

// ----------------------------------------------------------------------------
// SELECT execution
//
// A SELECT arm runs in two halves. The first — FROM, WHERE, GROUP BY — ends
// at the arm's candidates: its selected rows, or its groups. The row
// executor produces them in gather, the vectorized path (vec.go) from column
// arrays. The second half, finish, is the one tail both share: HAVING, the
// select list, DISTINCT, set operations, ORDER BY and LIMIT.

// candidates are what a SELECT arm's first half hands to the tail.
// Candidate i evaluates in env(i) and, when the arm aggregates, in the group
// context ctx(i).
type candidates struct {
	// envs holds one environment per candidate: a selected row, or a
	// group's representative row.
	envs []*rowEnv
	// vec, when set, replaces envs: candidate i is the vectorized attempt's
	// context row idx[i], whose environment is a scratch, valid until the
	// next env call. An aggregated attempt's groups are rows of vec's
	// aggregate slab.
	vec *vecExec
	idx []int32
	// groups holds the rows of each candidate group of an aggregated arm on
	// the row executor.
	groups parts[*rowEnv]
	// scratch is the group context ctx fills, valid until the next call.
	scratch evalCtx
}

func (c *candidates) len() int {
	if c.vec != nil {
		return len(c.idx)
	}
	return len(c.envs)
}

func (c *candidates) env(i int) *rowEnv {
	if c.vec != nil {
		return c.vec.env(int(c.idx[i]))
	}
	return c.envs[i]
}

func (c *candidates) ctx(i int) *evalCtx {
	switch {
	case c.groups.start != nil:
		c.scratch.group = c.groups.at(i)
	case c.vec != nil && c.vec.aggs != nil:
		c.scratch.folded = c.vec.folded(i)
	default:
		return nil
	}
	return &c.scratch
}

func (ex *Executor) execSelect(sel *sqlast.SelectStmt, outer *rowEnv) (*Result, error) {
	c, cols, err := ex.gather(sel, outer)
	if err != nil {
		return nil, err
	}
	return ex.finish(sel, cols, &c, outer)
}

// finish is the SELECT tail, run over the first arm's candidates c and
// header cols.
func (ex *Executor) finish(sel *sqlast.SelectStmt, cols []string, c *candidates, outer *rowEnv) (*Result, error) {
	rows, src, slots, err := ex.project(sel, c, sel.Compound == nil && len(sel.OrderBy) > 0)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols, Rows: rows}
	if sel.Compound != nil {
		// Set operations combine projected row sets, which leaves ORDER BY
		// only the output columns to sort on.
		c = nil
		for arm := sel.Compound; arm != nil; arm = arm.Right.Compound {
			rc, rcols, err := ex.gather(arm.Right, outer)
			if err != nil {
				return nil, err
			}
			right, _, n, err := ex.project(arm.Right, &rc, false)
			if err != nil {
				return nil, err
			}
			slots += n
			if len(rcols) != len(cols) {
				return nil, fmt.Errorf("%s arms have %d vs %d columns", arm.Op, len(cols), len(rcols))
			}
			res.Rows = combineSetOp(arm.Op, res.Rows, right)
		}
		switch sel.Compound.Op {
		case sqlast.SetUnion, sqlast.SetIntersect, sqlast.SetExcept:
			res.Rows, _ = dedupeRows(res.Rows, nil)
		}
	}
	if len(sel.OrderBy) > 0 {
		if err := ex.orderRows(sel, res, c, src); err != nil {
			return nil, err
		}
		res.Ordered = true
	}
	if err := ex.limitRows(sel, res, outer); err != nil {
		return nil, err
	}
	res.Rows = compactRows(res.Rows, slots)
	return res, nil
}

// compactRows copies rows into one exact-size arena when they hold fewer
// than half of the slots projected for them — LIMIT, DISTINCT, a set
// operation or HAVING dropped the rest — so that a small result does not
// keep a large arena alive. Nil rows stay nil.
func compactRows(rows [][]Value, slots int) [][]Value {
	if rows == nil {
		return nil
	}
	kept := 0
	for _, r := range rows {
		kept += len(r)
	}
	if 2*kept >= slots {
		return rows
	}
	arena := make([]Value, 0, kept)
	out := make([][]Value, len(rows))
	for i, r := range rows {
		s := len(arena)
		arena = append(arena, r...)
		out[i] = arena[s:len(arena):len(arena)]
	}
	return out
}

// limitRows applies sel's LIMIT / OFFSET to res. A negative LIMIT means no
// limit, a negative OFFSET reads as 0 (SQLite's reading of both), and
// either may exceed the row count.
func (ex *Executor) limitRows(sel *sqlast.SelectStmt, res *Result, outer *rowEnv) error {
	if sel.Limit == nil {
		return nil
	}
	lim, err := ex.eval(sel.Limit, &rowEnv{outer: outer}, nil)
	if err != nil {
		return err
	}
	off := int64(0)
	if sel.Offset != nil {
		ov, err := ex.eval(sel.Offset, &rowEnv{outer: outer}, nil)
		if err != nil {
			return err
		}
		if ov.T == TypeInt {
			off = ov.I
		}
	}
	n, _ := lim.AsFloat()
	limit := int(n)
	start := int(min(max(off, 0), int64(len(res.Rows))))
	end := len(res.Rows)
	if limit >= 0 && limit < end-start {
		end = start + limit
	}
	res.Rows = res.Rows[start:end]
	return nil
}

func combineSetOp(op sqlast.SetOp, a, b [][]Value) [][]Value {
	switch op {
	case sqlast.SetUnion, sqlast.SetUnionAll:
		return append(a, b...)
	case sqlast.SetIntersect, sqlast.SetExcept:
		// A row of a is in b iff its key was numbered while indexing b.
		idx := keyIndex{hint: len(b)}
		for _, r := range b {
			idx.id(r)
		}
		inB := idx.n
		var out [][]Value
		for _, r := range a {
			if k, _ := idx.id(r); (k < inB) == (op == sqlast.SetIntersect) {
				out = append(out, r)
			}
		}
		return out
	}
	return a
}

// dedupeRows drops, in place, every row equal to an earlier one, keeping src
// (when set) parallel to the rows.
func dedupeRows(rows [][]Value, src []int32) ([][]Value, []int32) {
	idx := keyIndex{hint: len(rows)}
	kept := 0
	for i, r := range rows {
		if _, isNew := idx.id(r); !isNew {
			continue
		}
		rows[kept] = r
		if src != nil {
			src[kept] = src[i]
		}
		kept++
	}
	if src != nil {
		src = src[:kept]
	}
	return rows[:kept], src
}

// gather runs a SELECT arm's FROM, WHERE and GROUP BY stages and returns
// its candidates and header.
func (ex *Executor) gather(sel *sqlast.SelectStmt, outer *rowEnv) (candidates, []string, error) {
	envs, err := ex.fromRows(sel.From, outer)
	if err != nil {
		return candidates{}, nil, err
	}
	if sel.Where != nil {
		kept := envs[:0]
		for _, env := range envs {
			ok, err := ex.evalBool(sel.Where, env, nil)
			if err != nil {
				return candidates{}, nil, err
			}
			if ok {
				kept = append(kept, env)
			}
		}
		envs = kept
	}
	var sample *rowEnv
	if len(envs) > 0 {
		sample = envs[0]
	}
	cols := outputColumns(ex.db, sel, sample)
	if !aggregated(sel) {
		return candidates{envs: envs}, cols, nil
	}
	c, err := ex.groupRows(sel, envs)
	return c, cols, err
}

// project runs HAVING, the select list and DISTINCT over the candidates.
// With wantSrc it also returns, for each output row, the candidate it was
// projected from. The rows are carved, capacity-clipped, from one arena
// sized at the first row kept; slots is the arena's size in values. A
// select list of * and planned columns over one scanned table's rows is
// copied from the table instead of evaluated (tableCols).
func (ex *Executor) project(sel *sqlast.SelectStmt, c *candidates, wantSrc bool) (rows [][]Value, src []int32, slots int, err error) {
	var buf [32]int
	if cols, ok := c.tableCols(sel, buf[:]); ok {
		rows, src, slots = c.copyCols(cols, wantSrc)
		if sel.Distinct {
			rows, src = dedupeRows(rows, src)
		}
		return rows, src, slots, nil
	}
	n := c.len()
	var arena []Value
	var stars [][]int
	for i := 0; i < n; i++ {
		env, ctx := c.env(i), c.ctx(i)
		if sel.Having != nil {
			ok, err := ex.evalBool(sel.Having, env, ctx)
			if err != nil {
				return nil, nil, 0, err
			}
			if !ok {
				continue
			}
		}
		if rows == nil {
			// Sized once, at the first row kept: no row, no slice.
			stars = tableStars(sel, env)
			rows = make([][]Value, 0, n-i)
			if wantSrc {
				src = make([]int32, 0, n-i)
			}
		}
		// Only a star over a derived table whose rows differ in width can
		// make a later row wider than the first; it starts a new arena.
		if w := rowWidth(sel, env, stars); arena == nil || cap(arena)-len(arena) < w {
			arena = make([]Value, 0, w*(n-i))
			slots += cap(arena)
		}
		s := len(arena)
		if arena, err = ex.projectRow(arena, sel, env, ctx, stars); err != nil {
			return nil, nil, 0, err
		}
		rows = append(rows, arena[s:len(arena):len(arena)])
		if wantSrc {
			src = append(src, int32(i))
		}
	}
	if sel.Distinct {
		rows, src = dedupeRows(rows, src)
	}
	return rows, src, slots, nil
}

// tableCols resolves, for the candidates of a single-table,
// non-aggregated vectorized arm whose select items are all * or planned
// columns of the scanned table, the table column each output value copies,
// into dst. ok=false means the select list has to be evaluated (or is wider
// than dst).
func (c *candidates) tableCols(sel *sqlast.SelectStmt, dst []int) ([]int, bool) {
	v := c.vec
	if v == nil || v.vp.t2 != nil || v.vp.aggregated {
		return nil, false
	}
	w := 0
	for _, it := range sel.Items {
		switch {
		case it.Star:
			nc := len(v.vp.t1.Columns)
			if w+nc > len(dst) {
				return nil, false
			}
			for j := range nc {
				dst[w+j] = j
			}
			w += nc
		case it.TableStar != "":
			return nil, false
		default:
			ci, ok := v.slotCol(it.Expr)
			if !ok || w == len(dst) {
				return nil, false
			}
			dst[w] = ci
			w++
		}
	}
	return dst[:w], true
}

// copyCols projects the candidates by copying columns cols of their table
// rows, the values projectRow would append, into one exact-size arena;
// slots is its size. With wantSrc, src[i] = i.
func (c *candidates) copyCols(cols []int, wantSrc bool) (rows [][]Value, src []int32, slots int) {
	n, w := len(c.idx), len(cols)
	if n == 0 {
		return nil, nil, 0
	}
	table := c.vec.vp.t1.Rows
	arena := make([]Value, n*w)
	rows = make([][]Value, n)
	for i, r := range c.idx {
		row, out := table[r], arena[i*w:(i+1)*w:(i+1)*w]
		for j, col := range cols {
			out[j] = row[col]
		}
		rows[i] = out
	}
	if wantSrc {
		src = make([]int32, n)
		for i := range src {
			src[i] = int32(i)
		}
	}
	return rows, src, n * w
}

// groupRows partitions envs by the GROUP BY key into groups in first-seen
// order, each represented by its first row. With no GROUP BY the whole
// input is a single group (global aggregation).
func (ex *Executor) groupRows(sel *sqlast.SelectStmt, envs []*rowEnv) (candidates, error) {
	if len(sel.GroupBy) == 0 {
		rep := &rowEnv{}
		if len(envs) > 0 {
			rep = envs[0]
		}
		whole := parts[*rowEnv]{start: []int32{0, int32(len(envs))}, items: envs}
		return candidates{envs: []*rowEnv{rep}, groups: whole}, nil
	}
	var idx keyIndex
	key := make([]Value, len(sel.GroupBy))
	gid := make([]int32, len(envs))
	for i, env := range envs {
		for k, g := range sel.GroupBy {
			v, err := ex.eval(g, env, nil)
			if err != nil {
				return candidates{}, err
			}
			key[k] = v
		}
		gid[i], _ = idx.id(key)
	}
	groups := partition(envs, gid, int(idx.n))
	reps := make([]*rowEnv, groups.len())
	for g := range reps {
		reps[g] = groups.at(g)[0]
	}
	return candidates{envs: reps, groups: groups}, nil
}

// parts is a partition of items: group g is items[start[g]:start[g+1]].
type parts[T any] struct {
	start []int32
	items []T
}

// partition splits items into the ng groups their ids gid name, keeping
// input order within a group. The groups are windows of one backing slice
// with their offsets in another, so a partition costs two allocations
// whatever ng is.
func partition[T any](items []T, gid []int32, ng int) parts[T] {
	p := parts[T]{start: make([]int32, ng+1), items: make([]T, len(items))}
	// Count each group's members, turn the counts into window ends, then
	// fill each window from its end, which leaves start[g] at its beginning.
	for _, g := range gid {
		p.start[g]++
	}
	for g := 1; g <= ng; g++ {
		p.start[g] += p.start[g-1]
	}
	for i := len(items) - 1; i >= 0; i-- {
		g := gid[i]
		p.start[g]--
		p.items[p.start[g]] = items[i]
	}
	return p
}

// len is the number of groups.
func (p parts[T]) len() int { return len(p.start) - 1 }

// at returns group g, capacity-clipped so an append cannot write into the
// next group.
func (p parts[T]) at(g int) []T {
	lo, hi := p.start[g], p.start[g+1]
	return p.items[lo:hi:hi]
}

// tableStars resolves sel's t.* items against env's bindings, whose layout
// every candidate of an arm shares: entry k lists the bindings item k
// expands to, none when no binding carries its alias. It is nil when sel
// has no t.* item.
func tableStars(sel *sqlast.SelectStmt, env *rowEnv) [][]int {
	var stars [][]int
	for k, it := range sel.Items {
		if it.TableStar == "" {
			continue
		}
		if stars == nil {
			stars = make([][]int, len(sel.Items))
		}
		alias := strings.ToLower(it.TableStar)
		for j, b := range env.bindings {
			if b.alias == alias {
				stars[k] = append(stars[k], j)
			}
		}
	}
	return stars
}

// rowWidth is the number of values projectRow appends for env.
func rowWidth(sel *sqlast.SelectStmt, env *rowEnv, stars [][]int) int {
	w := 0
	for k, it := range sel.Items {
		switch {
		case it.Star:
			for _, b := range env.bindings {
				w += len(b.vals)
			}
		case it.TableStar != "":
			for _, j := range stars[k] {
				w += len(env.bindings[j].vals)
			}
		default:
			w++
		}
	}
	return w
}

// projectRow appends the select list evaluated for one row/group to row.
func (ex *Executor) projectRow(row []Value, sel *sqlast.SelectStmt, env *rowEnv, ctx *evalCtx, stars [][]int) ([]Value, error) {
	for k, it := range sel.Items {
		switch {
		case it.Star:
			for _, b := range env.bindings {
				row = append(row, b.vals...)
			}
		case it.TableStar != "":
			if len(stars[k]) == 0 {
				return nil, fmt.Errorf("unknown table %q in %s.*", it.TableStar, it.TableStar)
			}
			for _, j := range stars[k] {
				row = append(row, env.bindings[j].vals...)
			}
		default:
			v, err := ex.eval(it.Expr, env, ctx)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
	}
	return row, nil
}

// outputColumns derives the result header from the bindings of the first
// row that passed WHERE, if any, and from db's catalog otherwise.
func outputColumns(db *Database, sel *sqlast.SelectStmt, sample *rowEnv) []string {
	var cols []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			if sample != nil {
				for _, b := range sample.bindings {
					cols = append(cols, b.cols...)
				}
			} else if schema := starColumns(db, sel); schema != nil {
				cols = append(cols, schema...)
			} else {
				cols = append(cols, "*")
			}
		case it.TableStar != "":
			added := false
			if sample != nil {
				for _, b := range sample.bindings {
					if b.alias == strings.ToLower(it.TableStar) {
						cols = append(cols, b.cols...)
						added = true
					}
				}
			}
			if !added {
				if t, ok := db.Table(it.TableStar); ok {
					for _, c := range t.Columns {
						cols = append(cols, c.Name)
					}
				} else {
					cols = append(cols, it.TableStar+".*")
				}
			}
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
				cols = append(cols, cr.Column)
			} else {
				cols = append(cols, sqlast.PrintExpr(it.Expr))
			}
		}
	}
	return cols
}

// starColumns derives the SELECT * header from the catalog when the row set
// is empty (so headers stay stable regardless of data).
func starColumns(db *Database, sel *sqlast.SelectStmt) []string {
	if sel.From == nil || sel.From.First.Name == "" {
		return nil
	}
	var cols []string
	add := func(name string) bool {
		t, ok := db.Table(name)
		if !ok {
			return false
		}
		for _, c := range t.Columns {
			cols = append(cols, c.Name)
		}
		return true
	}
	if !add(sel.From.First.Name) {
		return nil
	}
	for _, j := range sel.From.Joins {
		if j.Source.Name == "" || !add(j.Source.Name) {
			return nil
		}
	}
	return cols
}
