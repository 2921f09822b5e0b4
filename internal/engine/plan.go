package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// This file implements the compile-once half of the engine: a planning pass
// that walks a parsed SELECT exactly once per (statement, database) and
// resolves every ColumnRef to a fixed (scope depth, binding, column) slot.
// Execution then reads values by index instead of re-scanning binding and
// column names (strings.ToLower/EqualFold) for every row.
//
// Planning is deliberately *semantics-free*: a reference the planner cannot
// resolve — or resolves to a problem (unknown column, ambiguity) — is left
// out of the slot map and recorded as a diagnostic. At runtime such
// references fall back to the dynamic rowEnv.lookup path, which errors (or
// doesn't — an unknown column in a WHERE clause over an empty table is never
// evaluated) at exactly the moment the seed interpreter would. This keeps
// planned execution result-identical to interpretation while still reporting
// unknown/ambiguous columns before execution via Plan.Diagnostics.

// colSlot addresses one column value inside a rowEnv chain: walk `depth`
// levels up the outer chain, then index bindings[binding].vals[col].
type colSlot struct {
	depth   int
	binding int
	col     int
}

// Plan is a SELECT statement resolved against one database's schema. A Plan
// is immutable after PlanSelect returns and safe for concurrent use by any
// number of Executors; callers must not mutate Stmt. Executors themselves
// remain single-goroutine — create one per goroutine and share the Plan.
type Plan struct {
	// Stmt is the planned statement. Shared, read-only.
	Stmt *sqlast.SelectStmt

	// Aux caches derived read-only data a higher layer computes from this
	// plan exactly once (the assistant stores its rendered presentation —
	// reformulation, explanation, highlight spans — here). Tying the cache
	// to the plan gives it the plan cache's lifetime: LRU eviction drops
	// both together, so no side table can leak. Opaque to the engine.
	Aux atomic.Value

	db    *Database
	cols  map[*sqlast.ColumnRef]colSlot
	diags []string

	// subs lists the statement's classified subqueries in source-walk order
	// and subIdx finds a subquery's entry (and per-Run memo slot) by node.
	// Both are nil for a statement without subqueries.
	subs   []planSub
	subIdx map[*sqlast.SelectStmt]int

	// vec lazily caches the statement's columnar qualification (see vec.go):
	// built on first Run, shared by every executor running this plan. The
	// build is deterministic, so a racing double-build stores equal values.
	vec atomic.Pointer[vecPlan]
}

// Diagnostics returns the column-resolution problems found at plan time
// (unknown tables, unknown columns, ambiguous references), in source-walk
// order. A non-empty list does not mean execution will fail: the interpreter
// only errors when the offending expression is actually evaluated, and the
// planned path preserves that behavior exactly.
func (p *Plan) Diagnostics() []string {
	out := make([]string, len(p.diags))
	copy(out, p.diags)
	return out
}

// planSub is one classified subquery: a scalar, EXISTS or IN subquery, or a
// derived table beneath one of those (a top-level derived table runs once
// per statement anyway and is not classified). A subquery is closed when
// every column reference beneath it resolves to a scope inside it: its
// result cannot depend on the outer row, so Run executes it once per
// statement. open holds the reason it is not.
type planSub struct {
	sel  *sqlast.SelectStmt
	open string            // "" when closed
	ref  *sqlast.ColumnRef // the outer-row reference when open is openCorrelated
	// vec lazily caches a closed subquery's columnar qualification, as
	// Plan.vec does the statement's: the sub-plan its executions run on.
	vec atomic.Pointer[vecPlan]
}

// reason renders why the subquery is open ("" when closed).
func (s *planSub) reason() string {
	if s.open == openCorrelated {
		return openCorrelated + ": " + sqlast.PrintExpr(s.ref)
	}
	return s.open
}

// SubqueryInfo describes how one subquery of a planned statement executes.
type SubqueryInfo struct {
	// SQL is the subquery's printed text.
	SQL string
	// Closed reports that the subquery is statement-invariant: Run executes
	// it at most once and answers every later evaluation from its memo.
	Closed bool
	// Reason says why an open subquery runs once per evaluation:
	// "correlated: <ref>", "unresolved reference", "opaque source" or
	// "compound ORDER BY". Empty when Closed.
	Reason string
}

// Subqueries reports the plan-time classification of every scalar, EXISTS
// and IN subquery (and every derived table nested beneath one) in
// source-walk order, outer before inner.
func (p *Plan) Subqueries() []SubqueryInfo {
	out := make([]SubqueryInfo, len(p.subs))
	for i := range p.subs {
		s := &p.subs[i]
		out[i] = SubqueryInfo{SQL: sqlast.Print(s.sel), Closed: s.open == "", Reason: s.reason()}
	}
	return out
}

// Prepare parses and plans a SELECT against db.
func Prepare(db *Database, sql string) (*Plan, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return PlanSelect(db, sel), nil
}

// PlanSelect plans a parsed SELECT against db. It never fails: resolution
// problems become Diagnostics and unresolved references simply keep the
// dynamic lookup path at runtime.
func PlanSelect(db *Database, sel *sqlast.SelectStmt) *Plan {
	pl := &planner{db: db, cols: make(map[*sqlast.ColumnRef]colSlot)}
	pl.selectStmt(sel, nil)
	return &Plan{Stmt: sel, db: db, cols: pl.cols, diags: pl.diags, subs: pl.subs, subIdx: pl.subIdx}
}

// ----------------------------------------------------------------------------
// Planner

// planBinding mirrors one runtime binding: the alias it answers to and its
// column names. A binding is opaque when its header cannot be derived
// statically (see selectHeader); references through it stay dynamic.
type planBinding struct {
	alias  string
	cols   []string
	opaque bool
}

// planScope mirrors the binding structure of a rowEnv at plan time. level
// is the scope's distance from the end of its outer chain (0 = no outer).
type planScope struct {
	bindings []planBinding
	outer    *planScope
	level    int
}

func newScope(outer *planScope) *planScope {
	return &planScope{outer: outer, level: levelUnder(outer)}
}

// levelUnder is the level of a scope whose outer chain is outer.
func levelUnder(outer *planScope) int {
	if outer == nil {
		return 0
	}
	return outer.level + 1
}

// subFrame is a subquery whose body the planner is currently walking: its
// entry in planner.subs and the level of its outermost scope. A reference
// resolving to a scope below that level leaves the subquery.
type subFrame struct {
	idx   int
	level int
}

// Reasons a subquery stays open.
const (
	openCorrelated = "correlated"
	openUnresolved = "unresolved reference"
	openOpaque     = "opaque source"
	openCompound   = "compound ORDER BY"
)

type planner struct {
	db    *Database
	cols  map[*sqlast.ColumnRef]colSlot
	diags []string

	subs   []planSub
	subIdx map[*sqlast.SelectStmt]int
	frames []subFrame // enclosing subqueries, outermost first
}

func (p *planner) diag(msg string) { p.diags = append(p.diags, msg) }

// subquery plans sub as a classified subquery whose outer chain is outer.
func (p *planner) subquery(sub *sqlast.SelectStmt, outer *planScope) {
	if p.subIdx == nil {
		p.subIdx = make(map[*sqlast.SelectStmt]int)
	}
	idx := len(p.subs)
	p.subs = append(p.subs, planSub{sel: sub})
	p.subIdx[sub] = idx
	p.frames = append(p.frames, subFrame{idx: idx, level: levelUnder(outer)})
	p.selectStmt(sub, outer)
	p.frames = p.frames[:len(p.frames)-1]
}

// escape records that something beneath every enclosing subquery whose
// outermost scope lies above level keeps it open. The first reason found in
// walk order is the one reported.
func (p *planner) escape(level int, reason string, ref *sqlast.ColumnRef) {
	for i := len(p.frames) - 1; i >= 0 && p.frames[i].level > level; i-- {
		if s := &p.subs[p.frames[i].idx]; s.open == "" {
			s.open, s.ref = reason, ref
		}
	}
}

// selectStmt plans a full SELECT including compound arms, ORDER BY and
// LIMIT/OFFSET. outer is the enclosing query's scope (nil at top level).
func (p *planner) selectStmt(sel *sqlast.SelectStmt, outer *planScope) {
	scope := p.selectCore(sel, outer)
	for c := sel.Compound; c != nil; c = c.Right.Compound {
		p.selectCore(c.Right, outer)
	}
	// ORDER BY keys resolve leniently (no diagnostics): output-column and
	// alias references are matched by orderRows before eval is ever called,
	// so an unresolved name here is usually not an error. For compound
	// selects the keys are skipped entirely: orderRows only matches them
	// against the output columns and never evaluates them.
	if sel.Compound == nil {
		for _, ob := range sel.OrderBy {
			p.expr(ob.Expr, scope, false)
		}
	} else {
		for _, ob := range sel.OrderBy {
			// An unplanned key keeps the enclosing subqueries open, which is
			// conservative. Ordinals never evaluate.
			if _, lit := ob.Expr.(*sqlast.Literal); !lit {
				p.escape(-1, openCompound, nil)
			}
		}
	}
	// LIMIT/OFFSET evaluate in an empty scope chained to outer
	// (execSelect uses &rowEnv{outer: outer}).
	limitScope := newScope(outer)
	p.expr(sel.Limit, limitScope, false)
	p.expr(sel.Offset, limitScope, false)
}

// selectCore plans one SELECT arm (FROM/WHERE/GROUP BY/HAVING/items) and
// returns its row scope.
func (p *planner) selectCore(sel *sqlast.SelectStmt, outer *planScope) *planScope {
	scope := newScope(outer)
	if sel.From != nil {
		scope.bindings = append(scope.bindings, p.sourceBinding(sel.From.First, outer))
		for i := range sel.From.Joins {
			j := &sel.From.Joins[i]
			scope.bindings = append(scope.bindings, p.sourceBinding(j.Source, outer))
			// The ON clause sees exactly the sources joined so far — the
			// scope currently holds that prefix, and slot indices into it
			// stay valid as later bindings are appended.
			p.expr(j.On, scope, true)
		}
	}
	for _, it := range sel.Items {
		p.expr(it.Expr, scope, true)
	}
	p.expr(sel.Where, scope, true)
	for _, g := range sel.GroupBy {
		p.expr(g, scope, true)
	}
	p.expr(sel.Having, scope, true)
	return scope
}

// sourceBinding plans one table source and returns its binding.
func (p *planner) sourceBinding(ts sqlast.TableSource, outer *planScope) planBinding {
	if ts.Sub != nil {
		if len(p.frames) > 0 {
			p.subquery(ts.Sub, outer)
		} else {
			p.selectStmt(ts.Sub, outer)
		}
		alias := strings.ToLower(ts.Alias)
		if alias == "" {
			alias = "subquery"
		}
		cols, stable := p.selectHeader(ts.Sub)
		return planBinding{alias: alias, cols: cols, opaque: !stable}
	}
	alias := strings.ToLower(ts.Alias)
	if alias == "" {
		alias = strings.ToLower(ts.Name)
	}
	t, ok := p.db.Table(ts.Name)
	if !ok {
		p.diag(fmt.Sprintf("unknown table %q", ts.Name))
		return planBinding{alias: alias, opaque: true}
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	return planBinding{alias: alias, cols: cols}
}

// selectHeader derives the output header of a derived table statically. The
// header must be identical whether or not the subquery produces rows
// (outputColumns expands * from a sample row env when it has one and falls
// back to the catalog when it doesn't), so star items are only considered
// stable when both paths provably agree; anything else makes the binding
// opaque and keeps lookups through it dynamic.
func (p *planner) selectHeader(sel *sqlast.SelectStmt) ([]string, bool) {
	var srcs []sqlast.TableSource
	if sel.From != nil {
		srcs = append(srcs, sel.From.First)
		for _, j := range sel.From.Joins {
			srcs = append(srcs, j.Source)
		}
	}
	catalogOnly := true // every source is a named catalog table
	for _, ts := range srcs {
		if ts.Sub != nil || ts.Name == "" {
			catalogOnly = false
			break
		}
		if _, ok := p.db.Table(ts.Name); !ok {
			catalogOnly = false
			break
		}
	}
	var cols []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			if sel.From == nil {
				continue // SELECT * with no FROM projects no columns
			}
			if !catalogOnly {
				return nil, false
			}
			for _, ts := range srcs {
				t, _ := p.db.Table(ts.Name)
				for _, c := range t.Columns {
					cols = append(cols, c.Name)
				}
			}
		case it.TableStar != "":
			// Stable only when the empty-input fallback (catalog lookup by
			// the star's name) matches the sample-env expansion: exactly one
			// source answers to the alias, and it is the named table itself.
			want := strings.ToLower(it.TableStar)
			matches := 0
			var mt *Table
			for _, ts := range srcs {
				if ts.Sub != nil {
					return nil, false
				}
				alias := strings.ToLower(ts.Alias)
				if alias == "" {
					alias = strings.ToLower(ts.Name)
				}
				if alias != want {
					continue
				}
				matches++
				if !strings.EqualFold(ts.Name, it.TableStar) {
					return nil, false
				}
				mt, _ = p.db.Table(ts.Name)
			}
			if matches != 1 || mt == nil {
				return nil, false
			}
			for _, c := range mt.Columns {
				cols = append(cols, c.Name)
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
	return cols, true
}

// expr walks an expression, resolving ColumnRefs in scope and descending
// into subqueries with the scope as their outer chain. strict controls
// whether resolution failures are reported as diagnostics.
func (p *planner) expr(e sqlast.Expr, scope *planScope, strict bool) {
	switch x := e.(type) {
	case nil:
	case *sqlast.ColumnRef:
		p.resolve(x, scope, strict)
	case *sqlast.Literal:
	case *sqlast.Binary:
		p.expr(x.L, scope, strict)
		p.expr(x.R, scope, strict)
	case *sqlast.Unary:
		p.expr(x.X, scope, strict)
	case *sqlast.FuncCall:
		for _, a := range x.Args {
			p.expr(a, scope, strict)
		}
	case *sqlast.InExpr:
		p.expr(x.X, scope, strict)
		for _, v := range x.List {
			p.expr(v, scope, strict)
		}
		if x.Sub != nil {
			p.subquery(x.Sub, scope)
		}
	case *sqlast.BetweenExpr:
		p.expr(x.X, scope, strict)
		p.expr(x.Lo, scope, strict)
		p.expr(x.Hi, scope, strict)
	case *sqlast.LikeExpr:
		p.expr(x.X, scope, strict)
		p.expr(x.Pattern, scope, strict)
	case *sqlast.IsNullExpr:
		p.expr(x.X, scope, strict)
	case *sqlast.ExistsExpr:
		p.subquery(x.Sub, scope)
	case *sqlast.SubqueryExpr:
		p.subquery(x.Sub, scope)
	case *sqlast.CaseExpr:
		for _, w := range x.Whens {
			p.expr(w.When, scope, strict)
			p.expr(w.Then, scope, strict)
		}
		p.expr(x.Else, scope, strict)
	}
}

// resolve mirrors rowEnv.lookup structurally: same scope walk, same
// first-alias-match rule for qualified references, same cross-binding
// ambiguity rule for bare ones. Anything it cannot decide statically (an
// opaque binding in the way) is left to the dynamic path with no diagnostic.
// Either way the enclosing subqueries learn what the reference means for
// them: the scope it resolved to, or that run time may look anywhere.
func (p *planner) resolve(x *sqlast.ColumnRef, scope *planScope, strict bool) {
	if s, open := p.resolveIn(x, scope, strict); s == nil {
		p.escape(-1, open, nil)
	} else {
		p.escape(s.level, openCorrelated, x)
	}
}

// resolveIn returns the scope x resolved to after recording its slot, or
// nil and why a subquery containing x cannot be closed.
func (p *planner) resolveIn(x *sqlast.ColumnRef, scope *planScope, strict bool) (*planScope, string) {
	depth := 0
	for s := scope; s != nil; s, depth = s.outer, depth+1 {
		if x.Table != "" {
			want := strings.ToLower(x.Table)
			for bi := range s.bindings {
				b := &s.bindings[bi]
				if b.alias != want {
					continue
				}
				// lookup stops at the first binding answering to the alias.
				if b.opaque {
					return nil, openOpaque
				}
				for ci, c := range b.cols {
					if strings.EqualFold(c, x.Column) {
						p.cols[x] = colSlot{depth: depth, binding: bi, col: ci}
						return s, ""
					}
				}
				if strict {
					p.diag(fmt.Sprintf("column %s.%s not found", x.Table, x.Column))
				}
				return nil, openUnresolved
			}
			continue // alias might belong to an outer scope
		}
		count := 0
		hasOpaque := false
		var slot colSlot
		for bi := range s.bindings {
			b := &s.bindings[bi]
			if b.opaque {
				hasOpaque = true
				continue
			}
			for ci, c := range b.cols {
				if strings.EqualFold(c, x.Column) {
					count++
					if count == 1 {
						slot = colSlot{depth: depth, binding: bi, col: ci}
					}
				}
			}
		}
		if count > 1 {
			if strict {
				p.diag(fmt.Sprintf("ambiguous column %q", x.Column))
			}
			return nil, openUnresolved
		}
		if hasOpaque {
			// The opaque binding may hold the column too (ambiguity) or hold
			// it when nothing else does; either way only runtime can tell.
			return nil, openOpaque
		}
		if count == 1 {
			p.cols[x] = slot
			return s, ""
		}
		// Not present in this scope; fall through to the outer one.
	}
	if strict {
		if x.Table != "" {
			p.diag(fmt.Sprintf("unknown table or alias %q", x.Table))
		} else {
			p.diag(fmt.Sprintf("unknown column %q", x.Column))
		}
	}
	return nil, openUnresolved
}
