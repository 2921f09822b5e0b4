package engine

import "fisql/internal/sqlast"

// This file is the run-time half of statement-invariant subquery execution.
// The planner (plan.go) classifies every scalar, EXISTS and IN subquery — and
// every derived table beneath one — as closed when no reference under it
// resolves outside it. A closed subquery's result cannot depend on the row
// being evaluated, so Run executes it on first evaluation and answers every
// later evaluation in the same Run from a memo. It executes as a sub-plan
// of the statement: with no outer scope, on the vectorized path when its
// own cached qualification allows (vec.go) and on the row executor
// otherwise, counted in ColumnarStats like the statement. Execution stays
// lazy: a subquery no row reaches never runs, so it can never raise an
// error the interpreter would not. An error is memoized like a result,
// because the columnar attempt may hit it, bail, and have the row executor
// reach the same subquery again.
//
// The memo lives for one top-level Run and is keyed by plan entry, so it
// exists only under a plan: Executor.Select never memoizes and remains the
// oracle the differential suites compare Run against.

// subMemo is one closed subquery's state within a Run.
type subMemo struct {
	done bool
	res  *Result
	err  error
	in   *inSet // IN candidates, built on the first IN evaluation
}

// memoFor returns sub's memo slot in the current Run, or nil when sub must
// execute on every evaluation (no plan, unclassified, or open — counting the
// execution that then follows).
func (ex *Executor) memoFor(sub *sqlast.SelectStmt) *subMemo {
	if ex.plan == nil {
		return nil
	}
	i, ok := ex.plan.subIdx[sub]
	if !ok {
		return nil
	}
	if ex.plan.subs[i].open != "" {
		ex.subStats.OpenExecs++
		return nil
	}
	if ex.memo == nil {
		ex.memo = make([]subMemo, len(ex.plan.subs))
	}
	return &ex.memo[i]
}

// closedSub reports whether sub is a closed subquery of the running plan.
func (ex *Executor) closedSub(sub *sqlast.SelectStmt) bool {
	i, ok := ex.plan.subIdx[sub]
	return ok && ex.plan.subs[i].open == ""
}

// subResult evaluates subquery sub for the row env. m is memoFor(sub). The
// returned Result may be shared with earlier and later evaluations: callers
// only read it (ORDER BY and LIMIT are applied by the tail that made it).
func (ex *Executor) subResult(sub *sqlast.SelectStmt, env *rowEnv, m *subMemo) (*Result, error) {
	if m == nil {
		return ex.execSelect(sub, env)
	}
	if m.done {
		ex.subStats.MemoHits++
		return m.res, m.err
	}
	ex.subStats.ClosedExecs++
	// A closed subquery never reads env, so it runs without an outer scope,
	// as a sub-plan of the statement: it shares the statement's column
	// slots, subqueries and memo, and keeps its own columnar qualification.
	m.res, m.err = ex.runSelect(sub, &ex.plan.subs[ex.plan.subIdx[sub]].vec)
	m.done = true
	return m.res, m.err
}

// SubqueryStats counts subquery executions under Executor.Run.
type SubqueryStats struct {
	// ClosedExecs is how many times a closed subquery actually executed: at
	// most once per closed subquery per Run.
	ClosedExecs int64
	// MemoHits is how many evaluations of a closed subquery were answered
	// from its memo.
	MemoHits int64
	// OpenExecs is how many times an open (correlated or undecidable)
	// subquery executed: once per evaluation.
	OpenExecs int64
}

// SubqueryStats reports the database's cumulative subquery execution
// counts. Counting happens in Executor.Run; the plan-less Select path
// classifies nothing and is not counted.
func (db *Database) SubqueryStats() SubqueryStats {
	return SubqueryStats{
		ClosedExecs: db.subClosedExecs.Load(),
		MemoHits:    db.subMemoHits.Load(),
		OpenExecs:   db.subOpenExecs.Load(),
	}
}

// endRun drops the memo and publishes the Run's subquery and sort counts.
func (ex *Executor) endRun() {
	ex.memo = nil
	if s := ex.subStats; s != (SubqueryStats{}) {
		ex.db.subClosedExecs.Add(s.ClosedExecs)
		ex.db.subMemoHits.Add(s.MemoHits)
		ex.db.subOpenExecs.Add(s.OpenExecs)
		ex.subStats = SubqueryStats{}
	}
	if s := ex.orderStats; s != (OrderStats{}) {
		ex.db.orderTyped.Add(s.TypedSorts)
		ex.db.orderGeneric.Add(s.GenericSorts)
		ex.db.orderRows.Add(s.Rows)
		ex.orderStats = OrderStats{}
	}
}

// ----------------------------------------------------------------------------
// IN candidate sets

// inSet is the candidate column of a closed IN subquery, kept for the Run.
type inSet struct {
	rows    [][]Value // the subquery's one-column result rows
	sawNull bool
	dom     keyDomain
	keys    eqTable // the candidates when dom is hashable
}

func newInSet(rows [][]Value) *inSet {
	s := &inSet{rows: rows}
	for _, r := range rows {
		s.dom = s.dom.with(r[0])
		if r[0].IsNull() {
			s.sawNull = true
		}
	}
	if s.dom.hashable() {
		s.keys = newEqTable(s.dom, len(rows), func(i int) Value { return rows[i][0] })
	}
	return s
}

// contains reports whether non-NULL v Equal-matches a candidate, by hash
// probe when v lies in the candidates' homogeneous domain and by the linear
// Equal scan otherwise.
func (s *inSet) contains(v Value) bool {
	if s.dom == domNone {
		return false
	}
	if s.dom.hashable() && s.dom.with(v) == s.dom {
		return len(s.keys.match(v)) > 0
	}
	for _, r := range s.rows {
		if eq, known := Equal(v, r[0]); known && eq {
			return true
		}
	}
	return false
}
