// Package assistant implements the AEP-Assistant surface of the paper
// (§3.2): for a user question it produces the four outputs of Figure 4 —
// the execution result, a reformulation showing the model's understanding,
// a step-by-step natural-language explanation, and the SQL itself
// ("Show Source").
package assistant

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"fisql/internal/dataset"
	"fisql/internal/engine"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/prompt"
	"fisql/internal/rag"
	"fisql/internal/sqlast"
)

// Assistant wires the NL2SQL model, the retrieval store and the execution
// engine together. An Assistant is safe for concurrent use as long as its
// Client is: its own fields are read-only configuration, every call creates
// its own engine.Executor, and the Cache is itself concurrency-safe.
type Assistant struct {
	Client llm.Client
	DS     *dataset.Dataset
	Store  *rag.Store
	// K is the number of retrieved demonstrations (0 disables retrieval,
	// yielding the zero-shot prompt of Figure 1).
	K int
	// Cache, when set, serves parsed+planned queries so repeated Answer
	// calls on the same SQL (feedback rounds, concurrent sessions) skip the
	// parse and planning passes. Nil prepares a fresh plan per call; either
	// way the SQL runs on the planned engine, so the Answer is the same.
	Cache *engine.Cache
	// Memo, when set, serves whole Answers for repeated Ask calls on the
	// same (db, question) across sessions, collapsing concurrent identical
	// misses into one pipeline run (see memo.go). Only sound when Client is
	// deterministic; nil disables memoization.
	Memo *AnswerMemo
}

// Answer is the Assistant's response to one question. An Answer is
// immutable once returned: memoized answers are shared across sessions,
// so consumers must only read it.
type Answer struct {
	SQL           string
	Result        *engine.Result
	Reformulation string
	Explanation   []string
	// Spans maps the displayed SQL's byte ranges onto clauses, enabling a
	// front-end to implement highlight selection (paper Figure 9). Empty
	// when the SQL did not parse.
	Spans []sqlast.Span
	// ExecErr is non-nil when the generated SQL failed to run; Result is
	// nil in that case (the UI shows "We found nothing for your query").
	ExecErr error

	// wire caches one transport encoding of this Answer (the REST server's
	// stage payloads and JSON body). Answers are immutable, so any encoding
	// is too; encoding once per Answer lets every turn served by it, memo
	// hits and replayed turns included, publish the cached bytes instead of
	// re-serializing the result rows. Opaque to this package.
	wire atomic.Value
}

// Wire returns the cached transport encoding, or nil if none was set.
func (a *Answer) Wire() any { return a.wire.Load() }

// SetWire caches a transport encoding. Every call must pass the same
// concrete type, and the caller must not mutate w after the call.
// Concurrent setters race benignly: every encoding of an immutable Answer
// is identical, so either write may win.
func (a *Answer) SetWire(w any) { a.wire.Store(w) }

// presentation is the plan-derived half of an Answer — everything except
// the execution result. It is a pure function of the planned statement and
// its SQL text, so it is computed once per cached plan and hung off
// engine.Plan.Aux (sharing the plan cache's LRU lifetime).
type presentation struct {
	reformulation string
	explanation   []string
	spans         []sqlast.Span
}

// Ask runs the full pipeline for a question against one database. With a
// Memo configured, repeated questions are served from it and concurrent
// identical misses compute once.
func (a *Assistant) Ask(ctx context.Context, db, question string) (*Answer, error) {
	if a.Memo == nil {
		return a.ask(ctx, db, question)
	}
	return a.Memo.Do(ctx, db, question, func() (*Answer, error) {
		return a.ask(ctx, db, question)
	})
}

func (a *Assistant) ask(ctx context.Context, db, question string) (*Answer, error) {
	sql, err := a.GenerateSQL(ctx, db, question)
	if err != nil {
		return nil, err
	}
	if st := StreamFrom(ctx); st != nil {
		st.OnSQL(sql)
	}
	return a.Answer(ctx, db, sql), nil
}

// demoPool recycles the per-Ask demonstration slice: its length is bounded
// by K (single digits), so one pooled backing array serves every request.
var demoPool = sync.Pool{New: func() any {
	s := make([]prompt.Demo, 0, 16)
	return &s
}}

// GenerateSQL produces SQL for the question (retrieval-augmented when K>0).
// When the context carries an obs.Trace, the retrieve/prompt/llm stages are
// timed onto it (a context without one costs a nil check per stage).
func (a *Assistant) GenerateSQL(ctx context.Context, db, question string) (string, error) {
	s, ok := a.DS.Schemas[db]
	if !ok {
		return "", fmt.Errorf("unknown database %q", db)
	}
	tr := obs.TraceFrom(ctx)
	demosp := demoPool.Get().(*[]prompt.Demo)
	demos := (*demosp)[:0]
	if a.K > 0 && a.Store != nil {
		sp := tr.Start(obs.StageRetrieve)
		for _, hit := range a.Store.Search(question, db, a.K) {
			demos = append(demos, prompt.Demo{Question: hit.Demo.Question, SQL: hit.Demo.SQL})
		}
		sp.End()
	}
	sp := tr.Start(obs.StagePrompt)
	p := prompt.NL2SQL(s, demos, question)
	sp.End()
	*demosp = demos[:0]
	demoPool.Put(demosp)
	sp = tr.Start(obs.StageLLM)
	resp, err := a.Client.Complete(ctx, llm.Request{Prompt: p})
	sp.End()
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(resp.Text), nil
}

// Answer executes the SQL and assembles the four user-facing outputs. With
// a Cache configured, the parse and plan are served from it and only
// execution runs per call. With a Memo configured, the finished Answer is
// additionally shared per (db, sql) across sessions — sound because the
// assembly is a pure function of its arguments over immutable databases.
// An obs.Trace carried by ctx times the plan/execute/render stages.
func (a *Assistant) Answer(ctx context.Context, db, sql string) *Answer {
	if a.Memo == nil {
		return a.answer(ctx, db, sql)
	}
	// The wait context stays Background on purpose: fn never errors, so the
	// only DoSQL error is a canceled waiter — which would surface here as a
	// nil Answer to callers that cannot express one. The closure still sees
	// ctx, so a trace records the stages when this call computes the miss.
	ans, _ := a.Memo.DoSQL(context.Background(), db, sql, func() (*Answer, error) {
		return a.answer(ctx, db, sql), nil
	})
	return ans
}

func (a *Assistant) answer(ctx context.Context, db, sql string) *Answer {
	tr := obs.TraceFrom(ctx)
	stream := StreamFrom(ctx)
	ans := &Answer{SQL: sql}
	dbase := a.DS.DBs[db]
	sp := tr.Start(obs.StagePlan)
	var plan *engine.Plan
	var err error
	if a.Cache != nil {
		plan, err = a.Cache.Plan(dbase, sql)
	} else {
		plan, err = engine.Prepare(dbase, sql)
	}
	sp.End()
	if err != nil {
		ans.ExecErr = err
		if stream != nil {
			stream.OnResult(nil, err)
		}
		return ans
	}
	sp = tr.Start(obs.StageRender)
	// The presentation depends only on the planned statement and its SQL
	// text — both fixed per plan-cache entry — so compute it once per plan.
	// Feedback rounds converging on the same corrected SQL skip the
	// reformulate/explain/re-print passes entirely.
	pres, ok := plan.Aux.Load().(*presentation)
	if !ok {
		pres = buildPresentation(plan.Stmt, sql)
		plan.Aux.Store(pres)
	}
	ans.Reformulation = pres.reformulation
	ans.Explanation = pres.explanation
	ans.Spans = pres.spans
	sp.End()
	if stream != nil {
		stream.OnExplanation(ans.Reformulation, ans.Explanation, ans.Spans)
	}
	sp = tr.Start(obs.StageExecute)
	res, err := engine.NewExecutor(dbase).Run(plan)
	sp.End()
	if err != nil {
		ans.ExecErr = err
		if stream != nil {
			stream.OnResult(nil, err)
		}
		return ans
	}
	ans.Result = res
	if stream != nil {
		stream.OnResult(res, nil)
	}
	return ans
}

// buildPresentation renders the non-result outputs for a parsed statement.
func buildPresentation(sel *sqlast.SelectStmt, sql string) *presentation {
	pres := &presentation{
		reformulation: Reformulate(sel),
		explanation:   Explain(sel),
	}
	// Re-print to guarantee the spans index into the exact displayed text.
	printed, spans := sqlast.PrintWithSpans(sel)
	if printed == sql {
		pres.spans = spans
	}
	return pres
}

// ----------------------------------------------------------------------------
// Reformulation and explanation (Figure 4's (b) and (c) outputs)

// Reformulate renders the Assistant's understanding of the query as one
// sentence ("Finds the count of segments created in January 2023.").
func Reformulate(sel *sqlast.SelectStmt) string {
	var what []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			what = append(what, "all columns")
		case it.TableStar != "":
			what = append(what, "all columns of "+it.TableStar)
		default:
			what = append(what, describeExpr(it.Expr))
		}
	}
	var sb strings.Builder
	sb.WriteString("Finds ")
	sb.WriteString(strings.Join(what, " and "))
	if sel.From != nil && sel.From.First.Name != "" {
		sb.WriteString(" from ")
		sb.WriteString(humanize(sel.From.First.Name))
	}
	if sel.Where != nil {
		sb.WriteString(" where ")
		sb.WriteString(describeCond(sel.Where))
	}
	sb.WriteString(".")
	return sb.String()
}

// Explain renders the step-by-step procedure description of Figure 4.
func Explain(sel *sqlast.SelectStmt) []string {
	var steps []string
	if sel.From != nil && sel.From.First.Name != "" {
		steps = append(steps, fmt.Sprintf("First, consider all the %s.", humanize(sel.From.First.Name)))
		for _, j := range sel.From.Joins {
			if j.Source.Name != "" {
				steps = append(steps, fmt.Sprintf("Then, match them with their %s.", humanize(j.Source.Name)))
			}
		}
	}
	if sel.Where != nil {
		steps = append(steps, fmt.Sprintf("Then, keep only those where %s.", describeCond(sel.Where)))
	}
	if len(sel.GroupBy) > 0 {
		var keys []string
		for _, g := range sel.GroupBy {
			keys = append(keys, describeExpr(g))
		}
		steps = append(steps, fmt.Sprintf("Then, group them by %s.", strings.Join(keys, ", ")))
	}
	if sel.Having != nil {
		steps = append(steps, fmt.Sprintf("Then, keep only groups where %s.", describeCond(sel.Having)))
	}
	if len(sel.OrderBy) > 0 {
		var keys []string
		for _, o := range sel.OrderBy {
			dir := "ascending"
			if o.Desc {
				dir = "descending"
			}
			keys = append(keys, fmt.Sprintf("%s (%s)", describeExpr(o.Expr), dir))
		}
		steps = append(steps, fmt.Sprintf("Then, sort the results by %s.", strings.Join(keys, ", ")))
	}
	final := "Finally, return "
	var what []string
	for _, it := range sel.Items {
		switch {
		case it.Star:
			what = append(what, "every column")
		case it.TableStar != "":
			what = append(what, "every column of "+it.TableStar)
		default:
			what = append(what, describeExpr(it.Expr))
		}
	}
	steps = append(steps, final+strings.Join(what, " and ")+".")
	if sel.Limit != nil {
		steps = append(steps, fmt.Sprintf("Only the first %s rows are returned.", sqlast.PrintExpr(sel.Limit)))
	}
	return steps
}

var aggPhrases = map[string]string{
	"COUNT": "the count of", "SUM": "the total", "AVG": "the average",
	"MIN": "the minimum", "MAX": "the maximum",
}

func describeExpr(e sqlast.Expr) string {
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		return "the " + humanize(x.Column)
	case *sqlast.FuncCall:
		p, ok := aggPhrases[x.Name]
		if !ok {
			return sqlast.PrintExpr(e)
		}
		if x.Star {
			return p + " rows"
		}
		if len(x.Args) == 1 {
			return p + " " + strings.TrimPrefix(describeExpr(x.Args[0]), "the ")
		}
		return sqlast.PrintExpr(e)
	case *sqlast.Literal:
		return sqlast.PrintExpr(e)
	default:
		return sqlast.PrintExpr(e)
	}
}

var cmpWords = map[sqlast.BinaryOp]string{
	sqlast.OpEq: "is", sqlast.OpNeq: "is not", sqlast.OpLt: "is less than",
	sqlast.OpLte: "is at most", sqlast.OpGt: "is greater than",
	sqlast.OpGte: "is at least",
}

func describeCond(e sqlast.Expr) string {
	switch x := e.(type) {
	case *sqlast.Binary:
		switch x.Op {
		case sqlast.OpAnd:
			return describeCond(x.L) + " and " + describeCond(x.R)
		case sqlast.OpOr:
			return describeCond(x.L) + " or " + describeCond(x.R)
		default:
			if w, ok := cmpWords[x.Op]; ok {
				return describeExpr(x.L) + " " + w + " " + describeExpr(x.R)
			}
		}
	case *sqlast.InExpr:
		if x.Not {
			return describeExpr(x.X) + " is not one of the listed values"
		}
		return describeExpr(x.X) + " is one of the listed values"
	case *sqlast.BetweenExpr:
		return fmt.Sprintf("%s is between %s and %s", describeExpr(x.X), describeExpr(x.Lo), describeExpr(x.Hi))
	case *sqlast.LikeExpr:
		return describeExpr(x.X) + " matches " + describeExpr(x.Pattern)
	case *sqlast.IsNullExpr:
		if x.Not {
			return describeExpr(x.X) + " is present"
		}
		return describeExpr(x.X) + " is missing"
	}
	return sqlast.PrintExpr(e)
}

// humanize renders an identifier as words.
func humanize(ident string) string {
	return strings.ReplaceAll(ident, "_", " ")
}
