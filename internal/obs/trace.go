package obs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// Stage identifies one pipeline stage of the assistant request path or the
// feedback-correction path. Stage durations are recorded per request by a
// Trace and folded into per-stage latency histograms.
type Stage int

const (
	// StageRetrieve is the RAG demonstration search.
	StageRetrieve Stage = iota
	// StagePrompt is prompt assembly (NL2SQL, repair).
	StagePrompt
	// StageLLM is the generation chat-completion call.
	StageLLM
	// StagePlan is SQL parse + planning (or the plan-cache lookup).
	StagePlan
	// StageExecute is query execution.
	StageExecute
	// StageRender is answer presentation + wire encoding.
	StageRender
	// StageRoute is feedback-type identification (the routing LLM call).
	StageRoute
	// StageRepair is the feedback re-prompt chat-completion call.
	StageRepair

	// NumStages is the number of traced stages.
	NumStages
)

var stageNames = [NumStages]string{
	"retrieve", "prompt", "llm", "plan", "execute", "render", "route", "repair",
}

// String returns the stage's short name ("llm", "execute", ...).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// MetricName returns the stage histogram's registry name
// ("fisql_stage_llm_seconds", ...).
func (s Stage) MetricName() string { return "fisql_stage_" + s.String() + "_seconds" }

// Metrics bundles a registry with the pre-resolved per-stage latency
// histograms and a trace pool. It is the handle instrumented servers and
// harnesses hold; a nil *Metrics disables all tracing at zero cost
// (StartTrace returns a nil Trace whose every method is a no-op). Safe for
// concurrent use.
type Metrics struct {
	Registry *Registry
	stages   [NumStages]*Histogram
	traces   sync.Pool
}

// NewMetrics builds a registry with the per-stage histograms registered.
func NewMetrics() *Metrics {
	m := &Metrics{Registry: NewRegistry()}
	for s := Stage(0); s < NumStages; s++ {
		m.stages[s] = m.Registry.Histogram(s.MetricName(), nil)
	}
	m.traces.New = func() any { return &Trace{m: m} }
	return m
}

// StartTrace returns a pooled per-request trace, or nil when m is nil. The
// caller must call Finish exactly once when the request completes; all
// Spans must have ended by then.
func (m *Metrics) StartTrace() *Trace {
	if m == nil {
		return nil
	}
	return m.traces.Get().(*Trace)
}

// Trace accumulates one request's per-stage durations. A stage entered
// more than once per request (two LLM calls in one correction) accumulates.
// A nil Trace is the disabled fast path: Start performs no clock read and
// Finish is a no-op. A Trace must not be shared across goroutines.
type Trace struct {
	m    *Metrics
	durs [NumStages]time.Duration
}

// Span is an open stage timing, closed by End. The zero Span (from a nil
// Trace) is a no-op.
type Span struct {
	tr    *Trace
	stage Stage
	start time.Time
}

// Start opens a span on the stage. On a nil Trace it returns the no-op
// zero Span without reading the clock.
func (t *Trace) Start(s Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, stage: s, start: time.Now()}
}

// End closes the span, accumulating its elapsed time on the trace.
func (sp Span) End() {
	if sp.tr == nil {
		return
	}
	sp.tr.durs[sp.stage] += time.Since(sp.start)
}

// Dur reports the accumulated duration of one stage (0 on a nil Trace) —
// for tests and in-flight inspection.
func (t *Trace) Dur(s Stage) time.Duration {
	if t == nil || s < 0 || s >= NumStages {
		return 0
	}
	return t.durs[s]
}

// Finish folds the trace's stage durations into the per-stage histograms
// (one observation per touched stage: a request's total time in that
// stage) and recycles the trace. The Trace must not be used after Finish.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	for s := range t.durs {
		if t.durs[s] > 0 {
			t.m.stages[s].Observe(t.durs[s])
			t.durs[s] = 0
		}
	}
	t.m.traces.Put(t)
}

// ----------------------------------------------------------------------------
// Context plumbing

type traceKey struct{}

// WithTrace attaches the trace to the context; a nil trace returns ctx
// unchanged so the disabled path allocates nothing.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil when none is attached —
// and every method on that nil trace is a no-op, so instrumented code
// calls through unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// ----------------------------------------------------------------------------
// Reporting

// StageStat is one stage's aggregate timing summary.
type StageStat struct {
	Stage string
	Count int64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Mean  time.Duration
}

// StageStats summarizes every stage with at least one observation, in
// stage order. Empty on a nil Metrics.
func (m *Metrics) StageStats() []StageStat {
	if m == nil {
		return nil
	}
	var out []StageStat
	for s := Stage(0); s < NumStages; s++ {
		h := m.stages[s]
		n := h.Count()
		if n == 0 {
			continue
		}
		out = append(out, StageStat{
			Stage: s.String(),
			Count: n,
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			Mean:  h.Sum() / time.Duration(n),
		})
	}
	return out
}

// WriteStageSummary prints a human-readable per-stage timing table — the
// aggregate breakdown fisql-eval reports.
func (m *Metrics) WriteStageSummary(w io.Writer) {
	stats := m.StageStats()
	if len(stats) == 0 {
		fmt.Fprintln(w, "stage timings: no observations")
		return
	}
	fmt.Fprintf(w, "%-10s %10s %12s %12s %12s %12s\n",
		"stage", "count", "p50", "p95", "p99", "mean")
	for _, st := range stats {
		fmt.Fprintf(w, "%-10s %10d %12s %12s %12s %12s\n",
			st.Stage, st.Count, fmtDur(st.P50), fmtDur(st.P95), fmtDur(st.P99), fmtDur(st.Mean))
	}
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
}
