package main

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fisql"
	"fisql/internal/core"
	"fisql/internal/feedback"
	"fisql/internal/llm"
	"fisql/internal/prompt"
	"fisql/internal/server"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function or at one of its public seams. Times are
// nanoseconds since the trace began; Parent is the index of the span that
// encloses this one (-1 for a turn); spans of one turn share Turn.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Turn   int32  `json:"turn"`
}

// tracer keeps spans in memory; nothing is written until the run ends. It
// is off during the untraced passes of a traced run, so the same process
// yields the untraced rate the overhead is measured against.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	turn  int32
	// inCorrect marks that a core.Corrector call is in flight, which is how
	// the LLM seam tells a repair completion from a generation. Traced
	// passes keep one turn in flight, so a single flag is enough.
	inCorrect atomic.Bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its handle; end closes it.
func (t *tracer) begin(name string) int {
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: -1, Turn: t.turn})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// observed records a span reported after the fact by an observer hook that
// only knows the duration: it ended now.
func (t *tracer) observed(name string, d time.Duration) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: end - int64(d), End: end, Parent: -1, Turn: t.turn})
	t.mu.Unlock()
}

// beginTurn opens the root span of the next turn.
func (t *tracer) beginTurn(name string) int {
	t.mu.Lock()
	t.turn++
	t.mu.Unlock()
	return t.begin(name)
}

// ----------------------------------------------------------------------------
// Seams: public interfaces and hooks of the program the tracer wraps, so
// spans inside a server or cluster turn are recorded without touching the
// program.

// tracedClient wraps a corpus's llm.Client.
type tracedClient struct {
	inner llm.Client
	t     *tracer
}

// routingPrefix is how every routing prompt starts (prompt.Routing emits a
// fixed header before the feedback text).
var routingPrefix = func() string {
	p := prompt.Routing("")
	if i := strings.Index(p, "\n"); i > 0 {
		return p[:i]
	}
	return p
}()

func (c *tracedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if !c.t.enabled() {
		return c.inner.Complete(ctx, req)
	}
	name := "llm.generate"
	switch {
	case strings.HasPrefix(req.Prompt, routingPrefix):
		name = "llm.route"
	case c.t.inCorrect.Load():
		name = "llm.repair"
	}
	sp := c.t.begin(name)
	resp, err := c.inner.Complete(ctx, req)
	c.t.end(sp)
	return resp, err
}

// tracedCorrector wraps a session's core.Corrector.
type tracedCorrector struct {
	inner core.Corrector
	t     *tracer
}

func (c *tracedCorrector) Name() string { return c.inner.Name() }

func (c *tracedCorrector) Correct(ctx context.Context, db, question, prevSQL string, fb feedback.Feedback) (string, error) {
	if !c.t.enabled() {
		return c.inner.Correct(ctx, db, question, prevSQL, fb)
	}
	sp := c.t.begin("core.correct")
	c.t.inCorrect.Store(true)
	sql, err := c.inner.Correct(ctx, db, question, prevSQL, fb)
	c.t.inCorrect.Store(false)
	c.t.end(sp)
	return sql, err
}

// tracedAdapter is sysAdapter with the corrector seam installed.
type tracedAdapter struct {
	*fisql.System
	t *tracer
}

func (a tracedAdapter) NewSession(db string) *fisql.Session {
	sess := a.Session(db, sessionOpts)
	sess.Corrector = &tracedCorrector{inner: sess.Corrector, t: a.t}
	return sess
}

// factories returns the session factories a server is built over. With a
// tracer, every corpus gets the LLM seam (sessions pick the wrapped client
// up through System.Assistant and System.FISQL) and every session the
// corrector seam.
func (t *tracer) factories(corpora []corpus) map[string]server.SessionFactory {
	if t == nil {
		return factories(corpora)
	}
	out := make(map[string]server.SessionFactory, len(corpora))
	for _, c := range corpora {
		if _, done := c.sys.Client.(*tracedClient); !done {
			c.sys.Client = &tracedClient{inner: c.sys.Client, t: t}
		}
		out[c.name] = tracedAdapter{c.sys, t}
	}
	return out
}

// tracedTransport spans every round trip of one hop.
type tracedTransport struct {
	name  string
	inner http.RoundTripper
	t     *tracer
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.enabled() {
		return tt.inner.RoundTrip(r)
	}
	name := tt.name
	if strings.HasPrefix(r.URL.Path, "/internal/replicate") {
		name = "cluster.replicate"
	}
	sp := tt.t.begin(name)
	resp, err := tt.inner.RoundTrip(r)
	tt.t.end(sp)
	return resp, err
}

func (t *tracer) clusterHooks() *clusterHooks {
	newT := func() http.RoundTripper { return &http.Transport{MaxIdleConnsPerHost: 8} }
	return &clusterHooks{
		routerTransport: &tracedTransport{name: "cluster.forward", inner: newT(), t: t},
		nodeTransport:   &tracedTransport{name: "cluster.node_call", inner: newT(), t: t},
		fsyncObserver: func(d time.Duration) {
			if t.enabled() {
				t.observed("persist.fsync", d)
			}
		},
	}
}

// ----------------------------------------------------------------------------
// Library-path seams. paper_loop and scan_heavy call fisql.Session directly,
// so the harness itself is the turn's caller: it opens the root span around
// Session.Ask / Session.Feedback and hangs the same two wrappers on the
// system — the llm.Client and the session's core.Corrector — that the server
// workloads use. What runs between those seams (retrieval, prompts, parse,
// plan, execution, presentation) has no public seam inside a real turn; the
// budget splits that remainder by the layer sweep's timings (tracedrun.go).

// instrument installs the LLM seam on a library instance's systems.
func (t *tracer) instrument(systems map[string]*fisql.System) {
	if t == nil {
		return
	}
	for _, sys := range systems {
		if _, done := sys.Client.(*tracedClient); !done {
			sys.Client = &tracedClient{inner: sys.Client, t: t}
		}
	}
}

// session installs the corrector seam on one library session.
func (t *tracer) session(sess *fisql.Session) *fisql.Session {
	if t != nil {
		sess.Corrector = &tracedCorrector{inner: sess.Corrector, t: t}
	}
	return sess
}

// beginLibTurn opens a library turn's root span, or returns -1 when the
// tracer is off.
func (t *tracer) beginLibTurn(feedback bool) int {
	if !t.enabled() {
		return -1
	}
	if feedback {
		return t.beginTurn("turn.feedback")
	}
	return t.beginTurn("turn.ask")
}

func (t *tracer) endLibTurn(sp int) {
	if sp >= 0 {
		t.end(sp)
	}
}

// tracedDo wraps a lane's doFunc so every ask and feedback request is the
// root span of a turn.
func (t *tracer) tracedDo(do doFunc) doFunc {
	if t == nil {
		return do
	}
	return func(method, path string, body []byte) (int, []byte) {
		if !t.enabled() || method != http.MethodPost {
			return do(method, path, body)
		}
		name := ""
		switch {
		case strings.HasSuffix(path, "/ask"):
			name = "turn.ask"
		case strings.HasSuffix(path, "/feedback"):
			name = "turn.feedback"
		default:
			return do(method, path, body)
		}
		sp := t.beginTurn(name)
		code, out := do(method, path, body)
		t.end(sp)
		return code, out
	}
}

// ----------------------------------------------------------------------------
// Analysis: parents by containment, self times, the per-turn budget.

// resolveParents sets each span's Parent to the innermost span of the same
// turn that contains it. Traced passes keep one turn in flight, so
// containment in time is containment in the call tree.
func resolveParents(spans []span) {
	byTurn := map[int32][]int{}
	for i := range spans {
		byTurn[spans[i].Turn] = append(byTurn[spans[i].Turn], i)
	}
	for _, idx := range byTurn {
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := &spans[idx[a]], &spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				spans[i].Parent = int32(stack[len(stack)-1])
			} else {
				spans[i].Parent = -1
			}
			stack = append(stack, i)
		}
	}
}

// budgetRow is one layer's share of one kind of turn.
type budgetRow struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us"` // the layer's mean self time in a median turn
	Share  float64 `json:"share_of_p50"`
	// TimeShare is the layer's share of all traced time spent in turns of
	// this kind: where the wall clock goes, as opposed to what the median
	// turn looks like. The two differ when a few turns are very long.
	TimeShare float64 `json:"share_of_all_time"`
}

// budget is the per-turn budget of one kind of turn (ask or feedback).
type budget struct {
	Kind         string      `json:"kind"`
	Turns        int         `json:"turns"`
	MedianTurns  int         `json:"median_turns"`
	UntracedP50  float64     `json:"untraced_median_turn_us"`
	Rows         []budgetRow `json:"rows"`
	SumUs        float64     `json:"sum_self_us"`
	WithinBudget bool        `json:"sum_within_15pct_of_p50"`
	// Sweep splits what no seam covers (the library workloads' pipeline
	// between the LLM calls) by the layer sweep's medians of the same
	// layers on the same inputs; SweepCover is their sum over the measured
	// remainder. Empty for the server workloads.
	Sweep      []budgetRow `json:"sweep,omitempty"`
	SweepCover float64     `json:"sweep_sum_over_remainder,omitempty"`
}

// budgetTolerance is how far the layer self-times may sum from the untraced
// median before the budget does not add up, which fails the traced run.
const budgetTolerance = 0.15

// selfName maps a span to the layer its self time is charged to: a turn's
// own self time is what no seam inside it covers.
func selfName(name, residual string) string {
	if strings.HasPrefix(name, "turn.") {
		return residual
	}
	return name
}

// middleFifth is the mean of the middle fifth of sorted: the median turn as
// the budget takes it, on both sides of the comparison.
func middleFifth(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	lo, hi := len(sorted)*2/5, (len(sorted)*3+4)/5
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// computeBudget derives, for one kind of turn, each layer's self time in
// the median turn from the resolved spans. residual names the layer a turn
// span's own self time belongs to (what runs outside every seam);
// untracedP50Us is the untraced side's median turn (middleFifth).
func computeBudget(spans []span, kind, residual string, untracedP50Us float64) budget {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].End - spans[i].Start
		}
	}
	// The median turn is the middle fifth of the traced turns of this kind
	// by duration. Averaging each layer's self time over them splits the
	// median turn into parts that add up exactly (per-layer medians would
	// not: the layers are right-skewed, so the sum of their medians falls
	// short of the median of their sum).
	root := "turn." + kind
	type turnTotal struct {
		turn int32
		ns   int64
	}
	var totals []turnTotal
	var allNs int64
	ofKind := map[int32]bool{}
	for i := range spans {
		if spans[i].Name == root {
			totals = append(totals, turnTotal{spans[i].Turn, spans[i].End - spans[i].Start})
			ofKind[spans[i].Turn] = true
			allNs += spans[i].End - spans[i].Start
		}
	}
	sort.Slice(totals, func(i, j int) bool {
		if totals[i].ns != totals[j].ns {
			return totals[i].ns < totals[j].ns
		}
		return totals[i].turn < totals[j].turn
	})
	lo, hi := len(totals)*2/5, (len(totals)*3+4)/5
	middle := map[int32]bool{}
	for _, tt := range totals[lo:hi] {
		middle[tt.turn] = true
	}
	sums, sumsAll := map[string]int64{}, map[string]int64{}
	for i := range spans {
		top := i
		for spans[top].Parent >= 0 {
			top = int(spans[top].Parent)
		}
		if spans[top].Name != root {
			// Recorded between turns (the hops and flushes of a session
			// create or delete): it carries the last turn's number but is
			// no part of it.
			continue
		}
		name := selfName(spans[i].Name, residual)
		if middle[spans[i].Turn] {
			sums[name] += self[i]
		}
		if ofKind[spans[i].Turn] {
			sumsAll[name] += self[i]
		}
	}
	b := budget{Kind: kind, Turns: len(totals), MedianTurns: len(middle), UntracedP50: untracedP50Us}
	for name, ns := range sumsAll {
		row := budgetRow{Layer: name, SelfUs: float64(sums[name]) / 1e3 / float64(len(middle))}
		if allNs > 0 {
			row.TimeShare = float64(ns) / float64(allNs)
		}
		b.Rows = append(b.Rows, row)
	}
	sort.Slice(b.Rows, func(i, j int) bool {
		if b.Rows[i].SelfUs != b.Rows[j].SelfUs {
			return b.Rows[i].SelfUs > b.Rows[j].SelfUs
		}
		return b.Rows[i].Layer < b.Rows[j].Layer
	})
	for i := range b.Rows {
		b.SumUs += b.Rows[i].SelfUs
		if untracedP50Us > 0 {
			b.Rows[i].Share = b.Rows[i].SelfUs / untracedP50Us
		}
	}
	if untracedP50Us > 0 {
		dev := b.SumUs/untracedP50Us - 1
		b.WithinBudget = dev <= budgetTolerance && dev >= -budgetTolerance
	}
	return b
}
