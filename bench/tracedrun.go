package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fisql"
)

// traceFile is what the traced run writes at exit.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Metrics  map[string]metric `json:"metrics"`
	Budgets  []budget          `json:"budgets"`
	Ladder   []rungResult      `json:"ladder"`
	Spans    []span            `json:"spans"`
}

// systemsOf lists an instance's corpora for the memo hit share.
func systemsOf(inst instance) []*fisql.System {
	var out []*fisql.System
	switch v := inst.(type) {
	case *libInstance:
		for _, s := range v.corpora {
			out = append(out, s)
		}
	case *serveInstance:
		out = v.systems
	case *clusterInstance:
		out = v.systems
	}
	return out
}

func memoLookups(systems []*fisql.System) (hits, lookups int64) {
	for _, s := range systems {
		if s.Memo != nil {
			h, m := s.Memo.Stats()
			hits += h
			lookups += h + m
		}
	}
	return hits, lookups
}

// residualLayer names what a turn's own self time is: whatever runs
// outside every seam the harness can span.
var residualLayer = map[string]string{
	"paper_loop":      "between_seams",
	"scan_heavy":      "between_seams",
	"serve_hot":       "server+memo+obs+pubsub",
	"cluster_durable": "client+router",
}

// sweepSplit names, for the library workloads, the layer-sweep metrics that
// time what a real turn does between its seams: in an ask everything but the
// generation, in a feedback turn core.Correct's own work (routing prompt,
// demo selection, retrieval, repair prompt) and the answer after it (plan,
// presentation, execution). paper_loop plans every SQL for the first time;
// scan_heavy finds the plan cached and runs it on the x10 rows.
var sweepSplit = map[string]map[string][]string{
	"paper_loop": {
		"ask": {"rag.search_us", "prompt.nl2sql_us", "engine.prepare_us", "assistant.present_us", "engine.run_x1_us"},
		"feedback": {"prompt.routing_us", "feedback.select_demos_us", "rag.search_us", "prompt.repair_us",
			"engine.prepare_us", "assistant.present_us", "engine.run_x1_us"},
	},
	"scan_heavy": {
		"ask": {"rag.search_us", "prompt.nl2sql_us", "engine.cache_hit_ns", "engine.run_x10_us"},
		"feedback": {"prompt.routing_us", "feedback.select_demos_us", "rag.search_us", "prompt.repair_us",
			"engine.cache_hit_ns", "engine.run_x10_us"},
	},
}

// splitBySweep fills in b.Sweep: the sweep's timing of each layer between
// the seams, and how much of the measured remainder (the turn's own self
// time plus core.correct's) their sum accounts for.
func splitBySweep(b *budget, names []string, v layerValues, residual string) {
	var remainder, sum float64
	for _, r := range b.Rows {
		if r.Layer == residual || r.Layer == "core.correct" {
			remainder += r.SelfUs
		}
	}
	for _, name := range names {
		us := v[name]
		if strings.HasSuffix(name, "_ns") {
			us /= 1e3
		}
		row := budgetRow{Layer: name, SelfUs: us}
		if b.UntracedP50 > 0 {
			row.Share = us / b.UntracedP50
		}
		b.Sweep = append(b.Sweep, row)
		sum += us
	}
	if remainder > 0 {
		b.SweepCover = sum / remainder
	}
}

// tracedRounds is how many times the traced run alternates an untraced and
// a traced phase. The two sides are compared with each other (the overhead,
// the budget against the untraced median), so they must see the same
// weather: four short rounds interleaved, not one long phase after another.
const tracedRounds = 4

// pool merges the phases of one side into one result: samples and pass
// times pooled, counts added.
func pool(sc *script, parts []*endToEnd) *endToEnd {
	out := &endToEnd{metrics: map[string]metric{}}
	for _, e := range parts {
		out.askMs = append(out.askMs, e.askMs...)
		out.fbMs = append(out.fbMs, e.fbMs...)
		out.passSec = append(out.passSec, e.passSec...)
		out.attempted += e.attempted
		out.failed += e.failed
		out.passes += e.passes
		if out.failure == "" {
			out.failure = e.failure
		}
	}
	sort.Float64s(out.askMs)
	sort.Float64s(out.fbMs)
	out.metrics["turns_per_s"] = metric{float64(sc.turns()) / median(out.passSec), "1/s"}
	out.metrics["ask_p50_ms"] = metric{percentile(out.askMs, 0.5), "ms"}
	out.metrics["feedback_p50_ms"] = metric{percentile(out.fbMs, 0.5), "ms"}
	return out
}

// runTraced is the separate traced run. It measures the workload untraced
// and traced in one process (their difference is the tracing overhead),
// derives the per-turn budget from the spans, then times every layer's
// public functions on the script's own inputs and walks the ladder.
func runTraced(spec workloadSpec, env *runEnv, seconds int, out string, log io.Writer) (*result, error) {
	tr := newTracer()
	env.tracer = tr
	inst, _, err := setUp(spec, env, 1)
	if err != nil {
		return nil, err
	}
	// A tenth of the end-to-end pass count on each side keeps the whole
	// traced run about as long as an end-to-end run.
	ph := phaseFor(spec, seconds, 0, nil)
	rounds := tracedRounds
	if spec.deviceBound {
		rounds = 2 // a pass is five seconds of modelled flushes, and those do not drift
	}
	ph.passes = max(ph.passes/10/rounds, 1)
	var sides [2][]*endToEnd
	h0, l0 := memoLookups(systemsOf(inst))
	var hits, lookups int64
	for r := 0; r < rounds; r++ {
		sides[0] = append(sides[0], timedPhase(inst, ph))
		h1, l1 := memoLookups(systemsOf(inst))
		hits, lookups = hits+h1-h0, lookups+l1-l0
		tr.on.Store(true)
		sides[1] = append(sides[1], timedPhase(inst, ph))
		tr.on.Store(false)
		h0, l0 = memoLookups(systemsOf(inst))
	}
	violations := inst.gates()
	sc := inst.script()
	inst.close()
	untraced, traced := pool(sc, sides[0]), pool(sc, sides[1])

	v := layerValues{}
	rate := func(e *endToEnd) float64 { return e.metrics["turns_per_s"].Value }
	v["trace.overhead_share"] = (rate(traced) - rate(untraced)) / rate(untraced)
	if lookups > 0 {
		v["assistant.memo_hit_share"] = float64(hits) / float64(lookups)
	}
	spans := tr.spans
	resolveParents(spans)
	budgets := []budget{
		computeBudget(spans, "ask", residualLayer[spec.name], middleFifth(untraced.askMs)*1e3),
		computeBudget(spans, "feedback", residualLayer[spec.name], middleFifth(untraced.fbMs)*1e3),
	}

	// Layer sweep on fresh corpora: the script's own questions, prompts,
	// SQL and journal records through each layer's public functions.
	x1, x10, err := measureDatasets(v)
	if err != nil {
		return nil, err
	}
	full, err := buildScript(x1, env.seed, env.sessions())
	if err != nil {
		return nil, err
	}
	if err := measurePipelineLayers(v, full, x1); err != nil {
		return nil, err
	}
	measureEngineX10(v, full, x10)
	x10 = nil
	events, err := captureTurnEvents(full, x1)
	if err != nil {
		return nil, err
	}
	measurePubSub(v, events)
	if err := measurePersist(v, full, filepath.Join(env.dir, "persist")); err != nil {
		return nil, err
	}
	measureOwner(v)
	ladder, err := measureLadder(v, full, x1, filepath.Join(env.dir, "ladder"))
	if err != nil {
		return nil, err
	}

	metrics := make(map[string]metric, len(perLayer))
	for _, lm := range perLayer {
		if math.IsNaN(v[lm.name]) || math.IsInf(v[lm.name], 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", lm.name, v[lm.name])
		}
		metrics[lm.name] = metric{Value: v[lm.name], Unit: lm.unit}
	}
	for i := range budgets {
		b := &budgets[i]
		if names := sweepSplit[spec.name][b.Kind]; names != nil {
			splitBySweep(b, names, v, residualLayer[spec.name])
		}
		if !b.WithinBudget {
			violations = append(violations, fmt.Sprintf(
				"%s budget does not add up: layer self-times sum to %.2f us, the untraced median turn is %.2f us (tolerance %.0f%%)",
				b.Kind, b.SumUs, b.UntracedP50, budgetTolerance*100))
		}
	}
	failed := untraced.failed + traced.failed
	reportTraced(log, spec, sc, untraced, traced, budgets, ladder, metrics, violations)
	tf := traceFile{Workload: spec.name, Seed: env.seed, Metrics: metrics, Budgets: budgets, Ladder: ladder, Spans: spans}
	if err := writeJSON(out, tf); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "trace: %d spans written to %s\n", len(spans), out)
	return &result{
		Correct:   failed == 0 && len(violations) == 0,
		Attempted: untraced.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportTraced prints the per-turn budget and the ladder as tables.
func reportTraced(w io.Writer, spec workloadSpec, sc *script, untraced, traced *endToEnd,
	budgets []budget, ladder []rungResult, metrics map[string]metric, violations []string) {
	fmt.Fprintf(w, "traced run of %s: script %016x, %d+%d turns per pass, %d untraced + %d traced passes\n",
		spec.name, sc.hash, sc.asks, sc.feedbacks, untraced.passes, traced.passes)
	fmt.Fprintf(w, "turns/s untraced %.1f, traced %.1f (overhead share %+.3f); failed turns %d\n",
		untraced.metrics["turns_per_s"].Value, traced.metrics["turns_per_s"].Value,
		metrics["trace.overhead_share"].Value, untraced.failed+traced.failed)
	fmt.Fprintf(w, "p50 untraced / traced: ask %.1f / %.1f us, feedback %.1f / %.1f us\n",
		untraced.metrics["ask_p50_ms"].Value*1e3, traced.metrics["ask_p50_ms"].Value*1e3,
		untraced.metrics["feedback_p50_ms"].Value*1e3, traced.metrics["feedback_p50_ms"].Value*1e3)
	for _, f := range []string{untraced.failure, traced.failure} {
		if f != "" {
			fmt.Fprintf(w, "first failure: %s\n", f)
		}
	}
	for _, v := range violations {
		fmt.Fprintf(w, "gate violated: %s\n", v)
	}
	for _, b := range budgets {
		verdict := "adds up"
		if !b.WithinBudget {
			verdict = "DOES NOT add up"
		}
		fmt.Fprintf(w, "\nper-turn budget, %s (%d traced turns; untraced median turn %.1f us; layer self-times sum to %.1f us: %s within %.0f%%)\n",
			b.Kind, b.Turns, b.UntracedP50, b.SumUs, verdict, budgetTolerance*100)
		fmt.Fprintf(w, "  %-28s %12s %8s %12s\n", "layer", "self us", "% turn", "% all time")
		for _, r := range b.Rows {
			fmt.Fprintf(w, "  %-28s %12.2f %7.1f%% %11.1f%%\n", r.Layer, r.SelfUs, r.Share*100, r.TimeShare*100)
		}
		if len(b.Sweep) > 0 {
			fmt.Fprintf(w, "  between the seams, by the layer sweep (medians on the same inputs; they sum to %.0f%% of between_seams + core.correct):\n", b.SweepCover*100)
			for _, r := range b.Sweep {
				fmt.Fprintf(w, "    %-26s %12.2f %7.1f%%\n", r.Layer, r.SelfUs, r.Share*100)
			}
		}
	}
	fmt.Fprintf(w, "\nladder (warm script, us per turn; delta against the rung it builds on)\n")
	fmt.Fprintf(w, "  %-16s %10s %10s %10s %10s\n", "rung", "us/turn", "ask p50", "fb p50", "delta")
	base := map[string]string{"metrics": "bare", "journal_off": "metrics", "journal_always": "metrics",
		"batcher": "metrics", "admission": "metrics", "sub4": "metrics", "router": "journal_off", "replicated": "router"}
	byName := map[string]rungResult{}
	for _, r := range ladder {
		byName[r.Name] = r
	}
	for _, r := range ladder {
		delta := ""
		if b, ok := byName[base[r.Name]]; ok {
			delta = fmt.Sprintf("%+.2f", r.UsPerTurn-b.UsPerTurn)
		}
		fmt.Fprintf(w, "  %-16s %10.2f %10.2f %10.2f %10s\n", r.Name, r.UsPerTurn, r.AskP50Us, r.FbP50Us, delta)
	}
	fmt.Fprintf(w, "\nper-layer metrics\n")
	for _, lm := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", lm.name, metrics[lm.name].Value, lm.unit)
	}
}
