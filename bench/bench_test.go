package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fisql/internal/eval"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {0.10, 1}, {0.0, 1}, {1.0, 10}, {0.11, 2},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	// 200 samples: p99 is the 198th smallest, leaving two beyond it.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 198 {
		t.Errorf("percentile(1..200, 0.99) = %v, want 198", got)
	}
}

func TestMedianOfPasses(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// Five passes of a 100-turn script, one of them hit by a 3 s stall:
	// the median pass is 1.0 s, so the rate is 100 turns/s whatever the
	// stalled pass took.
	if got := 100 / median([]float64{1.0, 0.9, 4.0, 1.1, 1.0}); got != 100 {
		t.Errorf("turns over the median pass = %v, want 100", got)
	}
}

func TestPooledPercentilesKeepStalls(t *testing.T) {
	// 200 timed turns of 1 ms, four of which were hit by a 50 ms stall. The
	// median ignores them; the p99 (two samples beyond it) is a stalled
	// turn, because one turn in fifty stalling is what a client sees.
	ns := make([]int64, 200)
	for i := range ns {
		ns[i] = 1e6
	}
	for _, i := range []int{3, 50, 120, 199} {
		ns[i] = 50e6
	}
	ms := pooledMs(ns)
	if got := percentile(ms, 0.50); got != 1 {
		t.Errorf("pooled p50 = %v ms, want 1", got)
	}
	if got := percentile(ms, 0.99); got != 50 {
		t.Errorf("pooled p99 = %v ms, want 50", got)
	}
}

func TestBlockPercentileIsTheMedianBlock(t *testing.T) {
	// Three blocks of 1 000 turns of 1 ms. In the middle block a bad stretch
	// on the host makes every tenth turn take 20 ms; the other two each hold
	// five 9 ms turns. The p99 of a block is its 990th smallest sample, with
	// ten beyond it: five slow turns do not reach it, a hundred do. The
	// blocks read 1, 20, 1 ms and the median block 1; pooled, the bad
	// stretch alone would have set the run's p99 to 20.
	ns := make([]int64, 3000)
	for i := range ns {
		ns[i] = 1e6
	}
	for i := 1000; i < 2000; i += 10 {
		ns[i] = 20e6
	}
	for _, i := range []int{10, 200, 400, 600, 800, 2010, 2200, 2400, 2600, 2800} {
		ns[i] = 9e6
	}
	sorted := pooledMs(ns)
	if got := percentile(sorted, 0.99); got != 20 {
		t.Fatalf("pooled p99 = %v ms, want 20 (the test's premise)", got)
	}
	if got := blockPercentile(ns, sorted, 0.99); got != 1 {
		t.Errorf("block p99 = %v ms, want 1 (the median block)", got)
	}
	// Never more than five blocks, however many samples there are.
	many := make([]int64, 12*latencyBlock)
	for i := range many {
		many[i] = int64(1+i/(len(many)/latencyBlocks)) * 1e6 // block k reads k+1 ms throughout
	}
	if got := blockPercentile(many, pooledMs(many), 0.5); got != 3 {
		t.Errorf("block p50 over twelve thousand samples = %v ms, want 3 (the third of five blocks)", got)
	}
	// A cost that recurs through the whole run is in every block: make
	// every fiftieth turn slow everywhere and the p99 is a slow turn.
	for i := 0; i < len(ns); i += 50 {
		ns[i] = 9e6
	}
	if got := blockPercentile(ns, pooledMs(ns), 0.99); got != 9 {
		t.Errorf("block p99 with a recurring stall = %v ms, want 9", got)
	}
	// Fewer than two blocks' worth of samples: the plain pooled percentile.
	few := ns[:1500]
	if got, want := blockPercentile(few, pooledMs(few), 0.99), percentile(pooledMs(few), 0.99); got != want {
		t.Errorf("block p99 over 1 500 samples = %v, want the pooled %v", got, want)
	}
}

func TestSpeedRefSlowdown(t *testing.T) {
	r := &speedRef{samples: []float64{refNominalNs, 9 * refNominalNs, 1.3 * refNominalNs, 1.3 * refNominalNs, 1.3 * refNominalNs}}
	if got, want := r.slowdown(0), 1+memShare*0.3; math.Abs(got-want) > 1e-9 {
		t.Errorf("slowdown over all samples = %v, want %v (the median read is 30%% over nominal)", got, want)
	}
	if got := r.slowdown(5); got != 1 {
		t.Errorf("slowdown over no samples = %v, want 1", got)
	}
	var none *speedRef
	if got := none.slowdown(0); got != 1 {
		t.Errorf("slowdown without a probe = %v, want 1", got)
	}
	// A real probe reads the whole array on every sample.
	a := newSpeedRef()
	a.take(3)
	if want := uint64(refWords) * (refWords - 1) / 2 * 3 * refReads; a.sink != want || len(a.samples) != 3 || a.spentNs <= 0 {
		t.Errorf("probe: summed %d (want %d), %d samples, %d ns spent", a.sink, want, len(a.samples), a.spentNs)
	}
}

func TestFlushModelPadsAndMarksSpikes(t *testing.T) {
	var seen []time.Duration
	f := &flushModel{pad: 2 * time.Millisecond, next: func(d time.Duration) { seen = append(seen, d) }}
	t0 := time.Now()
	f.observe(100 * time.Microsecond) // padded to 2 ms
	if d := time.Since(t0); d < 1900*time.Microsecond {
		t.Errorf("a 0.1 ms flush under a 2 ms pad returned after %v", d)
	}
	before := time.Now()
	f.observe(5 * time.Millisecond) // a spike: passes through, interval recorded
	after := time.Now()
	if len(seen) != 2 || seen[0] < 2*time.Millisecond || seen[1] != 5*time.Millisecond {
		t.Errorf("observer chain saw %v, want [>=2ms 5ms]", seen)
	}
	if f.n.Load() != 2 || f.over.Load() != 1 {
		t.Errorf("flush model counted %d flushes, %d over the pad; want 2 and 1", f.n.Load(), f.over.Load())
	}
	// The spike covers the 5 ms before the observer ran.
	if !f.spiked(before.Add(-time.Millisecond), after) || !f.spiked(before.Add(-4*time.Millisecond), before.Add(-3*time.Millisecond)) {
		t.Error("a turn in flight during the spike is not marked")
	}
	if f.spiked(before.Add(-time.Second), before.Add(-10*time.Millisecond)) || f.spiked(after.Add(time.Millisecond), after.Add(time.Second)) {
		t.Error("a turn that ended before the spike or began after it is marked")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], n=4) == [2.0, 4.0, 5.0]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	if q1 != 2 || q3 != 5 {
		t.Errorf("quartiles(pi digits) = %v, %v, want 2, 5", q1, q3)
	}
}

func TestBudgetSelfTimes(t *testing.T) {
	// One ask turn of 100 ns: a 60 ns child holding a 20 ns grandchild,
	// and a 10 ns sibling. Self times: turn 30, child 40, grandchild 20,
	// sibling 10.
	spans := []span{
		{Name: "turn.ask", Start: 0, End: 100, Turn: 1},
		{Name: "llm.generate", Start: 10, End: 70, Turn: 1},
		{Name: "rag.search", Start: 20, End: 40, Turn: 1},
		{Name: "engine.run", Start: 80, End: 90, Turn: 1},
		// A flush recorded after the turn returned (a session delete): same
		// turn number, outside the turn, in nobody's budget.
		{Name: "cluster.forward", Start: 110, End: 200, Turn: 1},
		{Name: "persist.fsync", Start: 120, End: 190, Turn: 1},
	}
	resolveParents(spans)
	wantParent := []int32{-1, 0, 1, 0, -1, 4}
	for i, w := range wantParent {
		if spans[i].Parent != w {
			t.Errorf("span %d parent = %d, want %d", i, spans[i].Parent, w)
		}
	}
	b := computeBudget(spans, "ask", "residual", 0.1)
	got := map[string]float64{}
	for _, r := range b.Rows {
		got[r.Layer] = r.SelfUs
	}
	want := map[string]float64{"residual": 0.030, "llm.generate": 0.040, "rag.search": 0.020, "engine.run": 0.010}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("self time of %s = %v us, want %v", k, got[k], w)
		}
	}
	if math.Abs(b.SumUs-0.1) > 1e-9 || !b.WithinBudget {
		t.Errorf("budget sum = %v us (within=%v), want 0.1 and within", b.SumUs, b.WithinBudget)
	}
	// Against an untraced median 20% away the same spans do not add up.
	if off := computeBudget(spans, "ask", "residual", 0.125); off.WithinBudget {
		t.Errorf("budget of 0.1 us against a p50 of 0.125 us counted as adding up")
	}
	// The sweep splits what no seam covers: here the turn's own 30 ns.
	splitBySweep(&b, []string{"rag.search_us", "engine.cache_hit_ns"},
		layerValues{"rag.search_us": 0.010, "engine.cache_hit_ns": 5}, "residual")
	if len(b.Sweep) != 2 || math.Abs(b.Sweep[1].SelfUs-0.005) > 1e-12 || math.Abs(b.SweepCover-0.5) > 1e-9 {
		t.Errorf("sweep split = %+v cover %v, want 0.010 and 0.005 us covering half of the 0.030 us remainder", b.Sweep, b.SweepCover)
	}
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	hashOf := func(seed int64) (uint64, *script) {
		corpora, err := buildCorpora(1, true)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := buildScript(corpora, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sc.hash, sc
	}
	a, sc := hashOf(7)
	b, _ := hashOf(7)
	c, _ := hashOf(8)
	if a != b {
		t.Errorf("same seed gave script hashes %x and %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same script %x", a)
	}
	// The full script carries the paper's tallies whatever the seed:
	// shuffling reorders examples, it does not change their outcomes.
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got := sc.tallies[name]; got == nil || *got != w {
			t.Errorf("%s tallies = %+v, expected.json has %+v", name, got, w)
		}
	}
}

// TestExpectedMatchesEval cross-checks expected.json against the numbers
// the evaluation harness (fisql-eval, EXPERIMENTS.md) produces for the same
// options: RAG generation with k = 8, FISQL with routing and highlights,
// two feedback rounds.
func TestExpectedMatchesEval(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	corpora, err := buildCorpora(1, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range corpora {
		results, acc, err := eval.RunGeneration(ctx, c.sys.Client, c.sys.DS, c.sys.K)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eval.RunCorrection(ctx, c.sys.FISQL(sessionOpts), c.sys.DS, eval.Errors(results),
			eval.CorrectionOptions{Rounds: feedbackRounds, Highlights: true})
		if err != nil {
			t.Fatal(err)
		}
		w := want[c.name]
		if acc.Total != w.Examples || acc.Total-acc.Correct != w.OneShotErrors {
			t.Errorf("%s: eval one-shot errors %d/%d, expected.json %d/%d",
				c.name, acc.Total-acc.Correct, acc.Total, w.OneShotErrors, w.Examples)
		}
		if res.N != w.Annotated || res.CumCorrected[0] != w.CorrectedByR1 || res.CumCorrected[1] != w.CorrectedByR2 {
			t.Errorf("%s: eval corrected %v of %d, expected.json %d and %d of %d",
				c.name, res.CumCorrected, res.N, w.CorrectedByR1, w.CorrectedByR2, w.Annotated)
		}
	}
	// EXPERIMENTS.md: 243/1034 and 54/200 one-shot, 101 and 53 annotated,
	// 44.55% / 59.41% (SPIDER) and 69.81% (AEP, with highlights) corrected.
	sp, ae := want["spider"], want["aep"]
	if sp.OneShotErrors != 243 || sp.Examples != 1034 || ae.OneShotErrors != 54 || ae.Examples != 200 ||
		sp.Annotated != 101 || ae.Annotated != 53 || sp.CorrectedByR1 != 45 || sp.CorrectedByR2 != 60 || ae.CorrectedByR1 != 37 {
		t.Errorf("expected.json drifted from EXPERIMENTS.md: %+v %+v", sp, ae)
	}
}

func shortEnv(t *testing.T) *runEnv {
	t.Helper()
	return &runEnv{seed: 1, dir: filepath.Join(t.TempDir(), "scratch"), short: true}
}

func TestSameSeedSameCounts(t *testing.T) {
	spec, _ := findWorkload("paper_loop")
	run := func() *endToEnd {
		inst, err := spec.setup(shortEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		return timedPhase(inst, phase{passes: 1, block: 1, limit: time.Minute})
	}
	a, b := run(), run()
	if a.failed != 0 || b.failed != 0 {
		t.Fatalf("failed turns: %d (%s), %d (%s)", a.failed, a.failure, b.failed, b.failure)
	}
	if a.attempted != b.attempted || len(a.askMs) != len(b.askMs) || len(a.fbMs) != len(b.fbMs) || a.attempted == 0 {
		t.Errorf("counts differ between two runs of one seed: %+v vs %+v", a, b)
	}
	// A six-session pass is a few dozen turns, so one pooled buffer growing
	// in one run and not the other is visible (and the race detector makes
	// sync.Pool drop items at random): the tolerance here is far wider than
	// the full-size benchmark's bound of 2%.
	for _, name := range []string{"allocs_per_turn", "alloc_kb_per_turn"} {
		x, y := a.metrics[name].Value, b.metrics[name].Value
		if x <= 0 || math.Abs(x-y)/x > 0.10 {
			t.Errorf("%s = %v and %v in two runs of one seed", name, x, y)
		}
	}
}

func TestCorruptedExpectationFailsTheTurn(t *testing.T) {
	for _, name := range []string{"paper_loop", "serve_hot"} {
		spec, _ := findWorkload(name)
		inst, err := spec.setup(shortEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		switch v := inst.(type) {
		case *libInstance:
			v.sc.sessions[0].turns[0].rows ^= 1
		case *serveInstance:
			v.bodies[0][0] ^= 1
		}
		var rec recorder
		inst.pass(&rec)
		inst.close()
		if rec.failed != 1 || rec.attempted != inst.script().turns() {
			t.Errorf("%s: one corrupted expectation gave %d failed of %d attempted turns (%s)",
				name, rec.failed, rec.attempted, rec.failure)
		}
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutputMatchesBenchmarkJSON runs every workload end to end on a short
// script and requires the JSON it prints to carry exactly the end-to-end
// metrics BENCHMARK.json names, with the same units, and the bounds table
// of -selfcheck to equal BENCHMARK.json's.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the harness reports %d", len(bj.EndToEnd), len(endToEndNames))
	}
	for _, spec := range workloads {
		inst, err := spec.setup(shortEnv(t))
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		e := timedPhase(inst, phase{passes: 2, block: 1, limit: time.Minute, setupS: 1,
			ref: newSpeedRef(), probeEvery: 2, normalise: !spec.deviceBound})
		violations := inst.gates()
		inst.close()
		if e.failed != 0 || len(violations) != 0 {
			t.Errorf("%s: %d failed turns (%s), gates %v", spec.name, e.failed, e.failure, violations)
		}
		if len(e.metrics) != len(bj.EndToEnd) {
			t.Errorf("%s reports %d metrics, BENCHMARK.json names %d", spec.name, len(e.metrics), len(bj.EndToEnd))
		}
		for i, m := range bj.EndToEnd {
			got, ok := e.metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s does not report %s", spec.name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s reports %s in %q, BENCHMARK.json says %q", spec.name, m.Name, got.Unit, m.Unit)
			case got.Value <= 0:
				t.Errorf("%s reports %s = %v; end-to-end metrics are never 0", spec.name, m.Name, got.Value)
			}
			if m.Name != endToEndNames[i] || bounds[m.Name] != m.Bound || higherIsBetter[m.Name] != (m.Better == "higher") {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the harness %s bound %v higher=%v",
					i, m, endToEndNames[i], bounds[m.Name], higherIsBetter[m.Name])
			}
		}
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced run on a short
// script and requires exactly the per-layer metrics BENCHMARK.json names,
// a spans file, and budgets for both kinds of turn.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run walks the whole ladder")
	}
	bj := loadBenchmarkJSON(t)
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the harness has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if lm := perLayer[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, lm)
		}
	}
	spec, _ := findWorkload("serve_hot")
	env := shortEnv(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	res, err := runTraced(spec, env, 1, out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(bj.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(bj.PerLayer))
	}
	for _, m := range bj.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("traced run: metric %s missing or in the wrong unit (%+v)", m.Name, got)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Budgets) != 2 || len(tf.Ladder) != 9 {
		t.Errorf("trace file: %d spans, %d budgets, %d rungs", len(tf.Spans), len(tf.Budgets), len(tf.Ladder))
	}
	nested := 0
	for _, s := range tf.Spans {
		if s.Parent >= 0 {
			nested++
		}
	}
	if nested == 0 {
		t.Error("trace file: no span has a parent")
	}
}
