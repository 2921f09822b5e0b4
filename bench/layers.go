package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fisql"
	"fisql/internal/assistant"
	"fisql/internal/cluster"
	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
	"fisql/internal/engine"
	"fisql/internal/feedback"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/prompt"
	"fisql/internal/pubsub"
	"fisql/internal/rag"
	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// layerMetric declares one per-layer metric. The table is the single
// source of the names: the traced run reports exactly these, and a harness
// test checks BENCHMARK.json lists exactly these.
type layerMetric struct {
	name   string
	unit   string
	better string
}

var perLayer = []layerMetric{
	{"dataset.build_spider_ms", "ms", "lower"},
	{"dataset.build_aep_ms", "ms", "lower"},
	{"dataset.scale_x10_ms", "ms", "lower"},
	{"rag.build_ms", "ms", "lower"},
	{"rag.search_us", "us", "lower"},
	{"rag.search_allocs", "count", "lower"},
	{"prompt.nl2sql_us", "us", "lower"},
	{"prompt.repair_us", "us", "lower"},
	{"prompt.routing_us", "us", "lower"},
	{"prompt.bytes_mean", "B", "lower"},
	{"llm.sim_generate_us", "us", "lower"},
	{"llm.sim_repair_us", "us", "lower"},
	{"llm.sim_route_us", "us", "lower"},
	{"llm.batch_overhead_us", "us", "lower"},
	{"core.route_us", "us", "lower"},
	{"core.correct_us", "us", "lower"},
	{"feedback.select_demos_us", "us", "lower"},
	{"sqlparse.parse_us", "us", "lower"},
	{"engine.prepare_us", "us", "lower"},
	{"engine.cache_hit_ns", "ns", "lower"},
	{"engine.run_x1_us", "us", "lower"},
	{"engine.run_x1_allocs", "count", "lower"},
	{"engine.run_x10_us", "us", "lower"},
	{"engine.run_x10_p99_ms", "ms", "lower"},
	{"engine.run_x10_alloc_kb", "KB", "lower"},
	{"engine.rows_out_mean", "count", "lower"},
	{"engine.columnar_hit_share", "ratio", "higher"},
	{"engine.columnar_fallbacks", "count", "lower"},
	{"engine.columnar_build_ms", "ms", "lower"},
	{"assistant.present_us", "us", "lower"},
	{"assistant.answer_us", "us", "lower"},
	{"assistant.memo_hit_ns", "ns", "lower"},
	{"assistant.memo_hit_share", "ratio", "higher"},
	{"server.ask_overhead_us", "us", "lower"},
	{"server.feedback_overhead_us", "us", "lower"},
	{"server.create_us", "us", "lower"},
	{"server.delete_us", "us", "lower"},
	{"server.history_us", "us", "lower"},
	{"server.sse_ask_overhead_us", "us", "lower"},
	{"server.wire_bytes_per_turn", "B", "lower"},
	{"server.recover_ms_per_1k_turns", "ms", "lower"},
	{"obs.metrics_overhead_us", "us", "lower"},
	{"obs.trace_span_ns", "ns", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"pubsub.publish_us", "us", "lower"},
	{"pubsub.publish_4sub_us", "us", "lower"},
	{"pubsub.events_per_turn", "count", "lower"},
	{"persist.append_off_us", "us", "lower"},
	{"persist.append_always_us", "us", "lower"},
	{"persist.fsync_us", "us", "lower"},
	{"persist.bytes_per_turn", "B", "lower"},
	{"persist.fsyncs_per_turn", "count", "lower"},
	{"persist.open_replay_ms_per_10k", "ms", "lower"},
	{"persist.checkpoint_ms", "ms", "lower"},
	{"cluster.owner_ns", "ns", "lower"},
	{"cluster.router_hop_us", "us", "lower"},
	{"cluster.replicate_us", "us", "lower"},
	{"cluster.replicate_posts_per_turn", "count", "lower"},
	{"ladder.bare_us", "us", "lower"},
	{"ladder.metrics_us", "us", "lower"},
	{"ladder.journal_off_us", "us", "lower"},
	{"ladder.journal_always_us", "us", "lower"},
	{"ladder.batcher_us", "us", "lower"},
	{"ladder.admission_us", "us", "lower"},
	{"ladder.sub4_us", "us", "lower"},
	{"ladder.router_us", "us", "lower"},
	{"ladder.replicated_us", "us", "lower"},
	{"trace.overhead_share", "ratio", "higher"},
}

// layerValues collects the traced run's numbers by metric name.
type layerValues map[string]float64

// timeEach calls fn(i) for i in [0, n) and returns each call's duration in
// nanoseconds.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0))
	}
	return out
}

// loopNs times n calls of fn as one block and returns nanoseconds per call:
// for calls too short for a clock read each.
func loopNs(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func medianUs(ns []float64) float64 { return median(ns) / 1e3 }

// mallocsPer reports heap allocations and allocated bytes per call of fn
// over n calls. The counts are exact for single-goroutine code.
func mallocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	if n == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// askInput and fbInput are one turn's inputs to each layer, taken from the
// script by running the pipeline's own steps once, untimed.
type askInput struct {
	db     string
	demos  []prompt.Demo
	prompt string
}

type fbInput struct {
	db            string
	t             *turn
	op            dataset.Op
	routed        []feedback.RepairDemo
	demos         []prompt.Demo
	routingPrompt string
	repairPrompt  string
}

type sqlInput struct {
	db  string
	sql string
}

type layerInputs struct {
	asks     []askInput
	askTurns []*turn
	fbs      []fbInput
	sqls     []sqlInput
}

func demosOf(hits []rag.Result) []prompt.Demo {
	out := make([]prompt.Demo, 0, len(hits))
	for _, h := range hits {
		out = append(out, prompt.Demo{Question: h.Demo.Question, SQL: h.Demo.SQL})
	}
	return out
}

// collectInputs derives every layer's inputs for one corpus's share of the
// script.
func collectInputs(sc *script, c corpus) layerInputs {
	var in layerInputs
	sys := c.sys
	for si := range sc.sessions {
		ss := &sc.sessions[si]
		if ss.corpus != c.name {
			continue
		}
		schema := sys.DS.Schemas[ss.db]
		for ti := range ss.turns {
			t := &ss.turns[ti]
			demos := demosOf(sys.Store.Search(t.question, ss.db, sys.K))
			in.sqls = append(in.sqls, sqlInput{ss.db, t.sql})
			if !t.feedback {
				in.asks = append(in.asks, askInput{ss.db, demos, prompt.NL2SQL(schema, demos, t.question)})
				in.askTurns = append(in.askTurns, t)
				continue
			}
			op := feedback.ClassifyRouted(t.text)
			routed := feedback.SelectDemos(op, t.text, t.prevSQL, 0)
			in.fbs = append(in.fbs, fbInput{
				db: ss.db, t: t, op: op, routed: routed, demos: demos,
				routingPrompt: prompt.Routing(t.text),
				repairPrompt:  prompt.Repair(schema, demos, routed, &op, t.question, t.prevSQL, t.text, t.hl),
			})
		}
	}
	return in
}

// measurePipelineLayers times every pipeline layer's public function on the
// script's own inputs: retrieval, prompts, the simulated model, routing and
// correction, parse, plan, execution at x1, presentation, memo.
func measurePipelineLayers(v layerValues, sc *script, corpora []corpus) error {
	ctx := context.Background()
	perCorpus := map[string]layerInputs{}
	for _, c := range corpora {
		perCorpus[c.name] = collectInputs(sc, c)
	}
	// Timings are pooled over corpora; each call runs on its own corpus.
	var ns struct {
		search, nl2sql, repair, routing, gen, rep, route, coreRoute, correct, selectDemos,
		parse, prepare, run, present, answer []float64
	}
	var searchAllocs, runAllocs, calls, runs, promptBytes, prompts float64
	var hitNs, memoNs float64
	var hitN, memoN int
	for _, c := range corpora {
		in := perCorpus[c.name]
		sys := c.sys
		ds := sys.DS
		ns.search = append(ns.search, timeEach(len(in.asks), func(i int) {
			sys.Store.Search(in.askTurns[i].question, in.asks[i].db, sys.K)
		})...)
		a, _ := mallocsPer(len(in.asks), func(i int) { sys.Store.Search(in.askTurns[i].question, in.asks[i].db, sys.K) })
		searchAllocs += a * float64(len(in.asks))
		calls += float64(len(in.asks))
		ns.nl2sql = append(ns.nl2sql, timeEach(len(in.asks), func(i int) {
			prompt.NL2SQL(ds.Schemas[in.asks[i].db], in.asks[i].demos, in.askTurns[i].question)
		})...)
		ns.repair = append(ns.repair, timeEach(len(in.fbs), func(i int) {
			f := &in.fbs[i]
			prompt.Repair(ds.Schemas[f.db], f.demos, f.routed, &f.op, f.t.question, f.t.prevSQL, f.t.text, f.t.hl)
		})...)
		ns.routing = append(ns.routing, timeEach(len(in.fbs), func(i int) { prompt.Routing(in.fbs[i].t.text) })...)
		for i := range in.asks {
			promptBytes += float64(len(in.asks[i].prompt))
		}
		for i := range in.fbs {
			promptBytes += float64(len(in.fbs[i].routingPrompt) + len(in.fbs[i].repairPrompt))
		}
		prompts += float64(len(in.asks) + 2*len(in.fbs))

		var failed error
		complete := func(p string) {
			if _, err := sys.Client.Complete(ctx, llm.Request{Prompt: p}); err != nil && failed == nil {
				failed = err
			}
		}
		ns.gen = append(ns.gen, timeEach(len(in.asks), func(i int) { complete(in.asks[i].prompt) })...)
		ns.rep = append(ns.rep, timeEach(len(in.fbs), func(i int) { complete(in.fbs[i].repairPrompt) })...)
		ns.route = append(ns.route, timeEach(len(in.fbs), func(i int) { complete(in.fbs[i].routingPrompt) })...)
		if failed != nil {
			return fmt.Errorf("layer sweep: llm: %w", failed)
		}

		fq := sys.FISQL(sessionOpts)
		ns.coreRoute = append(ns.coreRoute, timeEach(len(in.fbs), func(i int) {
			if _, err := fq.Route(ctx, in.fbs[i].t.text); err != nil && failed == nil {
				failed = err
			}
		})...)
		ns.correct = append(ns.correct, timeEach(len(in.fbs), func(i int) {
			f := &in.fbs[i]
			sql, err := fq.Correct(ctx, f.db, f.t.question, f.t.prevSQL, feedback.Feedback{Text: f.t.text, Highlight: f.t.hl})
			if err == nil && sql != f.t.sql {
				err = fmt.Errorf("core.Correct answered %q, script has %q", sql, f.t.sql)
			}
			if err != nil && failed == nil {
				failed = err
			}
		})...)
		if failed != nil {
			return fmt.Errorf("layer sweep: core: %w", failed)
		}
		ns.selectDemos = append(ns.selectDemos, timeEach(len(in.fbs), func(i int) {
			feedback.SelectDemos(in.fbs[i].op, in.fbs[i].t.text, in.fbs[i].t.prevSQL, 0)
		})...)

		ns.parse = append(ns.parse, timeEach(len(in.sqls), func(i int) { _, _ = sqlparse.ParseSelect(in.sqls[i].sql) })...)
		plans := make([]*engine.Plan, len(in.sqls))
		ns.prepare = append(ns.prepare, timeEach(len(in.sqls), func(i int) {
			plans[i], _ = engine.Prepare(ds.DBs[in.sqls[i].db], in.sqls[i].sql)
		})...)
		cache := engine.NewCache(0)
		for i := range in.sqls {
			_, _ = cache.Plan(ds.DBs[in.sqls[i].db], in.sqls[i].sql)
		}
		hitNs += float64(len(in.sqls)) * loopNs(len(in.sqls), func(i int) { _, _ = cache.Plan(ds.DBs[in.sqls[i].db], in.sqls[i].sql) })
		hitN += len(in.sqls)
		runOne := func(i int) {
			if plans[i] != nil {
				_, _ = engine.NewExecutor(ds.DBs[in.sqls[i].db]).Run(plans[i])
			}
		}
		for i := range in.sqls { // first touch builds the per-table scan caches
			runOne(i)
		}
		ns.run = append(ns.run, timeEach(len(in.sqls), runOne)...)
		a, _ = mallocsPer(len(in.sqls), runOne)
		runAllocs += a * float64(len(in.sqls))
		runs += float64(len(in.sqls))
		ns.present = append(ns.present, timeEach(len(in.sqls), func(i int) {
			if plans[i] == nil {
				return
			}
			assistant.Reformulate(plans[i].Stmt)
			assistant.Explain(plans[i].Stmt)
			sqlast.PrintWithSpans(plans[i].Stmt)
		})...)
		// Assistant.Answer with the memo off and the plan cache cold: plan,
		// present and execute one SQL, as a first-touch feedback answer does.
		bare := &assistant.Assistant{Client: sys.Client, DS: ds, Store: sys.Store, K: sys.K, Cache: engine.NewCache(0)}
		ns.answer = append(ns.answer, timeEach(len(in.sqls), func(i int) { bare.Answer(ctx, in.sqls[i].db, in.sqls[i].sql) })...)
		// Assistant.Ask on a warm memo.
		memo := &assistant.Assistant{Client: sys.Client, DS: ds, Store: sys.Store, K: sys.K,
			Cache: engine.NewCache(0), Memo: assistant.NewAnswerMemo(0)}
		for i := range in.asks {
			if _, err := memo.Ask(ctx, in.asks[i].db, in.askTurns[i].question); err != nil {
				return fmt.Errorf("layer sweep: memo warm-up: %w", err)
			}
		}
		memoNs += float64(len(in.asks)) * loopNs(len(in.asks), func(i int) { _, _ = memo.Ask(ctx, in.asks[i].db, in.askTurns[i].question) })
		memoN += len(in.asks)
	}
	v["rag.search_us"] = medianUs(ns.search)
	v["rag.search_allocs"] = searchAllocs / calls
	v["prompt.nl2sql_us"] = medianUs(ns.nl2sql)
	v["prompt.repair_us"] = medianUs(ns.repair)
	v["prompt.routing_us"] = medianUs(ns.routing)
	v["prompt.bytes_mean"] = promptBytes / prompts
	v["llm.sim_generate_us"] = medianUs(ns.gen)
	v["llm.sim_repair_us"] = medianUs(ns.rep)
	v["llm.sim_route_us"] = medianUs(ns.route)
	v["core.route_us"] = medianUs(ns.coreRoute)
	v["core.correct_us"] = medianUs(ns.correct)
	v["feedback.select_demos_us"] = medianUs(ns.selectDemos)
	v["sqlparse.parse_us"] = medianUs(ns.parse)
	v["engine.prepare_us"] = medianUs(ns.prepare)
	v["engine.cache_hit_ns"] = hitNs / float64(hitN)
	v["engine.run_x1_us"] = medianUs(ns.run)
	v["engine.run_x1_allocs"] = runAllocs / runs
	v["assistant.present_us"] = medianUs(ns.present)
	v["assistant.answer_us"] = medianUs(ns.answer)
	v["assistant.memo_hit_ns"] = memoNs / float64(memoN)

	// The batcher's cost to a lone caller: Batcher.Complete minus a direct
	// Complete on the same routing prompts. With one caller no batch ever
	// fills, so every call waits out the collection deadline.
	sp := corpora[0]
	in := perCorpus[sp.name]
	n := len(in.fbs)
	if n > 64 {
		n = 64
	}
	if n > 0 {
		b := llm.NewBatcher(sp.sys.Client, llm.BatcherConfig{})
		direct := timeEach(n, func(i int) { _, _ = sp.sys.Client.Complete(ctx, llm.Request{Prompt: in.fbs[i].routingPrompt}) })
		batched := timeEach(n, func(i int) { _, _ = b.Complete(ctx, llm.Request{Prompt: in.fbs[i].routingPrompt}) })
		v["llm.batch_overhead_us"] = medianUs(batched) - medianUs(direct)
	}
	return nil
}

// measureDatasets times the corpus builders and the retrieval store build,
// and returns the corpora it built for the other sections to use.
func measureDatasets(v layerValues) (x1 []corpus, x10 *fisql.System, err error) {
	// The first build of a process also pays for growing the heap; the
	// second is what a build costs, and what the x10 build is compared to.
	var sp *dataset.Dataset
	builds := timeEach(2, func(int) {
		if err == nil {
			sp, err = spider.Build()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	v["dataset.build_spider_ms"] = math.Min(builds[0], builds[1]) / 1e6
	t0 := time.Now()
	ae, err := aep.Build()
	if err != nil {
		return nil, nil, err
	}
	v["dataset.build_aep_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	sp10, err := spider.BuildRows(scanRows)
	if err != nil {
		return nil, nil, err
	}
	// BuildRows builds the base corpus and then scales it; the scaling
	// share is what is left after a plain Build.
	v["dataset.scale_x10_ms"] = math.Max(0, ms(time.Since(t0))-v["dataset.build_spider_ms"])
	build := timeEach(5, func(int) { rag.NewStore(sp.Demos) })
	v["rag.build_ms"] = median(build) / 1e6
	x1 = []corpus{
		{name: "spider", sys: fisql.NewSystem(sp, llm.NewSim(sp))},
		{name: "aep", sys: fisql.NewSystem(ae, llm.NewSim(ae))},
	}
	return x1, fisql.NewSystem(sp10, llm.NewSim(sp10)), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// measureEngineX10 runs every SPIDER SQL of the script once on the x10
// corpus: the scan_heavy turn without its pipeline.
func measureEngineX10(v layerValues, sc *script, sys *fisql.System) {
	var sqls []sqlInput
	for si := range sc.sessions {
		ss := &sc.sessions[si]
		if ss.corpus != "spider" {
			continue
		}
		for ti := range ss.turns {
			sqls = append(sqls, sqlInput{ss.db, ss.turns[ti].sql})
		}
	}
	ds := sys.DS
	// Column-cache build cost: a table's first vectorized run builds its
	// typed columns, the second finds them. One probe per table.
	var buildNs float64
	for _, name := range sortedDBs(ds) {
		db := ds.DBs[name]
		for _, t := range db.Tables() {
			plan, err := engine.Prepare(db, "SELECT * FROM "+t.Name)
			if err != nil {
				continue
			}
			d := timeEach(2, func(int) { _, _ = engine.NewExecutor(db).Run(plan) })
			if d[0] > d[1] {
				buildNs += d[0] - d[1]
			}
		}
	}
	v["engine.columnar_build_ms"] = buildNs / 1e6
	plans := make([]*engine.Plan, len(sqls))
	for i := range sqls {
		plans[i], _ = engine.Prepare(ds.DBs[sqls[i].db], sqls[i].sql)
	}
	h0, f0 := columnarOf(ds)
	var rows float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run := timeEach(len(sqls), func(i int) {
		if plans[i] == nil {
			return
		}
		if res, err := engine.NewExecutor(ds.DBs[sqls[i].db]).Run(plans[i]); err == nil {
			rows += float64(len(res.Rows))
		}
	})
	runtime.ReadMemStats(&m1)
	h1, f1 := columnarOf(ds)
	sorted := sortedCopy(run)
	v["engine.run_x10_us"] = median(run) / 1e3
	v["engine.run_x10_p99_ms"] = percentile(sorted, 0.99) / 1e6
	v["engine.run_x10_alloc_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(sqls)) / 1024
	v["engine.rows_out_mean"] = rows / float64(len(sqls))
	v["engine.columnar_fallbacks"] = float64(f1 - f0)
	if tot := float64(h1 - h0 + f1 - f0); tot > 0 {
		v["engine.columnar_hit_share"] = float64(h1-h0) / tot
	}
}

func sortedDBs(ds *dataset.Dataset) []string {
	names := make([]string, 0, len(ds.DBs))
	for n := range ds.DBs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func columnarOf(ds *dataset.Dataset) (hits, falls int64) {
	for _, db := range ds.DBs {
		h, f := db.ColumnarStats()
		hits += h
		falls += f
	}
	return hits, falls
}

// ----------------------------------------------------------------------------
// Serving-side layers.

// sseSink is an in-process streaming ResponseWriter: it parses the SSE
// frames a handler writes into events.
type sseSink struct {
	mu     sync.Mutex
	hdr    http.Header
	code   int
	events []pubsub.Payload
	// flushed is closed at the first Flush — for GET /events that is the
	// moment the subscription exists — or when follow returns without one.
	flushed chan struct{}
	once    sync.Once
}

func newSSESink() *sseSink {
	return &sseSink{hdr: http.Header{}, code: http.StatusOK, flushed: make(chan struct{})}
}

func (s *sseSink) Header() http.Header  { return s.hdr }
func (s *sseSink) WriteHeader(code int) { s.code = code }
func (s *sseSink) Flush()               { s.once.Do(func() { close(s.flushed) }) }

func (s *sseSink) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ev pubsub.Payload
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Type = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.Data = []byte(line[len("data: "):])
		}
	}
	if ev.Type != "" {
		s.events = append(s.events, ev)
	}
	return len(b), nil
}

// follow runs GET /v1/sessions/{id}/events against h until the session's
// topic closes or ctx is done.
func follow(ctx context.Context, h http.Handler, id string, sink *sseSink) {
	defer sink.Flush() // releases a waiter even when the subscribe failed
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/v1/sessions/"+id+"/events", nil)
	if err != nil {
		return
	}
	h.ServeHTTP(sink, req)
}

// captureTurnEvents drives the script's first session through a fresh
// server and returns the events the server published for it, one batch per
// turn.
func captureTurnEvents(sc *script, corpora []corpus) ([][]pubsub.Payload, error) {
	one := &script{sessions: sc.sessions[:1]}
	si, err := newServeInstance(one, corpora, false)
	if err != nil {
		return nil, err
	}
	sink := newSSESink()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		follow(ctx, si.srv, si.lane.live[0].id, sink)
	}()
	<-sink.flushed
	// Deleting the session closes its topic: the subscriber drains the ring
	// and its stream ends.
	si.lane.do(http.MethodDelete, si.lane.live[0].self, nil)
	<-done
	cancel()
	var turns [][]pubsub.Payload
	var cur []pubsub.Payload
	for _, ev := range sink.events {
		switch ev.Type {
		case "open", "delete":
			continue
		}
		cur = append(cur, ev)
		if ev.Type == "done" {
			turns = append(turns, cur)
			cur = nil
		}
	}
	if len(turns) == 0 {
		return nil, fmt.Errorf("pubsub capture: no turn events on the stream (status %d)", sink.code)
	}
	return turns, nil
}

// measurePubSub times Hub.Publish of real turn batches with no subscriber
// and with four draining ones.
func measurePubSub(v layerValues, turns [][]pubsub.Payload) {
	const rounds = 200
	bench := func(subs int) float64 {
		hub := pubsub.NewHub(0)
		hub.Open("s")
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for k := 0; k < subs; k++ {
			sub, err := hub.Subscribe("s", 0)
			if err != nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, _, ok := sub.Next(ctx); !ok {
						return
					}
				}
			}()
		}
		n := rounds * len(turns)
		perCall := timeEach(n, func(i int) { hub.Publish("s", turns[i%len(turns)]...) })
		hub.CloseTopic("s")
		cancel()
		wg.Wait()
		return medianUs(perCall)
	}
	v["pubsub.publish_us"] = bench(0)
	v["pubsub.publish_4sub_us"] = bench(4)
}

// journalRecords renders the script as the records a server journals for
// it: create, every turn, nothing deleted.
func journalRecords(sc *script) []persist.Record {
	var recs []persist.Record
	for i := range sc.sessions {
		ss := &sc.sessions[i]
		id := fmt.Sprintf("s%d", i+1)
		recs = append(recs, persist.Record{Type: persist.TCreate, Session: id, Corpus: ss.corpus, DB: ss.db, ID: int64(i + 1), HighlightStart: -1})
		for j := range ss.turns {
			t := &ss.turns[j]
			r := persist.Record{Type: persist.TAsk, Session: id, Text: t.question, HighlightStart: -1}
			if t.feedback {
				r = persist.Record{Type: persist.TFeedback, Session: id, Text: t.text, HighlightStart: -1}
				if t.hl != nil {
					r.Highlight, r.HighlightStart = t.hl.Text, t.hl.Start
				}
			}
			recs = append(recs, r)
		}
	}
	return recs
}

// measurePersist appends the script's records under each fsync policy and
// times reopening and checkpointing the result.
func measurePersist(v layerValues, sc *script, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	recs := journalRecords(sc)
	turns := float64(sc.turns())
	appendAll := func(path string, opts persist.Options) ([]float64, *persist.Journal, error) {
		j, err := persist.Open(path, opts)
		if err != nil {
			return nil, nil, err
		}
		var failed error
		ns := timeEach(len(recs), func(i int) {
			if err := j.Append(recs[i]); err != nil && failed == nil {
				failed = err
			}
		})
		return ns, j, failed
	}
	offPath := filepath.Join(dir, "off.journal")
	ns, j, err := appendAll(offPath, persist.Options{Fsync: persist.FsyncOff, CompactMinBytes: -1})
	if err != nil {
		return fmt.Errorf("persist off: %w", err)
	}
	v["persist.append_off_us"] = medianUs(ns)
	st := j.Stats()
	v["persist.bytes_per_turn"] = float64(st.Bytes) / turns
	if err := j.Close(); err != nil {
		return err
	}
	// Reopen: scan, CRC-check and index every record (what a restart pays
	// before replay starts).
	t0 := time.Now()
	j, err = persist.Open(offPath, persist.Options{Fsync: persist.FsyncOff, CompactMinBytes: -1})
	if err != nil {
		return err
	}
	v["persist.open_replay_ms_per_10k"] = ms(time.Since(t0)) * 1e4 / float64(len(recs))
	t0 = time.Now()
	if err := j.Checkpoint(); err != nil {
		return err
	}
	v["persist.checkpoint_ms"] = ms(time.Since(t0))
	if err := j.Close(); err != nil {
		return err
	}

	var fsyncNs []float64
	ns, j, err = appendAll(filepath.Join(dir, "always.journal"), persist.Options{
		Fsync: persist.FsyncAlways, CompactMinBytes: -1,
		FsyncObserver: func(d time.Duration) { fsyncNs = append(fsyncNs, float64(d)) },
	})
	if err != nil {
		return fmt.Errorf("persist always: %w", err)
	}
	v["persist.append_always_us"] = medianUs(ns)
	v["persist.fsync_us"] = medianUs(fsyncNs)
	v["persist.fsyncs_per_turn"] = float64(j.Stats().Fsyncs) / turns
	return j.Close()
}

// measureOwner times the placement function over a three-member view.
func measureOwner(v layerValues) {
	members := []cluster.Member{{ID: "node-0"}, {ID: "node-1"}, {ID: "node-2"}}
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i+1)
	}
	v["cluster.owner_ns"] = loopNs(64*len(ids), func(i int) { cluster.Owner(ids[i%len(ids)], members) })
}

// measureObs times one trace span and one metrics scrape.
func measureObs(v layerValues, si *serveInstance) {
	m := obs.NewMetrics()
	tr := m.StartTrace()
	v["obs.trace_span_ns"] = loopNs(1<<16, func(int) { tr.Start(obs.StageLLM).End() })
	tr.Finish()
	scrape := timeEach(20, func(int) { si.lane.do(http.MethodGet, "/v1/metrics", nil) })
	v["obs.scrape_ms"] = median(scrape) / 1e6
}
