package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fisql"
	"fisql/internal/llm"
	"fisql/internal/persist"
	"fisql/internal/server"
)

// rungResult is one measured configuration of the ladder.
type rungResult struct {
	Name      string  `json:"name"`
	UsPerTurn float64 `json:"us_per_turn"`
	AskP50Us  float64 `json:"ask_p50_us"`
	FbP50Us   float64 `json:"feedback_p50_us"`
	Passes    int     `json:"passes"`
}

// runRung warms inst with one pass and then measures passes passes: the
// per-turn cost is the median pass time over the script's turns, creates and
// deletes included, estimated as the end-to-end metrics are.
func runRung(name string, inst instance, passes int) (rungResult, error) {
	if err := warm(inst); err != nil {
		return rungResult{}, fmt.Errorf("rung %s: %w", name, err)
	}
	rec := &recorder{}
	sec := make([]float64, 0, passes)
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		inst.pass(rec)
		sec = append(sec, time.Since(t0).Seconds())
	}
	if rec.failed > 0 {
		return rungResult{}, fmt.Errorf("rung %s: %d failed turns: %s", name, rec.failed, rec.failure)
	}
	sc := inst.script()
	return rungResult{
		Name:      name,
		UsPerTurn: median(sec) * 1e6 / float64(sc.turns()),
		AskP50Us:  percentile(pooledMs(rec.askNs), 0.5) * 1e3,
		FbP50Us:   percentile(pooledMs(rec.fbNs), 0.5) * 1e3,
		Passes:    passes,
	}, nil
}

// withClient returns shallow copies of the corpora whose systems use wrap's
// client; the retrieval store, plan cache and memo stay shared, so the copy
// is as warm as the original.
func withClient(corpora []corpus, wrap func(llm.Client) llm.Client) []corpus {
	out := make([]corpus, len(corpora))
	for i, c := range corpora {
		cp := *c.sys
		cp.Client = wrap(c.sys.Client)
		out[i] = corpus{name: c.name, sys: &cp}
	}
	return out
}

// subscribers attaches n draining /events followers to every session a lane
// opens; each follower's stream ends when its session is deleted.
type subscribers struct {
	h  http.Handler
	n  int
	wg sync.WaitGroup
}

func (s *subscribers) attach(p turnPaths) {
	for k := 0; k < s.n; k++ {
		sink := newSSESink()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			follow(context.Background(), s.h, p.id, sink)
		}()
		<-sink.flushed // subscribed before the first turn is published
	}
}

const (
	// Pass counts per rung: most rungs cost 30-300 ms a pass; the two that
	// wait on something per turn (a flush, the batcher's deadline) cost
	// about a second.
	ladderFastPasses = 5
	ladderSlowPasses = 1
)

// measureLadder replays the warm script as each layer is switched on
// through its public option — ROADMAP's marginal-cost table — and derives
// the server-, obs- and cluster-level metrics that are differences between
// rungs.
func measureLadder(v layerValues, sc *script, corpora []corpus, dir string) ([]rungResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var rungs []rungResult
	add := func(name string, inst instance, passes int) (rungResult, error) {
		r, err := runRung(name, inst, passes)
		if err != nil {
			return r, err
		}
		rungs = append(rungs, r)
		v["ladder."+name+"_us"] = r.UsPerTurn
		return r, nil
	}

	bare, err := newServeInstance(sc, corpora, false)
	if err != nil {
		return nil, err
	}
	if _, err := add("bare", bare, ladderFastPasses); err != nil {
		return nil, err
	}

	withM, err := newServeInstance(sc, corpora, true)
	if err != nil {
		return nil, err
	}
	published0 := withM.metrics.Registry.Snapshot().Counters["fisql_pubsub_published_total"]
	acked0 := withM.lane.acked
	mRung, err := add("metrics", withM, ladderFastPasses)
	if err != nil {
		return nil, err
	}
	published1 := withM.metrics.Registry.Snapshot().Counters["fisql_pubsub_published_total"]
	v["obs.metrics_overhead_us"] = mRung.UsPerTurn - rungs[0].UsPerTurn
	v["pubsub.events_per_turn"] = float64(published1-published0) / float64(withM.lane.acked-acked0)
	v["server.wire_bytes_per_turn"] = float64(withM.lane.wire) / float64(withM.lane.acked)
	measureObs(v, withM)
	if err := measureServerOps(v, sc, withM, mRung); err != nil {
		return nil, err
	}

	// The same warm turns on a bare fisql.Session: what is left of a
	// ServeHTTP turn after subtracting it is the server's own share.
	lib := &libInstance{sc: sc, corpora: map[string]*fisql.System{}}
	for _, c := range corpora {
		lib.corpora[c.name] = c.sys
	}
	libRung, err := runRung("session", lib, ladderFastPasses)
	if err != nil {
		return nil, err
	}
	v["server.ask_overhead_us"] = mRung.AskP50Us - libRung.AskP50Us
	v["server.feedback_overhead_us"] = mRung.FbP50Us - libRung.FbP50Us

	for _, jr := range []struct {
		name   string
		policy persist.FsyncPolicy
		passes int
	}{{"journal_off", persist.FsyncOff, ladderFastPasses}, {"journal_always", persist.FsyncAlways, ladderSlowPasses}} {
		path := filepath.Join(dir, jr.name+".journal")
		j, err := persist.Open(path, persist.Options{Fsync: jr.policy, CompactMinBytes: -1})
		if err != nil {
			return nil, err
		}
		inst, err := newServeInstance(sc, corpora, true, server.WithJournal(j))
		if err == nil {
			_, err = add(jr.name, inst, jr.passes)
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if jr.policy == persist.FsyncOff {
			// Close checkpointed the journal down to the last pass's open
			// sessions; a restart replays exactly those through the pipeline.
			if err := measureRecovery(v, corpora, path); err != nil {
				return nil, err
			}
		}
	}

	batched := withClient(corpora, func(c llm.Client) llm.Client { return llm.NewBatcher(c, llm.BatcherConfig{}) })
	inst, err := newServeInstance(sc, batched, true)
	if err != nil {
		return nil, err
	}
	if _, err := add("batcher", inst, ladderSlowPasses); err != nil {
		return nil, err
	}

	// Admission with limits no single client can reach: the cost of the
	// gate itself.
	inst, err = newServeInstance(sc, corpora, true, server.WithAdmission(server.AdmissionConfig{
		AskConcurrency: 64, FeedbackConcurrency: 64}))
	if err != nil {
		return nil, err
	}
	if _, err := add("admission", inst, ladderFastPasses); err != nil {
		return nil, err
	}

	inst, err = newServeInstance(sc, corpora, true)
	if err != nil {
		return nil, err
	}
	subs := &subscribers{h: inst.srv, n: 4}
	inst.lane.onCreate = subs.attach
	_, err = add("sub4", inst, ladderFastPasses)
	inst.lane.deleteLive(&recorder{})
	subs.wg.Wait()
	if err != nil {
		return nil, err
	}

	// Loopback-HTTP rungs, one client, journals unflushed as in
	// cluster_durable (a flush's cost is the journal_always rung, and it
	// drowns differences between rungs): a single node behind the router,
	// then the same node with two peers so every turn replicates.
	single, err := newClusterInstance(sc, corpora, filepath.Join(dir, "ladder-single"),
		clusterOptions{nodes: 1, clients: 1, fsync: persist.FsyncOff, metrics: true})
	if err != nil {
		return nil, err
	}
	routed, err := add("router", single, ladderFastPasses)
	if err == nil {
		// The same turns straight at the owner node, skipping the router.
		direct := single.direct()
		var dr rungResult
		if dr, err = runRung("node_direct", direct, ladderFastPasses); err == nil {
			v["cluster.router_hop_us"] = routed.UsPerTurn - dr.UsPerTurn
		}
	}
	single.close()
	if err != nil {
		return nil, err
	}
	repl, err := newClusterInstance(sc, corpora, filepath.Join(dir, "ladder-repl"),
		clusterOptions{nodes: clusterNodes, clients: 1, fsync: persist.FsyncOff, metrics: true})
	if err != nil {
		return nil, err
	}
	recs0, acked0 := repl.replicatedRecords(), repl.lanes[0].acked
	rr, err := add("replicated", repl, ladderFastPasses)
	if err == nil {
		v["cluster.replicate_us"] = rr.UsPerTurn - routed.UsPerTurn
		v["cluster.replicate_posts_per_turn"] = float64(repl.replicatedRecords()-recs0) / float64(repl.lanes[0].acked-acked0)
	}
	repl.close()
	return rungs, err
}

// measureServerOps times the operations beside the turns: create, delete,
// history of a worked session, and a streamed ask against the plain one.
func measureServerOps(v layerValues, sc *script, si *serveInstance, plain rungResult) error {
	n := len(sc.sessions)
	if n > 64 {
		n = 64
	}
	do := si.lane.do
	var create, del, hist []float64
	for i := 0; i < n; i++ {
		ss := &sc.sessions[i]
		t0 := time.Now()
		code, body := do(http.MethodPost, "/v1/sessions", ss.createBody)
		create = append(create, float64(time.Since(t0)))
		id, err := sessionIDOf(body)
		if code != http.StatusOK || err != nil {
			return fmt.Errorf("server ops: create: status %d %v", code, err)
		}
		p := pathsFor(id)
		for j := range ss.turns {
			path := p.ask
			if ss.turns[j].feedback {
				path = p.feedback
			}
			if code, body := do(http.MethodPost, path, ss.turns[j].body); code != http.StatusOK {
				return fmt.Errorf("server ops: turn: status %d: %s", code, body)
			}
		}
		t0 = time.Now()
		code, _ = do(http.MethodGet, p.self+"/history", nil)
		hist = append(hist, float64(time.Since(t0)))
		if code != http.StatusOK {
			return fmt.Errorf("server ops: history: status %d", code)
		}
		t0 = time.Now()
		code, _ = do(http.MethodDelete, p.self, nil)
		del = append(del, float64(time.Since(t0)))
		if code != http.StatusOK {
			return fmt.Errorf("server ops: delete: status %d", code)
		}
	}
	v["server.create_us"] = medianUs(create)
	v["server.delete_us"] = medianUs(del)
	v["server.history_us"] = medianUs(hist)

	// Streamed asks: the same questions with Accept: text/event-stream.
	var streamed []float64
	req := &http.Request{Method: http.MethodPost, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}, "Accept": {"text/event-stream"}},
		URL:    &url.URL{}, Host: "bench"}
	var rb reqBody
	for i := 0; i < n; i++ {
		ss := &sc.sessions[i]
		code, body := do(http.MethodPost, "/v1/sessions", ss.createBody)
		id, err := sessionIDOf(body)
		if code != http.StatusOK || err != nil {
			return fmt.Errorf("server ops: create: status %d %v", code, err)
		}
		p := pathsFor(id)
		for j := range ss.turns {
			t := &ss.turns[j]
			if t.feedback {
				do(http.MethodPost, p.feedback, t.body)
				continue
			}
			sink := newSSESink()
			req.URL.Path = p.ask
			rb.Reset(t.body)
			req.Body = &rb
			req.ContentLength = int64(len(t.body))
			t0 := time.Now()
			si.srv.ServeHTTP(sink, req)
			streamed = append(streamed, float64(time.Since(t0)))
			if sink.code != http.StatusOK || len(sink.events) == 0 {
				return fmt.Errorf("server ops: streamed ask: status %d, %d events", sink.code, len(sink.events))
			}
		}
		do(http.MethodDelete, p.self, nil)
	}
	v["server.sse_ask_overhead_us"] = medianUs(streamed) - plain.AskP50Us
	return nil
}

// measureRecovery restarts a server over a recorded journal and reports the
// replay time per thousand turns.
func measureRecovery(v layerValues, corpora []corpus, path string) error {
	j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff, CompactMinBytes: -1})
	if err != nil {
		return err
	}
	turns := 0
	for _, r := range j.Records() {
		if r.Type == persist.TAsk || r.Type == persist.TFeedback {
			turns++
		}
	}
	srv := server.New(factories(corpora), server.WithJournal(j))
	rec := srv.Recovery()
	if err := j.Close(); err != nil {
		return err
	}
	if turns == 0 || rec.Skipped > 0 {
		return fmt.Errorf("recovery: %d turns replayed, %d records skipped", turns, rec.Skipped)
	}
	v["server.recover_ms_per_1k_turns"] = ms(rec.Duration) * 1000 / float64(turns)
	return nil
}
