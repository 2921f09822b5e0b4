// Chaos suite for node failover: kill the owning node at randomized points
// of the request lifecycle — idle between turns, mid-request before the
// journal append, mid-request after the append (via fsync-observer
// injection), mid-SSE stream — and require that every acknowledged turn
// survives promotion with its history bytes intact. The contract under
// test, shared with DESIGN.md "Cluster serving":
//
//   - a turn acknowledged (200/done) before the kill is present,
//     byte-identical, in the promoted node's recovered history;
//   - a turn in flight at the kill either vanishes entirely or appears as
//     a well-formed trailing turn (persisttest.TurnsPrefix) — never as a
//     mutation of acknowledged bytes;
//   - session ids are never reissued across a promotion, even by a
//     restarted router.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/persist/persisttest"
)

// tryPost is the goroutine-safe request helper (no testing.T): chaos tests
// fire turns concurrently with the kill, where any outcome from 200 to a
// transport error is legitimate.
func (tc *testCluster) tryPost(path string, body any) (int, error) {
	buf, _ := json.Marshal(body)
	resp, err := tc.client.Post(tc.url()+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, nil
}

// tryGet is tryPost for GET requests.
func (tc *testCluster) tryGet(path string) (int, error) {
	resp, err := tc.client.Get(tc.url() + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// victimWithSessions picks the node owning the most sessions — killing an
// idle node would make the failover assertions vacuous.
func victimWithSessions(t *testing.T, tc *testCluster) *testNode {
	t.Helper()
	var victim *testNode
	most := 0
	for _, tn := range tc.nodes {
		if tn.killed {
			continue
		}
		if n := len(tn.node.Server().SessionIDs()); n > most {
			victim, most = tn, n
		}
	}
	if victim == nil {
		t.Fatal("no node owns any session")
	}
	return victim
}

// TestFailoverByteIdentical is the deterministic core: a mixed workload
// (asks, grounded feedback, SSE turns), an idle kill of the busiest node,
// explicit failover, and a byte-for-byte comparison of every session's
// history — including the dead node's sessions, now served by the node
// that held their replicas.
func TestFailoverByteIdentical(t *testing.T) {
	rm := obs.NewMetrics()
	tc := newTestCluster(t, 3, clusterOptions{routerMetrics: rm, nodeMetrics: true})

	ids := make([]string, 0, 15)
	for i := 0; i < 15; i++ {
		id := tc.createSession(t)
		ids = append(ids, id)
		code, ans := tc.ask(t, id, askQuestion)
		if code != http.StatusOK {
			t.Fatalf("ask: %d", code)
		}
		switch i % 3 {
		case 0:
			sql, _ := ans["sql"].(string)
			if off := strings.Index(sql, "2023"); off >= 0 {
				tc.postJSON("/v1/sessions/"+id+"/feedback", map[string]any{
					"text": "we are in 2024", "highlight": "2023", "highlight_start": off})
			}
		case 1:
			tc.feedback(t, id, "only the top 5")
		}
	}
	capture, err := persisttest.Capture(tc.client, tc.url(), ids)
	if err != nil {
		t.Fatal(err)
	}

	victim := victimWithSessions(t, tc)
	victimOwned := len(victim.node.Server().SessionIDs())
	victim.kill(false)
	tc.router.MarkDead(victim.id)

	if diffs := persisttest.DiffHistories(tc.client, tc.url(), capture); diffs != nil {
		t.Errorf("histories drifted across failover:\n%s", strings.Join(diffs, "\n"))
	}
	// The dead node's sessions moved to exactly the survivors rendezvous
	// ranks first, and every one keeps taking turns.
	for _, id := range ids {
		owner := tc.ownerOf(id)
		if owner.id == victim.id {
			t.Fatalf("dead node still resolves as owner of %s", id)
		}
		if code, out := tc.ask(t, id, "second question about audiences"); code != http.StatusOK {
			t.Errorf("post-failover ask %s: %d %v", id, code, out)
		}
	}
	// Router metrics observed the failover.
	snap := func(name string) int64 { return rm.Registry.Snapshot().Counters[name] }
	if v := snap("fisql_cluster_failovers_total"); v != 1 {
		t.Errorf("failovers_total = %d, want 1", v)
	}
	if v := snap("fisql_cluster_sessions_promoted_total"); v != int64(victimOwned) {
		t.Errorf("sessions_promoted_total = %d, victim owned %d", v, victimOwned)
	}
	// Survivors' metrics endpoints stay well-formed in both formats.
	for _, tn := range tc.nodes {
		if tn.killed {
			continue
		}
		resp, err := tc.client.Get(tn.ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatalf("metrics on %s: %v", tn.id, err)
		}
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Errorf("metrics JSON on %s: %v", tn.id, err)
		}
		resp.Body.Close()
	}
}

// TestFailoverRandomizedKillPoints kills the owner at a seeded-random
// point relative to an in-flight turn: idle, mid-request with the journal
// already dead (the turn must vanish), or mid-request with connections cut
// first (the turn may have reached the journal and follower — it may
// survive, but only as a whole trailing turn).
func TestFailoverRandomizedKillPoints(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			tc := newTestCluster(t, 3, clusterOptions{})

			ids := make([]string, 0, 6)
			for i := 0; i < 6; i++ {
				id := tc.createSession(t)
				ids = append(ids, id)
				for n := 1 + rng.Intn(3); n > 0; n-- {
					if code, _ := tc.ask(t, id, askQuestion); code != http.StatusOK {
						t.Fatalf("ask: %d", code)
					}
				}
			}
			capture, err := persisttest.Capture(tc.client, tc.url(), ids)
			if err != nil {
				t.Fatal(err)
			}

			victim := victimWithSessions(t, tc)
			// The in-flight turn targets one of the victim's own sessions.
			victimSessions := victim.node.Server().SessionIDs()
			target := victimSessions[rng.Intn(len(victimSessions))]

			mode := rng.Intn(3)
			var inFlight atomic.Bool
			var wg sync.WaitGroup
			if mode != 0 {
				inFlight.Store(true)
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Any outcome is legal: 200 (retried onto the promoted
					// node), 404/410/5xx (caught mid-move), transport error.
					_, _ = tc.tryPost("/v1/sessions/"+target+"/ask",
						map[string]string{"question": "in-flight question"})
				}()
				time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
			}
			victim.kill(mode == 1)
			wg.Wait()
			tc.router.MarkDead(victim.id)

			for _, id := range ids {
				post, err := persisttest.History(tc.client, tc.url(), id)
				if err != nil {
					t.Fatalf("session %s lost in failover: %v", id, err)
				}
				pre := capture[id]
				if id == target && inFlight.Load() {
					if !persisttest.TurnsPrefix(pre, post) {
						t.Errorf("in-flight session %s: acknowledged turns corrupted:\npre:  %s\npost: %s",
							id, pre, post)
					}
					continue
				}
				if !bytes.Equal(post, pre) {
					t.Errorf("session %s drifted:\npre:  %s\npost: %s", id, pre, post)
				}
			}
			// The survivors keep serving every session.
			for _, id := range ids {
				if code, out := tc.ask(t, id, "post-failover question"); code != http.StatusOK {
					t.Errorf("post-failover ask %s: %d %v", id, code, out)
				}
			}
		})
	}
}

// TestFailoverKillAfterJournalAppend pins the nastiest window with fault
// injection: the fsync observer fires inside Append — after the turn hit
// the owner's journal, before the response — and cuts the node's network
// there. The turn was locally durable and (the handler goroutine still
// runs) typically replicated, but never acknowledged: the recovered
// history must extend the acknowledged capture by whole turns only.
func TestFailoverKillAfterJournalAppend(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{fsync: persist.FsyncAlways})

	id := tc.createSession(t)
	if code, _ := tc.ask(t, id, askQuestion); code != http.StatusOK {
		t.Fatalf("baseline ask failed")
	}
	capture, err := persisttest.Capture(tc.client, tc.url(), []string{id})
	if err != nil {
		t.Fatal(err)
	}

	victim := tc.ownerOf(id)
	var armed atomic.Bool
	var once sync.Once
	victim.journal.SetFsyncObserver(func(time.Duration) {
		if !armed.Load() {
			return
		}
		once.Do(func() {
			// Cut the network only: the journal stays alive, so the append
			// that triggered this fsync commits, and in-process replication
			// to the follower still goes through.
			victim.ts.Listener.Close()
			victim.ts.CloseClientConnections()
		})
	})
	armed.Store(true)
	// The ask's journal append fsyncs, the observer kills the network, the
	// response dies on the closed connection, and the router retries onto
	// the promoted follower. 200 means the turn was finally acknowledged
	// (possibly applied twice — documented at-least-once); an error means
	// it stayed unacknowledged. Either way no acknowledged byte may change.
	code, _ := tc.tryPost("/v1/sessions/"+id+"/ask", map[string]string{"question": "second question"})
	armed.Store(false)
	tc.router.MarkDead(victim.id)
	victim.journal.Crash()
	victim.replica.Crash()
	victim.killed = true

	post, err := persisttest.History(tc.client, tc.url(), id)
	if err != nil {
		t.Fatalf("session lost: %v", err)
	}
	if !persisttest.TurnsPrefix(capture[id], post) {
		t.Errorf("acknowledged turns corrupted (in-flight code %d):\npre:  %s\npost: %s",
			code, capture[id], post)
	}
	if code == http.StatusOK && bytes.Equal(post, capture[id]) {
		t.Errorf("turn was acknowledged after retry but is absent from the history")
	}
	if code2, _ := tc.ask(t, id, "third question"); code2 != http.StatusOK {
		t.Errorf("post-failover ask: %d", code2)
	}
}

// TestFailoverMidSSEStream kills the owner while an SSE response is
// streaming: the client's stream is torn mid-events (the router cannot
// retry once bytes have flowed), but the session survives on the promoted
// follower with its acknowledged turns intact.
func TestFailoverMidSSEStream(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})

	id := tc.createSession(t)
	if code, _ := tc.ask(t, id, askQuestion); code != http.StatusOK {
		t.Fatalf("baseline ask failed")
	}
	capture, err := persisttest.Capture(tc.client, tc.url(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	victim := tc.ownerOf(id)

	body, _ := json.Marshal(map[string]string{"question": "streamed question"})
	req, _ := http.NewRequest(http.MethodPost, tc.url()+"/v1/sessions/"+id+"/ask", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := tc.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read up to the first committed event, then kill the owner under the
	// open stream.
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil || strings.HasPrefix(line, "event: ") {
			break
		}
	}
	victim.kill(false)
	_, _ = br.ReadString(0) // drain whatever survives the cut; error expected
	resp.Body.Close()
	tc.router.MarkDead(victim.id)

	post, err := persisttest.History(tc.client, tc.url(), id)
	if err != nil {
		t.Fatalf("session lost: %v", err)
	}
	if !persisttest.TurnsPrefix(capture[id], post) {
		t.Errorf("acknowledged turns corrupted:\npre:  %s\npost: %s", capture[id], post)
	}
	if code, _ := tc.ask(t, id, "post-stream question"); code != http.StatusOK {
		t.Errorf("post-failover ask: %d", code)
	}
}

// TestDrainThenKillNewOwner pins the drain→failover composition: the
// drained node's handoffs must leave every moved session with a LIVE
// replica on its new rendezvous follower — the handoff marker is local
// bookkeeping and must never be replicated, because the replica journal
// treats it like a delete and the post-drain follower is exactly the node
// the new owner just full-synced. Losing the new owner right after the
// drain (and after further acknowledged turns) must therefore still
// recover every session byte-identically. Regression test for the
// moved-sessions-become-single-copy bug.
func TestDrainThenKillNewOwner(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})

	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		id := tc.createSession(t)
		ids = append(ids, id)
		if code, _ := tc.ask(t, id, askQuestion); code != http.StatusOK {
			t.Fatalf("ask: %d", code)
		}
	}

	drained := victimWithSessions(t, tc)
	code, out := tc.postJSON("/internal/cluster/drain", map[string]string{"id": drained.id})
	if code != http.StatusOK {
		t.Fatalf("drain: %d %v", code, out)
	}

	// Every session has two copies again: its new owner's journal and a
	// live replica on its new follower. Under the bug the replicated
	// handoff record deleted exactly these replicas.
	members := tc.router.Members()
	for _, id := range ids {
		f, ok := Follower(id, members)
		if !ok {
			t.Fatal("no follower among the survivors")
		}
		if tc.nodes[f.ID].replica.SessionRecords(id) == nil {
			t.Errorf("session %s has no live replica on follower %s after drain", id, f.ID)
		}
	}

	// Post-drain turns must replicate incrementally onto those replicas —
	// under the bug they were silently dropped against the dead replica
	// session, so the damage would only show at the next failover.
	for _, id := range ids {
		if code, out := tc.ask(t, id, "post-drain question"); code != http.StatusOK {
			t.Fatalf("post-drain ask %s: %d %v", id, code, out)
		}
	}
	capture, err := persisttest.Capture(tc.client, tc.url(), ids)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the busier survivor — it owns sessions the drain just moved onto
	// it. The last node must recover all of them from its replicas.
	second := victimWithSessions(t, tc)
	if second.id == drained.id {
		t.Fatal("drained node still owns sessions")
	}
	second.kill(false)
	tc.router.MarkDead(second.id)

	if diffs := persisttest.DiffHistories(tc.client, tc.url(), capture); diffs != nil {
		t.Errorf("acknowledged turns lost across drain+failover:\n%s", strings.Join(diffs, "\n"))
	}
	for _, id := range ids {
		if code, out := tc.ask(t, id, "post-failover question"); code != http.StatusOK {
			t.Errorf("post-failover ask %s: %d %v", id, code, out)
		}
	}
}

// TestFailoverHealthLoopPromotes exercises the detection path the others
// bypass: no explicit MarkDead — the router's background health loop must
// notice the dead node and run the same promotion.
func TestFailoverHealthLoopPromotes(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{healthInterval: 20 * time.Millisecond})

	ids := make([]string, 0, 9)
	for i := 0; i < 9; i++ {
		id := tc.createSession(t)
		ids = append(ids, id)
		tc.ask(t, id, askQuestion)
	}
	capture, err := persisttest.Capture(tc.client, tc.url(), ids)
	if err != nil {
		t.Fatal(err)
	}
	victim := victimWithSessions(t, tc)
	victim.kill(false)

	deadline := time.Now().Add(10 * time.Second)
	for len(tc.router.Members()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("health loop never removed the dead node; members: %v", tc.router.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if diffs := persisttest.DiffHistories(tc.client, tc.url(), capture); diffs != nil {
		t.Errorf("histories drifted across health-loop failover:\n%s", strings.Join(diffs, "\n"))
	}
}

// TestFailoverNoIDReuse: ids stay unique across promotion AND across a
// router restart — the new router seeds its counter from the surviving
// nodes' journal watermarks, which cover even sessions that died with the
// failed node.
func TestFailoverNoIDReuse(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})

	seen := map[string]bool{}
	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		id := tc.createSession(t)
		if seen[id] {
			t.Fatalf("id %s issued twice", id)
		}
		seen[id] = true
		ids = append(ids, id)
		tc.ask(t, id, askQuestion)
	}
	capture, err := persisttest.Capture(tc.client, tc.url(), ids)
	if err != nil {
		t.Fatal(err)
	}
	victim := victimWithSessions(t, tc)
	victim.kill(false)
	tc.router.MarkDead(victim.id)

	// A fresh router over the survivors — counter starts at zero and must
	// re-seed itself above every id ever issued.
	rt2 := NewRouter(RouterConfig{Members: tc.router.Members()})
	ts2 := httptest.NewServer(rt2)
	defer func() {
		rt2.Close()
		ts2.Close()
	}()
	client := tc.client
	for i := 0; i < 6; i++ {
		var out map[string]any
		resp, err := client.Post(ts2.URL+"/v1/sessions", "application/json",
			strings.NewReader(`{"corpus":"aep"}`))
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		id, _ := out["session_id"].(string)
		if id == "" || seen[id] {
			t.Fatalf("restarted router reissued or failed to issue an id: %q (out %v)", id, out)
		}
		seen[id] = true
	}
	// Old sessions remain reachable, byte-identical, through the new router.
	if diffs := persisttest.DiffHistories(client, ts2.URL, capture); diffs != nil {
		t.Errorf("histories drifted through restarted router:\n%s", strings.Join(diffs, "\n"))
	}
}

// loadWorker is one session's traffic source in TestFailoverUnderLoad.
// acked holds the question of every ask the router acknowledged with 200,
// in send order.
type loadWorker struct {
	id         string
	acked      []string
	violations []string
}

// note records a response outside the clean contract: a transport error,
// which the router exists to absorb, or any status but 200 and 429.
func (lw *loadWorker) note(code int, err error, op string) {
	switch {
	case err != nil:
		lw.violations = append(lw.violations, fmt.Sprintf("%s: transport error: %v", op, err))
	case code != http.StatusOK && code != http.StatusTooManyRequests:
		lw.violations = append(lw.violations, fmt.Sprintf("%s: status %d", op, code))
	}
}

// missingAcked returns the first acknowledged question that does not
// appear, in order, among the history's user turns, or "" when all do. A
// greedy in-order match: repeated questions and a turn applied twice by a
// retried forward both match.
func missingAcked(history []byte, acked []string) string {
	var h struct {
		Turns []struct {
			Role string `json:"role"`
			Text string `json:"text"`
		} `json:"turns"`
	}
	if err := json.Unmarshal(history, &h); err != nil {
		return fmt.Sprintf("<unparseable history: %v>", err)
	}
	i := 0
	for _, turn := range h.Turns {
		if i < len(acked) && turn.Role == "user" && turn.Text == acked[i] {
			i++
		}
	}
	if i < len(acked) {
		return acked[i]
	}
	return ""
}

// checkMetricsEndpoint requires base's /v1/metrics to answer 200 with a
// JSON snapshot whose every histogram has buckets ending in +Inf at its
// count.
func checkMetricsEndpoint(client *http.Client, base string) error {
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("body did not decode: %v", err)
	}
	for name, h := range snap.Histograms {
		if n := len(h.Buckets); h.Count < 0 || n == 0 || h.Buckets[n-1].LE != "+Inf" || h.Buckets[n-1].Count != h.Count {
			return fmt.Errorf("histogram %s malformed: %+v", name, h)
		}
	}
	return nil
}

// TestFailoverUnderLoad is the chaos scenario: twelve sessions drive asks
// and history reads at a three-node cluster, the busiest node dies
// crash-style between two phases of traffic, and nobody calls MarkDead, so
// detection must come from a failing forward or the health loop. Clients
// see only 200 or 429 throughout. Every turn acknowledged before the kill
// survives byte for byte as a prefix of the final history, and every turn
// acknowledged in either phase appears in it in order. The router counts
// the failover and the promotions and ends with the survivors, new
// sessions work, and the router's and survivors' metrics stay well-formed.
func TestFailoverUnderLoad(t *testing.T) {
	const (
		sessions = 12
		opsPhase = 30 // requests per session per phase
	)
	rm := obs.NewMetrics()
	tc := newTestCluster(t, 3, clusterOptions{
		healthInterval: 25 * time.Millisecond,
		fsync:          persist.FsyncInterval,
		routerMetrics:  rm,
		nodeMetrics:    true,
		token:          "chaos-token",
	})
	questions := factory(t).ds.Examples

	workers := make([]*loadWorker, sessions)
	for w := range workers {
		workers[w] = &loadWorker{id: tc.createSession(t)}
	}
	drive := func(phase int64) {
		var wg sync.WaitGroup
		for w, lw := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(phase*100 + int64(w)))
				for op := 0; op < opsPhase; op++ {
					if len(lw.acked) > 0 && rng.Intn(4) == 0 {
						code, err := tc.tryGet("/v1/sessions/" + lw.id + "/history")
						lw.note(code, err, "history")
						continue
					}
					q := questions[rng.Intn(len(questions))].Question
					code, err := tc.tryPost("/v1/sessions/"+lw.id+"/ask", map[string]string{"question": q})
					lw.note(code, err, "ask")
					if err == nil && code == http.StatusOK {
						lw.acked = append(lw.acked, q)
					}
				}
			}()
		}
		wg.Wait()
	}

	drive(1)
	ids := make([]string, sessions)
	for w, lw := range workers {
		ids[w] = lw.id
	}
	preKill, err := persisttest.Capture(tc.client, tc.url(), ids)
	if err != nil {
		t.Fatal(err)
	}
	victim := victimWithSessions(t, tc)
	victimOwned := len(victim.node.Server().SessionIDs())
	victim.kill(false)
	drive(2)
	for i := 0; i < 3; i++ {
		id := tc.createSession(t)
		if code, out := tc.ask(t, id, questions[i].Question); code != http.StatusOK {
			t.Errorf("post-failover ask on new session %s: %d %v", id, code, out)
		}
	}

	for _, lw := range workers {
		for _, v := range lw.violations {
			t.Errorf("session %s: %s", lw.id, v)
		}
		post, err := persisttest.History(tc.client, tc.url(), lw.id)
		if err != nil {
			t.Errorf("session %s lost after failover: %v", lw.id, err)
			continue
		}
		if !persisttest.TurnsPrefix(preKill[lw.id], post) {
			t.Errorf("session %s: pre-kill acknowledged turns are not an intact prefix:\npre:  %s\npost: %s",
				lw.id, preKill[lw.id], post)
		}
		if miss := missingAcked(post, lw.acked); miss != "" {
			t.Errorf("session %s: acknowledged turn %q lost", lw.id, miss)
		}
	}
	snap := rm.Registry.Snapshot()
	if got := snap.Counters["fisql_cluster_failovers_total"]; got < 1 {
		t.Errorf("fisql_cluster_failovers_total = %d, want >= 1", got)
	}
	if got := snap.Counters["fisql_cluster_sessions_promoted_total"]; got < int64(victimOwned) {
		t.Errorf("fisql_cluster_sessions_promoted_total = %d, victim owned %d", got, victimOwned)
	}
	if got := len(tc.router.Members()); got != 2 {
		t.Errorf("%d members after failover, want 2", got)
	}
	targets := []string{tc.url()}
	for _, tn := range tc.nodes {
		if !tn.killed {
			targets = append(targets, tn.ts.URL)
		}
	}
	for _, base := range targets {
		if err := checkMetricsEndpoint(tc.client, base); err != nil {
			t.Errorf("metrics on %s: %v", base, err)
		}
	}
}
