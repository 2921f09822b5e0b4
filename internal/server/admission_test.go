package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fisql/internal/assistant"
	"fisql/internal/core"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/persist/persisttest"
)

// clientFactory is testFactory with the LLM client swapped out, for tests
// that need to block or fault-inject the model path.
type clientFactory struct {
	*testFactory
	client llm.Client
}

func (f *clientFactory) NewSession(db string) *core.Session {
	asst := &assistant.Assistant{Client: f.client, DS: f.ds, Store: f.store, K: 8, Cache: f.cache}
	method := &core.FISQL{Client: f.client, DS: f.ds, Store: f.store, K: 8, Routing: true, Highlights: true}
	return core.NewSession(asst, method, db)
}

// gateClient parks every Complete call until release closes, so a test can
// hold pipeline slots occupied at will.
type gateClient struct {
	inner   llm.Client
	started chan struct{} // one token per call that reached the gate
	release chan struct{}
}

func (g *gateClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return llm.Response{}, ctx.Err()
	}
	return g.inner.Complete(ctx, req)
}

// admissionServer builds a server over the shared corpus with the given
// client and admission config, returning the Server for white-box checks.
func admissionServer(t *testing.T, client llm.Client, cfg AdmissionConfig) (*Server, *httptest.Server) {
	t.Helper()
	f := factory(t)
	srv := New(map[string]SessionFactory{"aep": &clientFactory{testFactory: f, client: client}},
		WithAdmission(cfg))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func newTestSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, out := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	sid, _ := out["session_id"].(string)
	if sid == "" {
		t.Fatal("create session: no id")
	}
	return sid
}

func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	gate := &gateClient{inner: factory(t).sim,
		started: make(chan struct{}, 8), release: make(chan struct{})}
	srv, ts := admissionServer(t, gate, AdmissionConfig{
		AskConcurrency: 1,
		Queue:          1,
		QueueTimeout:   10 * time.Second,
		RetryAfter:     2 * time.Second,
	})
	sidA, sidB, sidC := newTestSession(t, ts), newTestSession(t, ts), newTestSession(t, ts)
	ask := func(sid string) (*http.Response, map[string]any, error) {
		return postJSONRaw(ts.URL+"/v1/sessions/"+sid+"/ask",
			map[string]string{"question": "how many users are there"})
	}

	// A occupies the single slot (its pipeline is parked at the gate).
	var wg sync.WaitGroup
	codes := make(map[string]int)
	var mu sync.Mutex
	launch := func(sid string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, err := ask(sid)
			if err != nil {
				t.Errorf("ask %s: %v", sid, err)
				return
			}
			mu.Lock()
			codes[sid] = resp.StatusCode
			mu.Unlock()
		}()
	}
	launch(sidA)
	<-gate.started // A's pipeline is running and holds the slot

	// B fills the one queue spot.
	launch(sidB)
	for i := 0; srv.askLimit.waiting.Load() != 1; i++ {
		if i > 5000 {
			t.Fatal("second ask never entered the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// C finds the queue full: shed, immediately, with the full contract.
	resp, body, err := ask(sidC)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full ask: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After %q, want %q", got, "2")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("429 Content-Type %q", ct)
	}
	if msg, _ := body["error"].(string); msg == "" {
		t.Errorf("429 body %v lacks the standard error field", body)
	}

	close(gate.release)
	wg.Wait()
	if codes[sidA] != http.StatusOK || codes[sidB] != http.StatusOK {
		t.Errorf("held asks finished %v, want both 200 — shedding must never cost admitted work", codes)
	}
	if a, s := srv.askLimit.admitted.Load(), srv.askLimit.shed.Load(); a != 2 || s != 1 {
		t.Errorf("limiter counters admitted=%d shed=%d, want 2/1", a, s)
	}
}

func TestAdmissionCanceledWhileQueuedWritesNothing(t *testing.T) {
	gate := &gateClient{inner: factory(t).sim,
		started: make(chan struct{}, 8), release: make(chan struct{})}
	srv, ts := admissionServer(t, gate, AdmissionConfig{
		AskConcurrency: 1,
		Queue:          1,
		QueueTimeout:   10 * time.Second,
	})
	sidA, sidB := newTestSession(t, ts), newTestSession(t, ts)

	done := make(chan int, 1)
	go func() {
		resp, _, err := postJSONRaw(ts.URL+"/v1/sessions/"+sidA+"/ask",
			map[string]string{"question": "how many users are there"})
		if err != nil {
			done <- -1
			return
		}
		done <- resp.StatusCode
	}()
	<-gate.started

	// B queues, then its client gives up: the server must just unwind — no
	// response bytes, no shed count, queue drained.
	impatient := &http.Client{Timeout: 100 * time.Millisecond}
	body := strings.NewReader(`{"question":"how many users are there"}`)
	if _, err := impatient.Post(ts.URL+"/v1/sessions/"+sidB+"/ask", "application/json", body); err == nil {
		t.Fatal("queued ask should have timed out client-side")
	}
	for i := 0; srv.askLimit.waiting.Load() != 0; i++ {
		if i > 5000 {
			t.Fatal("abandoned ask never left the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	if s := srv.askLimit.shed.Load(); s != 0 {
		t.Errorf("client disconnect counted as a shed (%d)", s)
	}

	close(gate.release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("held ask finished %d, want 200", code)
	}
	// The freed capacity is immediately usable.
	resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+sidB+"/ask",
		map[string]string{"question": "how many users are there"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("ask after disconnect: status %d", resp.StatusCode)
	}
}

// TestAdmissionStress hammers a tightly limited server from many clients
// under -race and verifies the end-to-end accounting: every response is
// 200 or 429, the server's shed counter matches the client's 429 count,
// and each session's history holds exactly its acknowledged asks.
func TestAdmissionStress(t *testing.T) {
	// The injected latency makes service time non-trivial so the tight
	// limits actually bind (the bare sim answers in microseconds and the
	// queue would never fill).
	slow := &llm.Flaky{Inner: factory(t).sim, Latency: 2 * time.Millisecond}
	srv, ts := admissionServer(t, slow, AdmissionConfig{
		AskConcurrency: 2,
		Queue:          2,
		QueueTimeout:   2 * time.Millisecond,
	})
	const workers = 12
	const asksPerWorker = 30
	type tally struct {
		sid         string
		acked, shed int
		other       []int
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			tl.sid = newTestSession(t, ts)
			url := ts.URL + "/v1/sessions/" + tl.sid + "/ask"
			for i := 0; i < asksPerWorker; i++ {
				q := fmt.Sprintf("how many users are there (variant %d-%d)", w, i)
				resp, _, err := postJSONRaw(url, map[string]string{"question": q})
				if err != nil {
					tl.other = append(tl.other, -1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					tl.acked++
				case http.StatusTooManyRequests:
					tl.shed++
					if resp.Header.Get("Retry-After") == "" {
						tl.other = append(tl.other, resp.StatusCode)
					}
				default:
					tl.other = append(tl.other, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()

	totalAcked, totalShed := 0, 0
	for w := range tallies {
		tl := &tallies[w]
		totalAcked += tl.acked
		totalShed += tl.shed
		if len(tl.other) > 0 {
			t.Errorf("worker %d saw unexpected outcomes %v — overload may only answer 200 or a clean 429",
				w, tl.other)
		}
		if tl.acked+tl.shed != asksPerWorker {
			t.Errorf("worker %d: %d acked + %d shed != %d asks", w, tl.acked, tl.shed, asksPerWorker)
		}
	}
	if totalShed == 0 {
		t.Error("stress run shed nothing; the limits are not binding and the test is vacuous")
	}
	if got := srv.askLimit.shed.Load(); got != int64(totalShed) {
		t.Errorf("server shed counter %d != client-observed 429s %d", got, totalShed)
	}
	if got := srv.askLimit.admitted.Load(); got != int64(totalAcked) {
		t.Errorf("server admitted counter %d != acknowledged asks %d", got, totalAcked)
	}
	if w := srv.askLimit.waiting.Load(); w != 0 {
		t.Errorf("admission queue did not drain: %d still waiting", w)
	}

	// No acknowledged turn lost, no shed turn recorded: user-role history
	// turns == the worker's 200 count, exactly.
	for w := range tallies {
		tl := &tallies[w]
		resp, err := http.Get(ts.URL + "/v1/sessions/" + tl.sid + "/history")
		if err != nil {
			t.Fatal(err)
		}
		var hist struct {
			Turns []struct {
				Role string `json:"role"`
			} `json:"turns"`
		}
		err = json.NewDecoder(resp.Body).Decode(&hist)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("worker %d history: %v", w, err)
		}
		users := 0
		for _, turn := range hist.Turns {
			if turn.Role == "user" {
				users++
			}
		}
		if users != tl.acked {
			t.Errorf("worker %d: history has %d user turns, client got %d acks — %s",
				w, users, tl.acked, strconv.Quote(tl.sid))
		}
	}
}

// The overload scenario: a server with real capacity is driven at capacity,
// then at four times capacity. Capacity is real because every ask reaches
// the model (the factory has no answer memo), every model call costs an
// injected 5 ms, and calls are batched as a production deployment would
// batch them.
const (
	overloadAskLimit     = 8
	overloadFactor       = 4
	overloadLLMLatency   = 5 * time.Millisecond
	overloadQueueTimeout = 25 * time.Millisecond
	overloadPhase        = 1500 * time.Millisecond
)

// overloadTally aggregates one load phase.
type overloadTally struct {
	oks       []time.Duration // latencies of 200 asks, sorted ascending
	sheds     int64           // 429 responses
	badSheds  int64           // 429s without a whole-seconds Retry-After or the JSON error body
	others    int64           // any status that is neither 200 nor 429
	transport int64           // requests that failed below HTTP
	ids       []string        // the phase's sessions
}

// overloadServer serves the scenario's server over a journal at path, with
// metrics and an ask limit of overloadAskLimit (queue depth the same).
func overloadServer(t *testing.T, path string) (*httptest.Server, *persist.Journal, *obs.Metrics) {
	t.Helper()
	f := factory(t)
	j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	slow := llm.NewBatcher(&llm.Flaky{Inner: f.sim, Latency: overloadLLMLatency}, llm.BatcherConfig{})
	m := obs.NewMetrics()
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": &clientFactory{testFactory: f, client: slow}},
		WithMetrics(m), WithJournal(j),
		WithAdmission(AdmissionConfig{AskConcurrency: overloadAskLimit, QueueTimeout: overloadQueueTimeout})))
	return ts, j, m
}

// driveOverload runs the two phases against base: overloadAskLimit ask
// loops for overloadPhase, then overloadFactor times as many.
func driveOverload(t *testing.T, base string) (atCapacity, overloaded overloadTally) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * overloadFactor * overloadAskLimit}}
	defer client.CloseIdleConnections()
	atCapacity = overloadLoad(t, client, base, overloadAskLimit, 1)
	overloaded = overloadLoad(t, client, base, overloadFactor*overloadAskLimit, 1001)
	return atCapacity, overloaded
}

// overloadLoad drives `workers` ask loops, one session each, for
// overloadPhase and tallies the outcomes.
func overloadLoad(t *testing.T, client *http.Client, base string, workers int, seed int64) overloadTally {
	t.Helper()
	questions := factory(t).ds.Examples
	var res overloadTally
	for w := 0; w < workers; w++ {
		resp, out, err := postJSONRaw(base+"/v1/sessions", map[string]string{"corpus": "aep"})
		sid, _ := out["session_id"].(string)
		if err != nil || resp.StatusCode != http.StatusOK || sid == "" {
			t.Fatalf("create session: %v %v", err, out)
		}
		res.ids = append(res.ids, sid)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(overloadPhase)
	for w, sid := range res.ids {
		wg.Add(1)
		go func(w int, url string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var local overloadTally
			for time.Now().Before(deadline) {
				body, _ := json.Marshal(map[string]string{"question": questions[rng.Intn(len(questions))].Question})
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				lat := time.Since(t0)
				if err != nil {
					local.transport++
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					local.oks = append(local.oks, lat)
				case http.StatusTooManyRequests:
					local.sheds++
					var e struct {
						Error string `json:"error"`
					}
					n, err := strconv.Atoi(resp.Header.Get("Retry-After"))
					if err != nil || n < 1 || resp.Header.Get("Content-Type") != "application/json" ||
						json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
						local.badSheds++
					}
					// Back off briefly, not for the whole hint: the phase must
					// keep the server saturated.
					time.Sleep(time.Millisecond)
				default:
					local.others++
				}
				drainBody(resp)
			}
			mu.Lock()
			res.oks = append(res.oks, local.oks...)
			res.sheds += local.sheds
			res.badSheds += local.badSheds
			res.others += local.others
			res.transport += local.transport
			mu.Unlock()
		}(w, base+"/v1/sessions/"+sid+"/ask")
	}
	wg.Wait()
	sort.Slice(res.oks, func(i, j int) bool { return res.oks[i] < res.oks[j] })
	return res
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)*p+99)/100-1]
}

// scrapeMetrics fetches /v1/metrics in both forms and fails the test unless
// both are well-formed: every JSON histogram has buckets ending in +Inf at
// its count, and the Prometheus text carries types, +Inf buckets and
// counts.
func scrapeMetrics(t *testing.T, base string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics JSON: status %d, %v", resp.StatusCode, err)
	}
	if len(snap.Histograms) == 0 {
		t.Error("metrics snapshot has no histograms")
	}
	for name, h := range snap.Histograms {
		if n := len(h.Buckets); h.Count < 0 || n == 0 || h.Buckets[n-1].LE != "+Inf" || h.Buckets[n-1].Count != h.Count {
			t.Errorf("histogram %s malformed: %+v", name, h)
		}
	}
	presp, err := http.Get(base + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	text, err := io.ReadAll(presp.Body)
	if err != nil || presp.StatusCode != http.StatusOK {
		t.Fatalf("metrics text: status %d, %v", presp.StatusCode, err)
	}
	for _, want := range []string{"# TYPE ", `_bucket{le="+Inf"}`, "_count"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus text missing %q", want)
		}
	}
	return snap
}

// TestAdmissionOverloadShedsCleanly is the overload scenario's accounting
// half (the latency half is TestAdmissionOverloadP99, which does not build
// under -race). Overload may degrade the service only by shedding, and only
// with a clean 429. The server counts every shed the client saw. A crash
// after the overload, with a torn tail, recovers every session's history
// byte for byte: acknowledged turns survive and shed turns leave no trace.
func TestAdmissionOverloadShedsCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	ts, j, _ := overloadServer(t, path)
	atCapacity, overloaded := driveOverload(t, ts.URL)

	for _, ph := range []struct {
		name  string
		tally overloadTally
	}{{"at-capacity", atCapacity}, {"overload", overloaded}} {
		if ph.tally.transport != 0 || ph.tally.others != 0 {
			t.Errorf("%s phase: %d transport errors, %d statuses neither 200 nor 429",
				ph.name, ph.tally.transport, ph.tally.others)
		}
		if len(ph.tally.oks) == 0 {
			t.Errorf("%s phase completed no asks", ph.name)
		}
	}
	if overloaded.sheds == 0 {
		t.Errorf("%dx capacity shed nothing; admission control is not engaging", overloadFactor)
	}
	if overloaded.badSheds != 0 {
		t.Errorf("%d shed responses had an invalid Retry-After or a malformed error body", overloaded.badSheds)
	}

	snap := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"fisql_admission_ask_admitted_total", "fisql_admission_ask_shed_total"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("metrics missing counter %s", name)
		}
	}
	if _, ok := snap.Histograms["fisql_admission_ask_queue_seconds"]; !ok {
		t.Error("metrics missing histogram fisql_admission_ask_queue_seconds")
	}
	if got, want := snap.Counters["fisql_admission_ask_shed_total"], atCapacity.sheds+overloaded.sheds; got != want {
		t.Errorf("server shed counter %d != client-observed 429s %d", got, want)
	}

	ids := append(append([]string(nil), atCapacity.ids...), overloaded.ids...)
	capture, err := persisttest.Capture(http.DefaultClient, ts.URL, ids)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	appendTornTail(t, path)
	// Recovery runs on the plain simulated model: the injected latency
	// models the network, and the answers are the same either way.
	ts2, j2, _ := journalServer(t, path)
	defer ts2.Close()
	defer j2.Close()
	if diffs := persisttest.DiffHistories(http.DefaultClient, ts2.URL, capture); diffs != nil {
		t.Errorf("%d of %d histories differ after recovery:\n%s", len(diffs), len(ids), strings.Join(diffs, "\n"))
	}
}
