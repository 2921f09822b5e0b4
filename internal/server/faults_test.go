package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fisql/internal/assistant"
	"fisql/internal/core"
	"fisql/internal/llm"
)

// switchClient swaps the underlying Client between requests, so a test can
// make the model fail deterministically and then heal it. Safe for
// concurrent use.
type switchClient struct {
	mu sync.Mutex
	c  llm.Client
}

func (s *switchClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	s.mu.Lock()
	c := s.c
	s.mu.Unlock()
	return c.Complete(ctx, req)
}

func (s *switchClient) set(c llm.Client) {
	s.mu.Lock()
	s.c = c
	s.mu.Unlock()
}

// faultFactory is the production wiring (shared cache + memo) over an
// arbitrary — typically fault-injecting — client.
type faultFactory struct {
	*testFactory
	client llm.Client
	memo   *assistant.AnswerMemo
}

func (f *faultFactory) NewSession(db string) *core.Session {
	asst := &assistant.Assistant{Client: f.client, DS: f.ds, Store: f.store, K: 8,
		Cache: f.cache, Memo: f.memo}
	method := &core.FISQL{Client: f.client, DS: f.ds, Store: f.store, K: 8, Routing: true, Highlights: true}
	return core.NewSession(asst, method, db)
}

// TestTransientFailureDegradesCleanly drives the serving path into an
// injected LLM outage and verifies the degradation contract: the request
// answers 500, the session history records nothing for the failed turn, the
// answer memo is not poisoned with an error result, and the identical
// request succeeds once the model recovers.
func TestTransientFailureDegradesCleanly(t *testing.T) {
	f := factory(t)
	sw := &switchClient{c: &llm.Flaky{Inner: f.sim, FailEvery: 1}} // every call fails
	memo := assistant.NewAnswerMemo(0)
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": &faultFactory{
		testFactory: f, client: sw, memo: memo}}))
	defer ts.Close()

	_, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
	id, _ := created["session_id"].(string)
	question := f.ds.Examples[0].Question

	resp, out := postJSON(t, ts.URL+"/v1/sessions/"+id+"/ask", map[string]string{"question": question})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("outage ask: status %d, want 500", resp.StatusCode)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "injected failure") {
		t.Errorf("error body %q should surface the transient cause", msg)
	}
	if memo.Len() != 0 {
		t.Errorf("memo holds %d answers after a failed ask; errors must not be cached", memo.Len())
	}
	hresp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hist struct {
		Turns []struct{ Role, Text string } `json:"turns"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Turns) != 0 {
		t.Errorf("failed ask corrupted history: %d turns recorded (%v), want 0", len(hist.Turns), hist.Turns)
	}

	// Recovery: the identical request on the same session now succeeds and
	// is memoized.
	sw.set(f.sim)
	resp2, out2 := postJSON(t, ts.URL+"/v1/sessions/"+id+"/ask", map[string]string{"question": question})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery ask: status %d body %v", resp2.StatusCode, out2)
	}
	if sql, _ := out2["sql"].(string); sql == "" {
		t.Error("recovered answer has no SQL")
	}
	// One successful ask memoizes two entries: the (db, question) answer
	// and the (db, sql) execution underneath it.
	if memo.Len() != 2 {
		t.Errorf("memo.Len() = %d after recovery, want 2", memo.Len())
	}
}

// TestOutageDoesNotLeakSingleflightWaiters fires concurrent identical asks
// into a failing model: every request must come back (5xx), none may hang
// on a singleflight channel, and the memo must stay empty so the next
// attempt retries the pipeline.
func TestOutageDoesNotLeakSingleflightWaiters(t *testing.T) {
	f := factory(t)
	sw := &switchClient{c: &llm.Flaky{Inner: f.sim, FailEvery: 1}}
	memo := assistant.NewAnswerMemo(0)
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": &faultFactory{
		testFactory: f, client: sw, memo: memo}}))
	defer ts.Close()

	question := f.ds.Examples[0].Question
	const clients = 8
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func() {
			// Each goroutine gets its own session; the memo key (db,
			// question) is shared, so misses singleflight-collapse.
			_, created, err := postJSONRaw(ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
			if err != nil {
				codes <- -1
				return
			}
			id, _ := created["session_id"].(string)
			r, _, err := postJSONRaw(ts.URL+"/v1/sessions/"+id+"/ask", map[string]string{"question": question})
			if err != nil {
				codes <- -1
				return
			}
			codes <- r.StatusCode
		}()
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < clients; i++ {
		select {
		case code := <-codes:
			if code != http.StatusInternalServerError {
				t.Errorf("concurrent outage ask returned %d, want 500", code)
			}
		case <-deadline:
			t.Fatalf("only %d/%d requests returned; singleflight waiter leaked", i, clients)
		}
	}
	if memo.Len() != 0 {
		t.Errorf("memo.Len() = %d after outage, want 0", memo.Len())
	}

	sw.set(f.sim)
	_, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
	id, _ := created["session_id"].(string)
	resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+id+"/ask", map[string]string{"question": question})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-outage ask: status %d", resp.StatusCode)
	}
}
