package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fisql/internal/assistant"
	"fisql/internal/core"
)

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Status   string `json:"status"`
		Sessions *int   `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Sessions == nil {
		t.Errorf("healthz body: %+v", out)
	}
}

// TestHistoryWireFormat pins the /history body bytes: the incremental
// fragment cache must produce exactly what a full json.Marshal of the
// response object would, and a fresh session must report "turns": [] —
// an empty conversation, not an unknown one (null).
func TestHistoryWireFormat(t *testing.T) {
	ts := testServer(t)
	_, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
	id, _ := created["session_id"].(string)
	base := ts.URL + "/v1/sessions/" + id

	getBody := func() string {
		t.Helper()
		resp, err := http.Get(base + "/history")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("history: %d %s", resp.StatusCode, b)
		}
		return string(b)
	}

	if got, want := getBody(), `{"db":"experience_platform","turns":[]}`+"\n"; got != want {
		t.Errorf("fresh history body = %q, want %q", got, want)
	}

	question := "How many audiences were created in January?"
	postJSON(t, base+"/ask", map[string]string{"question": question})
	postJSON(t, base+"/feedback", map[string]string{"text": "we are in 2024"})

	// Reference encoding, computed the way the pre-incremental server did.
	type turn struct {
		Role string `json:"role"`
		Text string `json:"text"`
	}
	hresp, _ := http.Get(base + "/history")
	var decoded struct {
		DB    string `json:"db"`
		Turns []turn `json:"turns"`
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("history did not decode: %v", err)
	}
	want, _ := json.Marshal(map[string]any{"db": decoded.DB, "turns": decoded.Turns})
	if string(body) != string(want)+"\n" {
		t.Errorf("incremental history = %q\nwant full-marshal form %q", body, want)
	}
	if len(decoded.Turns) != 4 {
		t.Errorf("turns = %d, want 4", len(decoded.Turns))
	}
	// A second read replays the cached fragments; bytes must be stable.
	if got := getBody(); got != string(body) {
		t.Errorf("second history read differs:\n%q\n%q", got, body)
	}
}

// TestLockLiveGone checks the zombie-session guard: a handler that looked a
// session up before it was evicted answers 410 Gone, not a success on state
// nobody can see again.
func TestLockLiveGone(t *testing.T) {
	srv := &Server{}
	sess := &session{}
	rec := httptest.NewRecorder()
	if !srv.lockLive(rec, sess) {
		t.Fatal("live session should lock")
	}
	sess.mu.Unlock()

	sess.gone.Store(true)
	rec = httptest.NewRecorder()
	if srv.lockLive(rec, sess) {
		t.Fatal("gone session must not lock")
	}
	if rec.Code != http.StatusGone {
		t.Errorf("status = %d, want 410", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("410 body is not JSON: %v", err)
	}
	if msg, _ := out["error"].(string); msg != "session evicted" {
		t.Errorf("error = %q", msg)
	}
}

// plainFactory builds sessions with no plan cache and no answer memo — the
// seed serving path, kept as the differential reference.
type plainFactory struct{ *testFactory }

func (f *plainFactory) NewSession(db string) *core.Session {
	asst := &assistant.Assistant{Client: f.sim, DS: f.ds, Store: f.store, K: 8}
	method := &core.FISQL{Client: f.sim, DS: f.ds, Store: f.store, K: 8, Routing: true, Highlights: true}
	return core.NewSession(asst, method, db)
}

func rawPost(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestWireDifferentialMemoized proves the optimization contract: for every
// corpus question, the memoized+cached server answers with bytes identical
// to the plain (cacheless, memoless) server — on the cold path, the
// memo-hit path, and a feedback turn.
func TestWireDifferentialMemoized(t *testing.T) {
	f := factory(t)
	plain := httptest.NewServer(New(map[string]SessionFactory{"aep": &plainFactory{f}}))
	defer plain.Close()
	memo := httptest.NewServer(New(map[string]SessionFactory{"aep": &memoFactory{
		testFactory: f, memo: assistant.NewAnswerMemo(0)}}))
	defer memo.Close()

	ask := func(ts *httptest.Server, question string) []byte {
		t.Helper()
		_, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
		id, _ := created["session_id"].(string)
		code, body := rawPost(t, ts.URL+"/v1/sessions/"+id+"/ask",
			map[string]string{"question": question})
		if code != http.StatusOK {
			t.Fatalf("ask %q: %d %s", question, code, body)
		}
		return body
	}

	for _, ex := range f.ds.Examples {
		want := ask(plain, ex.Question)
		if got := ask(memo, ex.Question); !bytes.Equal(got, want) {
			t.Fatalf("cold answer for %q differs:\nmemo:  %s\nplain: %s", ex.Question, got, want)
		}
		// Second ask is served from the memo (cached wire bytes included).
		if got := ask(memo, ex.Question); !bytes.Equal(got, want) {
			t.Fatalf("memo-hit answer for %q differs from plain server", ex.Question)
		}
	}

	// Feedback turns run the corrector live but share the executed answer;
	// the bytes must still match the plain server exactly.
	feedbackOn := func(ts *httptest.Server) []byte {
		t.Helper()
		_, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
		id, _ := created["session_id"].(string)
		base := ts.URL + "/v1/sessions/" + id
		code, body := rawPost(t, base+"/ask",
			map[string]string{"question": "How many audiences were created in January?"})
		if code != http.StatusOK {
			t.Fatalf("ask: %d %s", code, body)
		}
		code, body = rawPost(t, base+"/feedback", map[string]string{"text": "we are in 2024"})
		if code != http.StatusOK {
			t.Fatalf("feedback: %d %s", code, body)
		}
		return body
	}
	want := feedbackOn(plain)
	if got := feedbackOn(memo); !bytes.Equal(got, want) {
		t.Fatalf("feedback answer differs:\nmemo:  %s\nplain: %s", got, want)
	}
}

// TestServingStress hammers one memoized server with concurrent creates,
// asks, feedback, history reads and deletes of many sessions. Run under
// -race in CI. Asserts the store loses no live session (every request
// answers 200, or 404/410 only for ids this test deleted or the cap
// evicted) and that concurrently-served answers are byte-identical to the
// serially-computed reference.
func TestServingStress(t *testing.T) {
	f := factory(t)
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": &memoFactory{
		testFactory: f, memo: assistant.NewAnswerMemo(0)}},
		WithMaxSessions(0))) // no eviction: a non-200 is a lost session
	defer ts.Close()

	questions := make([]string, 0, len(f.ds.Examples))
	for _, ex := range f.ds.Examples {
		questions = append(questions, ex.Question)
	}
	// Serial reference bodies from the same server: the memo is already
	// populated after this, so the concurrent phase exercises the hit path
	// against known-good bytes.
	reference := make(map[string][]byte, len(questions))
	{
		_, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
		id, _ := created["session_id"].(string)
		for _, q := range questions {
			code, body := rawPost(t, ts.URL+"/v1/sessions/"+id+"/ask", map[string]string{"question": q})
			if code != http.StatusOK {
				t.Fatalf("reference ask %q: %d %s", q, code, body)
			}
			reference[q] = body
		}
	}

	const workers = 8
	const iters = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
				id, _ := created["session_id"].(string)
				if id == "" {
					t.Errorf("worker %d: create failed: %v", w, created)
					return
				}
				base := ts.URL + "/v1/sessions/" + id
				q := questions[(w*iters+i)%len(questions)]
				code, body := rawPost(t, base+"/ask", map[string]string{"question": q})
				if code != http.StatusOK {
					t.Errorf("worker %d: ask on live session %s: %d %s", w, id, code, body)
					return
				}
				if !bytes.Equal(body, reference[q]) {
					t.Errorf("worker %d: concurrent answer for %q differs from serial reference", w, q)
					return
				}
				code, body = rawPost(t, base+"/feedback", map[string]string{"text": "we are in 2024"})
				if code != http.StatusOK {
					t.Errorf("worker %d: feedback on live session %s: %d %s", w, id, code, body)
					return
				}
				hresp, err := http.Get(base + "/history")
				if err != nil {
					t.Errorf("worker %d: history: %v", w, err)
					return
				}
				drainBody(hresp)
				if hresp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: history on live session %s: %d", w, id, hresp.StatusCode)
					return
				}
				req, _ := http.NewRequest(http.MethodDelete, base, nil)
				dresp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("worker %d: delete: %v", w, err)
					return
				}
				drainBody(dresp)
				if dresp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: delete of live session %s: %d", w, id, dresp.StatusCode)
					return
				}
				// After our delete the session must be firmly gone.
				code, _ = rawPost(t, base+"/ask", map[string]string{"question": q})
				if code != http.StatusNotFound && code != http.StatusGone {
					t.Errorf("worker %d: ask after delete: %d, want 404 or 410", w, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Every session the workers created was also deleted; only the serial
	// reference session remains.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Sessions int `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Sessions != 1 {
		t.Errorf("sessions after stress = %d, want 1 (the reference session)", hz.Sessions)
	}
}
