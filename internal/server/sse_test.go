package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"fisql/internal/assistant"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/persist"
)

type sseEvent struct {
	id   string // empty when the frame carries no id line
	name string
	data string
}

// parseSSE splits a complete event-stream body into events, requiring the
// exact framing the server promises: an optional id line, one event line,
// one data line.
func parseSSE(t *testing.T, body []byte) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, frame := range strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n") {
		lines := strings.Split(frame, "\n")
		var ev sseEvent
		if len(lines) == 3 && strings.HasPrefix(lines[0], "id: ") {
			ev.id = strings.TrimPrefix(lines[0], "id: ")
			lines = lines[1:]
		}
		if len(lines) != 2 || !strings.HasPrefix(lines[0], "event: ") ||
			!strings.HasPrefix(lines[1], "data: ") {
			t.Fatalf("malformed SSE frame %q", frame)
		}
		ev.name = strings.TrimPrefix(lines[0], "event: ")
		ev.data = strings.TrimPrefix(lines[1], "data: ")
		events = append(events, ev)
	}
	return events
}

// askSSE posts a question with the event-stream accept header and returns
// the parsed events.
func askSSE(t *testing.T, ts *httptest.Server, sid, question string) []sseEvent {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"question": question})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/ask",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE ask: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE ask: Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseSSE(t, raw)
}

// askPlain posts a question without streaming and returns the raw body.
func askPlain(t *testing.T, ts *httptest.Server, sid, question string) []byte {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"question": question})
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sid+"/ask", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain ask: status %d body %s", resp.StatusCode, raw)
	}
	return raw
}

var wantSequence = []string{"open", "sql", "explanation", "result", "done"}

func checkSequence(t *testing.T, events []sseEvent, context string) {
	t.Helper()
	if len(events) != len(wantSequence) {
		t.Fatalf("%s: got %d events, want %v", context, len(events), wantSequence)
	}
	for i, want := range wantSequence {
		if events[i].name != want {
			t.Fatalf("%s: event %d is %q, want %q", context, i, events[i].name, want)
		}
	}
}

// TestSSEDifferentialSweep asks every corpus example both streamed and
// plain — in both orders, so the live pipeline AND the memo-hit
// (synthesized) streaming paths are exercised — and requires the done
// payload to be byte-identical to the non-streamed body on all of them.
func TestSSEDifferentialSweep(t *testing.T) {
	f := factory(t)
	mf := &memoFactory{testFactory: f, memo: assistant.NewAnswerMemo(0)}
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": mf}))
	defer ts.Close()

	sseSID := newTestSession(t, ts)
	plainSID := newTestSession(t, ts)
	for i, e := range f.ds.Examples {
		var events []sseEvent
		var plain []byte
		if i%2 == 0 {
			// Streamed first: SSE runs the live pipeline, the plain ask is
			// then a memo hit served from the cached wire bytes.
			events = askSSE(t, ts, sseSID, e.Question)
			plain = askPlain(t, ts, plainSID, e.Question)
		} else {
			// Plain first: the SSE ask is a memo hit and every stage event
			// is synthesized from the finished Answer.
			plain = askPlain(t, ts, plainSID, e.Question)
			events = askSSE(t, ts, sseSID, e.Question)
		}
		checkSequence(t, events, e.ID)
		done := events[len(events)-1]
		if got := done.data + "\n"; got != string(plain) {
			t.Fatalf("%s: done payload differs from the plain body\nsse:   %s\nplain: %s",
				e.ID, done.data, plain)
		}
		// Stage payloads must agree with the final answer, not just exist.
		var ans struct {
			SQL   string   `json:"sql"`
			Error string   `json:"error"`
			Rows  [][]any  `json:"rows"`
			Expl  []string `json:"explanation"`
		}
		if err := json.Unmarshal(plain, &ans); err != nil {
			t.Fatalf("%s: plain body: %v", e.ID, err)
		}
		var sqlEv struct {
			SQL string `json:"sql"`
		}
		if err := json.Unmarshal([]byte(events[1].data), &sqlEv); err != nil || sqlEv.SQL != ans.SQL {
			t.Fatalf("%s: sql event %q disagrees with answer sql %q (err %v)",
				e.ID, events[1].data, ans.SQL, err)
		}
	}
}

// TestSSEFaultInjectionLeavesSessionAndJournalClean drives an SSE ask into
// an injected model failure and verifies the full blast radius contract:
// the stream stays a well-formed event stream ending in an error event,
// the session remains usable, and journal recovery reproduces exactly the
// acknowledged turns.
func TestSSEFaultInjectionLeavesSessionAndJournalClean(t *testing.T) {
	f := factory(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "sessions.journal")
	journal, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	// Every second model call fails: ask #1 succeeds, ask #2 (streamed)
	// fails mid-pipeline, ask #3 succeeds.
	flaky := &llm.Flaky{Inner: f.sim, FailEvery: 2}
	srv := New(map[string]SessionFactory{"aep": &clientFactory{testFactory: f, client: flaky}},
		WithJournal(journal))
	ts := httptest.NewServer(srv)

	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")

	events := askSSE(t, ts, sid, "list all users")
	if len(events) != 2 || events[0].name != "open" || events[1].name != "error" {
		t.Fatalf("failed streamed ask produced %v, want [open error]", events)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(events[1].data), &errBody); err != nil || errBody.Error == "" {
		t.Fatalf("error event data %q is not the standard error shape (err %v)", events[1].data, err)
	}

	// The failure must not have wedged or corrupted the session.
	askPlain(t, ts, sid, "how many users are there in total")
	histBefore, err := sseHistory(ts, sid)
	if err != nil {
		t.Fatal(err)
	}
	userTurns := strings.Count(string(histBefore), `"role":"user"`)
	if userTurns != 2 {
		t.Fatalf("history holds %d user turns, want exactly the 2 acknowledged asks:\n%s",
			userTurns, histBefore)
	}

	// Crash and recover. Replay runs against a clean client (the injected
	// fault models a transient backend episode, not the corpus), and must
	// rebuild the acknowledged turns byte-for-byte.
	ts.Close()
	if err := journal.Crash(); err != nil {
		t.Fatal(err)
	}
	journal2, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	srv2 := New(map[string]SessionFactory{"aep": f}, WithJournal(journal2))
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	histAfter, err := sseHistory(ts2, sid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(histBefore, histAfter) {
		t.Fatalf("history differs after recovery\nbefore: %s\nafter:  %s", histBefore, histAfter)
	}
}

func sseHistory(ts *httptest.Server, sid string) ([]byte, error) {
	resp, err := http.Get(ts.URL + "/v1/sessions/" + sid + "/history")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TestSSEOptInOnly: without the accept header the endpoint answers the
// plain JSON body, whatever other Accept values the client sends.
func TestSSEOptInOnly(t *testing.T) {
	ts := testServer(t)
	sid := newTestSession(t, ts)
	body, _ := json.Marshal(map[string]string{"question": "how many users are there"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/ask",
		bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/json, text/html")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer drainBody(resp)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q without the SSE opt-in", ct)
	}
}

// TestMuxErrorsAreJSON pins the unified error contract on the only paths
// that used to bypass it: ServeMux's own 404 and 405 responses.
func TestMuxErrorsAreJSON(t *testing.T) {
	ts := testServer(t)

	resp, err := http.Get(ts.URL + "/v1/definitely-not-a-route")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("404 Content-Type %q", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(raw, &body); err != nil || body["error"] == "" {
		t.Errorf("404 body %q is not the standard error shape (err %v)", raw, err)
	}

	// Wrong method on a real route: 405, JSON, Allow preserved.
	resp, err = http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("405 Content-Type %q", ct)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Errorf("405 Allow %q lost the method list", allow)
	}
	if err := json.Unmarshal(raw, &body); err != nil || body["error"] == "" {
		t.Errorf("405 body %q is not the standard error shape (err %v)", raw, err)
	}
}

// TestSSEConcurrentStreamsRace exercises streamed and plain asks of the
// same questions concurrently under -race: wire-cache sharing between the
// two forms must be safe, and every stream complete.
func TestSSEConcurrentStreamsRace(t *testing.T) {
	f := factory(t)
	mf := &memoFactory{testFactory: f, memo: assistant.NewAnswerMemo(0)}
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": mf}))
	defer ts.Close()
	questions := make([]string, 0, 8)
	for _, e := range f.ds.Examples {
		questions = append(questions, e.Question)
		if len(questions) == 8 {
			break
		}
	}
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			sid := newTestSession(t, ts)
			for i, q := range questions {
				if (w+i)%2 == 0 {
					events := askSSE(t, ts, sid, q)
					checkSequence(t, events, q)
				} else {
					askPlain(t, ts, sid, q)
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestSSEStageEventParity asks every corpus example streamed twice, on two
// sessions: first on the live pipeline, whose stages stream as they are
// computed, then as a memo hit, whose stages come from the cached answer.
// On both paths the streamed sql, explanation, result and done events must
// be byte-identical to that turn's /events payloads, done under the same
// sequence number, and each distinct answer must be rendered exactly once.
func TestSSEStageEventParity(t *testing.T) {
	f := factory(t)
	m := obs.NewMetrics()
	srv := New(map[string]SessionFactory{"aep": &memoFactory{testFactory: f,
		memo: assistant.NewAnswerMemo(0)}}, WithMetrics(m))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	live, hit := newTestSession(t, ts), newTestSession(t, ts)
	distinct := make(map[string]bool)
	for _, e := range f.ds.Examples {
		for _, path := range []struct{ name, sid string }{{"live", live}, {"memo-hit", hit}} {
			context := e.ID + " " + path.name
			streamed := askSSE(t, ts, path.sid, e.Question)
			checkSequence(t, streamed, context)
			published := topicEvents(t, srv, path.sid)
			if len(published) < 4 {
				t.Fatalf("%s: topic holds %d events", context, len(published))
			}
			turn := published[len(published)-4:]
			for i, ev := range streamed[1:] {
				if ev.name != turn[i].name || ev.data != turn[i].data {
					t.Fatalf("%s: streamed %s event differs from /events %s\nsse:    %s\nevents: %s",
						context, ev.name, turn[i].name, ev.data, turn[i].data)
				}
			}
			if done := streamed[4]; done.id != turn[3].id {
				t.Fatalf("%s: done id %q, /events done id %q", context, done.id, turn[3].id)
			}
			distinct[turn[0].data] = true
		}
	}
	if got := m.Registry.Snapshot().Counters["fisql_render_cache_misses_total"]; got != int64(len(distinct)) {
		t.Fatalf("fisql_render_cache_misses_total = %d, want %d (one per distinct answer)",
			got, len(distinct))
	}
}
