package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fisql/internal/obs"
	"fisql/internal/persist"
)

// readFrame parses one SSE frame (optional id line, event line, data line)
// from a live stream.
func readFrame(r *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	started := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "" {
			if started {
				return ev, nil
			}
			continue
		}
		started = true
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		default:
			return ev, fmt.Errorf("unexpected SSE line %q", line)
		}
	}
}

// subscribe opens the fanout stream and returns the response plus a frame
// reader; from > 0 resumes via the Last-Event-ID header.
func subscribe(t *testing.T, ts *httptest.Server, sid string, from uint64) (*http.Response, *bufio.Reader) {
	t.Helper()
	resp, r, err := openEvents(context.Background(), ts.URL, sid, from)
	if err != nil {
		t.Fatal(err)
	}
	return resp, r
}

// openEvents is subscribe for goroutines that must report, not fail; the
// stream ends when ctx does.
func openEvents(ctx context.Context, base, sid string, from uint64) (*http.Response, *bufio.Reader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sessions/"+sid+"/events", nil)
	if err != nil {
		return nil, nil, err
	}
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(from, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, nil, fmt.Errorf("subscribe: status %d body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		return nil, nil, fmt.Errorf("subscribe: Content-Type %q", ct)
	}
	return resp, bufio.NewReader(resp.Body), nil
}

// collectUntilEOF reads frames until the stream ends (topic closed).
func collectUntilEOF(t *testing.T, r *bufio.Reader) []sseEvent {
	t.Helper()
	out, err := readUntilEOF(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// readUntilEOF is collectUntilEOF for goroutines that must report, not fail.
func readUntilEOF(r *bufio.Reader) ([]sseEvent, error) {
	var out []sseEvent
	for {
		ev, err := readFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return out, nil
			}
			return out, fmt.Errorf("read frame: %v", err)
		}
		out = append(out, ev)
	}
}

// collectN reads exactly n frames and leaves the stream open.
func collectN(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	out := make([]sseEvent, 0, n)
	for len(out) < n {
		ev, err := readFrame(r)
		if err != nil {
			t.Fatalf("read frame %d: %v", len(out), err)
		}
		out = append(out, ev)
	}
	return out
}

// checkContiguous requires the events' id lines to be the exact sequence
// first, first+1, ... (every fanout event carries its topic seq).
func checkContiguous(t *testing.T, events []sseEvent, first uint64, context string) {
	t.Helper()
	for i, ev := range events {
		want := strconv.FormatUint(first+uint64(i), 10)
		if ev.id != want {
			t.Fatalf("%s: event %d (%s) has id %q, want %q", context, i, ev.name, ev.id, want)
		}
	}
}

func fanoutServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	f := factory(t)
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": f}, opts...))
	t.Cleanup(ts.Close)
	return ts
}

func sendFeedback(t *testing.T, ts *httptest.Server, sid, text string) []byte {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"text": text})
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sid+"/feedback", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback: status %d body %s", resp.StatusCode, raw)
	}
	return raw
}

func deleteSession(t *testing.T, ts *httptest.Server, sid string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sid, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
}

// TestEventsReplayThenLive: a subscriber that attaches late replays the
// ring from the beginning, then follows live turns, and the stream ends
// after the delete event. Every event id is gap-free, and each done
// payload is byte-identical to the plain ask body that produced it.
func TestEventsReplayThenLive(t *testing.T) {
	ts := fanoutServer(t)
	sid := newTestSession(t, ts)
	plain1 := askPlain(t, ts, sid, "how many users are there")
	fbBody := sendFeedback(t, ts, sid, "only count users from this year")

	resp, r := subscribe(t, ts, sid, 0)
	defer resp.Body.Close()
	// Replayed prefix: open, then ask turn, then feedback turn.
	replayed := collectN(t, r, 1+4+5)
	checkContiguous(t, replayed, 1, "replayed prefix")
	wantTypes := []string{"open", "sql", "explanation", "result", "done",
		"feedback", "sql", "explanation", "result", "done"}
	for i, want := range wantTypes {
		if replayed[i].name != want {
			t.Fatalf("replayed event %d is %q, want %q", i, replayed[i].name, want)
		}
	}
	if got := replayed[4].data + "\n"; got != string(plain1) {
		t.Errorf("replayed done differs from plain ask body\nfanout: %s\nplain:  %s",
			replayed[4].data, plain1)
	}
	if got := replayed[9].data + "\n"; got != string(fbBody) {
		t.Errorf("feedback-turn done differs from feedback response body\nfanout: %s\nplain:  %s",
			replayed[9].data, fbBody)
	}
	var fb struct {
		Text           string `json:"text"`
		HighlightStart int    `json:"highlight_start"`
	}
	if err := json.Unmarshal([]byte(replayed[5].data), &fb); err != nil ||
		fb.Text != "only count users from this year" || fb.HighlightStart != -1 {
		t.Errorf("feedback event data %q (err %v)", replayed[5].data, err)
	}

	// Live tail: another turn, then the delete.
	plain2 := askPlain(t, ts, sid, "list all users")
	deleteSession(t, ts, sid)
	tail := collectUntilEOF(t, r)
	if len(tail) != 5 {
		t.Fatalf("live tail has %d events, want 5 (sql..done, delete): %+v", len(tail), tail)
	}
	checkContiguous(t, tail, 11, "live tail")
	if tail[3].name != "done" || tail[3].data+"\n" != string(plain2) {
		t.Errorf("live done event mismatch: %+v", tail[3])
	}
	if tail[4].name != "delete" {
		t.Errorf("terminal event is %q, want delete", tail[4].name)
	}
}

// TestEventsResumeViaLastEventID: disconnecting mid-stream and resuming
// with Last-Event-ID yields the exact continuation — no gap, no duplicate.
func TestEventsResumeViaLastEventID(t *testing.T) {
	ts := fanoutServer(t)
	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")

	resp, r := subscribe(t, ts, sid, 0)
	firstHalf := collectN(t, r, 3) // open, sql, explanation
	resp.Body.Close()              // drop the connection mid-turn

	askPlain(t, ts, sid, "list all users")
	last, _ := strconv.ParseUint(firstHalf[len(firstHalf)-1].id, 10, 64)
	resp2, r2 := subscribe(t, ts, sid, last)
	defer resp2.Body.Close()
	deleteSession(t, ts, sid)
	secondHalf := collectUntilEOF(t, r2)

	all := append(firstHalf, secondHalf...)
	checkContiguous(t, all, 1, "stitched stream")
	want := []string{"open", "sql", "explanation", "result", "done",
		"sql", "explanation", "result", "done", "delete"}
	if len(all) != len(want) {
		t.Fatalf("stitched stream has %d events, want %d: %+v", len(all), len(want), all)
	}
	for i, w := range want {
		if all[i].name != w {
			t.Errorf("stitched event %d is %q, want %q", i, all[i].name, w)
		}
	}
}

// TestEventsRingLapMarksDrop: a resume point the ring no longer retains is
// announced as a dropped gap, never silently skipped.
func TestEventsRingLapMarksDrop(t *testing.T) {
	ts := fanoutServer(t, WithPubSubRing(4))
	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")
	askPlain(t, ts, sid, "list all users")
	// 9 events published (open + 2×4); the 4-slot ring retains 6..9.

	resp, r := subscribe(t, ts, sid, 0)
	defer resp.Body.Close()
	first := collectN(t, r, 1)[0]
	if first.name != "dropped" || first.id != "" {
		t.Fatalf("first frame = %+v, want an un-sequenced dropped marker", first)
	}
	var gap struct {
		Missed int `json:"missed"`
	}
	if err := json.Unmarshal([]byte(first.data), &gap); err != nil || gap.Missed != 5 {
		t.Fatalf("dropped data %q, want missed=5 (err %v)", first.data, err)
	}
	deleteSession(t, ts, sid)
	rest := collectUntilEOF(t, r)
	checkContiguous(t, rest, 6, "post-gap stream")
	if rest[len(rest)-1].name != "delete" {
		t.Fatalf("stream did not end with delete: %+v", rest)
	}
}

// TestEventsSessionChecks: unknown and deleted sessions answer 404; a bad
// Last-Event-ID answers 400.
func TestEventsSessionChecks(t *testing.T) {
	ts := fanoutServer(t)
	get := func(path, lastID string) int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainBody(resp)
		return resp.StatusCode
	}
	if code := get("/v1/sessions/nope/events", ""); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", code)
	}
	sid := newTestSession(t, ts)
	if code := get("/v1/sessions/"+sid+"/events", "not-a-number"); code != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID: status %d, want 400", code)
	}
	deleteSession(t, ts, sid)
	if code := get("/v1/sessions/"+sid+"/events", ""); code != http.StatusNotFound {
		t.Errorf("deleted session: status %d, want 404", code)
	}
}

// TestWantsSSECaseInsensitive pins the RFC 9110 case-insensitivity of the
// Accept media type, with and without parameters.
func TestWantsSSECaseInsensitive(t *testing.T) {
	for _, accept := range []string{
		"text/event-stream",
		"Text/Event-Stream",
		"TEXT/EVENT-STREAM",
		"text/event-stream;charset=utf-8",
		"Text/Event-Stream ; charset=utf-8",
		"application/json, TEXT/event-stream;q=0.9",
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/s1/ask", nil)
		r.Header.Set("Accept", accept)
		if !wantsSSE(r) {
			t.Errorf("wantsSSE rejected Accept: %q", accept)
		}
	}
	for _, accept := range []string{
		"application/json",
		"text/event-streamx",
		"text/html, */*",
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/s1/ask", nil)
		r.Header.Set("Accept", accept)
		if wantsSSE(r) {
			t.Errorf("wantsSSE accepted Accept: %q", accept)
		}
	}
}

// TestMixedCaseAcceptStreams: end to end, a mixed-case Accept value gets a
// real event stream, not the silent JSON fallback it used to get.
func TestMixedCaseAcceptStreams(t *testing.T) {
	ts := testServer(t)
	sid := newTestSession(t, ts)
	body, _ := json.Marshal(map[string]string{"question": "how many users are there"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/ask",
		bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "Text/Event-Stream;charset=utf-8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("mixed-case Accept got Content-Type %q, want text/event-stream", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	checkSequence(t, parseSSE(t, raw), "mixed-case accept")
}

// noFlushWriter is a ResponseWriter that genuinely cannot stream — unlike
// httptest.ResponseRecorder, it implements no Flush.
type noFlushWriter struct {
	header http.Header
	buf    bytes.Buffer
	code   int
}

func newNoFlushWriter() *noFlushWriter {
	return &noFlushWriter{header: make(http.Header), code: http.StatusOK}
}

func (w *noFlushWriter) Header() http.Header         { return w.header }
func (w *noFlushWriter) WriteHeader(code int)        { w.code = code }
func (w *noFlushWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// TestStreamAskNoFlusherFallsBackToJSON: an SSE opt-in over a connection
// with no Flusher must get the plain JSON body (counted), not a fake
// stream delivered as one burst.
func TestStreamAskNoFlusherFallsBackToJSON(t *testing.T) {
	f := factory(t)
	m := obs.NewMetrics()
	srv := New(map[string]SessionFactory{"aep": f}, WithMetrics(m))

	create := newNoFlushWriter()
	body, _ := json.Marshal(map[string]string{"corpus": "aep"})
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
	srv.ServeHTTP(create, req)
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(create.buf.Bytes(), &created); err != nil || created.SessionID == "" {
		t.Fatalf("create: %s (err %v)", create.buf.Bytes(), err)
	}

	ask := newNoFlushWriter()
	body, _ = json.Marshal(map[string]string{"question": "how many users are there"})
	req = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+created.SessionID+"/ask",
		bytes.NewReader(body))
	req.Header.Set("Accept", "text/event-stream")
	srv.ServeHTTP(ask, req)
	if ask.code != http.StatusOK {
		t.Fatalf("ask: status %d body %s", ask.code, ask.buf.Bytes())
	}
	if ct := ask.header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("no-Flusher SSE opt-in got Content-Type %q, want the JSON fallback", ct)
	}
	var ans struct {
		SQL string `json:"sql"`
	}
	if err := json.Unmarshal(ask.buf.Bytes(), &ans); err != nil || ans.SQL == "" {
		t.Fatalf("fallback body %q is not a full answer (err %v)", ask.buf.Bytes(), err)
	}
	snap := m.Registry.Snapshot()
	if got := snap.Counters["fisql_sse_noflush_total"]; got != 1 {
		t.Errorf("fisql_sse_noflush_total = %d, want 1", got)
	}

	// The fanout endpoint refuses outright: a subscription that cannot
	// stream is useless, so it answers 406 rather than pretending.
	events := newNoFlushWriter()
	req = httptest.NewRequest(http.MethodGet, "/v1/sessions/"+created.SessionID+"/events", nil)
	srv.ServeHTTP(events, req)
	if events.code != http.StatusNotAcceptable {
		t.Errorf("/events without Flusher: status %d, want 406", events.code)
	}
	if got := m.Registry.Snapshot().Counters["fisql_sse_noflush_total"]; got != 2 {
		t.Errorf("fisql_sse_noflush_total after /events = %d, want 2", got)
	}
}

// errAfterWriter fails every write after the first n bytes succeed —
// simulating a client that disconnected mid-stream.
type errAfterWriter struct {
	noFlushWriter
	fail bool
}

func (w *errAfterWriter) Write(b []byte) (int, error) {
	if w.fail {
		return 0, errors.New("broken pipe")
	}
	return w.noFlushWriter.Write(b)
}

// TestJSONEventErrorStates pins the two distinct terminal states of an SSE
// stream: a marshal failure (encoding bug, client still connected) emits a
// terminal error event and suppresses everything after it; a write failure
// (client gone) suppresses silently without attempting further writes.
func TestJSONEventErrorStates(t *testing.T) {
	// Marshal failure: the client must see a terminal error event.
	w := newNoFlushWriter()
	st := &sseStream{w: w}
	st.jsonEvent("result", func() {}) // func values cannot marshal
	if !st.errored || st.failed {
		t.Fatalf("marshal failure: errored=%v failed=%v, want errored only", st.errored, st.failed)
	}
	st.event("done", []byte("{}")) // must be suppressed after the terminal error
	events := parseSSE(t, w.buf.Bytes())
	if len(events) != 1 || events[0].name != "error" ||
		!strings.Contains(events[0].data, "encode result event") {
		t.Fatalf("marshal failure produced %+v, want a single terminal error event", events)
	}

	// Write failure: the client is gone; nothing further is written, and no
	// error event is fabricated into the void.
	ew := &errAfterWriter{noFlushWriter: *newNoFlushWriter()}
	st2 := &sseStream{w: ew}
	st2.event("open", []byte("{}"))
	ew.fail = true
	st2.jsonEvent("sql", sqlEvent{SQL: "SELECT 1"})
	if !st2.failed || st2.errored {
		t.Fatalf("write failure: failed=%v errored=%v, want failed only", st2.failed, st2.errored)
	}
	before := ew.buf.Len()
	st2.jsonEvent("done", map[string]string{})
	if ew.buf.Len() != before {
		t.Fatal("events were written after the stream failed")
	}
	events = parseSSE(t, ew.buf.Bytes())
	if len(events) != 1 || events[0].name != "open" {
		t.Fatalf("dead stream carries %+v, want only the open event", events)
	}
}

// TestEventsConcurrentFanout hammers one session with concurrent
// subscribers (attaching at staggered times), a writer driving turns, and
// subscriber churn, under -race: every subscriber's view must be gap-free
// and byte-identical to every other's over the common sequence range.
func TestEventsConcurrentFanout(t *testing.T) {
	ts := fanoutServer(t, WithPubSubRing(4096))
	f := factory(t)
	sid := newTestSession(t, ts)

	const subscribers = 6
	type view struct {
		events []sseEvent
		err    error
	}
	results := make(chan view, subscribers)
	// Each subscriber attaches on its own goroutine, racing the asks, and
	// always reports on results: a t.Fatal there would leave the receive
	// loop below waiting forever.
	var attached sync.WaitGroup
	attached.Add(subscribers)
	for i := 0; i < subscribers; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/sessions/" + sid + "/events")
			attached.Done()
			if err != nil {
				results <- view{err: err}
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results <- view{err: fmt.Errorf("subscribe: status %d", resp.StatusCode)}
				return
			}
			events, err := readUntilEOF(bufio.NewReader(resp.Body))
			results <- view{events, err}
		}()
		if i == subscribers/2 {
			// Stagger: half the subscribers attach mid-run and replay.
			askPlain(t, ts, sid, f.ds.Examples[0].Question)
		}
	}
	n := 8
	if len(f.ds.Examples) < n {
		n = len(f.ds.Examples)
	}
	for _, e := range f.ds.Examples[1:n] {
		askPlain(t, ts, sid, e.Question)
	}
	sendFeedback(t, ts, sid, "use a left join instead")
	// A subscriber that attached after the delete would get a 404 instead
	// of the stream, so every attach returns first.
	attached.Wait()
	deleteSession(t, ts, sid)

	var reference []sseEvent
	for i := 0; i < subscribers; i++ {
		v := <-results
		if v.err != nil {
			t.Fatalf("subscriber %d: %v", i, v.err)
		}
		got := v.events
		checkContiguous(t, got, 1, fmt.Sprintf("subscriber %d", i))
		if got[len(got)-1].name != "delete" {
			t.Fatalf("subscriber %d did not end with delete: %+v", i, got[len(got)-1])
		}
		if reference == nil {
			reference = got
		} else if len(got) != len(reference) {
			t.Fatalf("subscriber %d saw %d events, reference saw %d", i, len(got), len(reference))
		} else {
			for j := range got {
				if got[j] != reference[j] {
					t.Fatalf("subscriber %d event %d differs: %+v vs %+v", i, j, got[j], reference[j])
				}
			}
		}
	}
}

// TestEventsRecoveryReseedsSequences: after a crash and journal replay, a
// subscriber replaying from 0 sees byte-identical events under identical
// sequence numbers — the invariant that makes Last-Event-ID resumption
// safe across restarts and failover promotions.
func TestEventsRecoveryReseedsSequences(t *testing.T) {
	f := factory(t)
	path := filepath.Join(t.TempDir(), "sessions.journal")
	j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": f},
		WithJournal(j), WithPubSubRing(4096)))
	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")
	sendFeedback(t, ts, sid, "only active users")
	askPlain(t, ts, sid, "list all users")

	resp, r := subscribe(t, ts, sid, 0)
	before := collectN(t, r, 1+4+5+4)
	resp.Body.Close()
	ts.Close()
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}

	j2, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ts2 := httptest.NewServer(New(map[string]SessionFactory{"aep": f},
		WithJournal(j2), WithPubSubRing(4096)))
	defer ts2.Close()
	resp2, r2 := subscribe(t, ts2, sid, 0)
	after := collectN(t, r2, len(before))
	resp2.Body.Close()

	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("event %d differs across recovery:\nbefore: %+v\nafter:  %+v",
				i, before[i], after[i])
		}
	}

	// And a mid-sequence resume against the recovered server continues
	// exactly where the pre-crash subscriber left off.
	last, _ := strconv.ParseUint(before[5].id, 10, 64)
	resp3, r3 := subscribe(t, ts2, sid, last)
	tail := collectN(t, r3, len(before)-6)
	resp3.Body.Close()
	for i, ev := range tail {
		if ev != before[6+i] {
			t.Fatalf("resumed event %d differs: %+v vs %+v", i, ev, before[6+i])
		}
	}
}

// TestEventsHandoffEndsWithoutDelete: a session released to another node
// (cluster rebalance) ends its local stream with no delete event — the
// session moved, it did not end.
func TestEventsHandoffEndsWithoutDelete(t *testing.T) {
	f := factory(t)
	j, err := persist.Open(filepath.Join(t.TempDir(), "journal"), persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := New(map[string]SessionFactory{"aep": f}, WithJournal(j))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sid := newTestSession(t, ts)
	askPlain(t, ts, sid, "how many users are there")

	resp, r := subscribe(t, ts, sid, 0)
	defer resp.Body.Close()
	done := make(chan []sseEvent, 1)
	go func() { done <- collectUntilEOF(t, r) }()
	var sent []persist.Record
	if !srv.HandOff(sid, "node-b", func(recs []persist.Record) error { sent = recs; return nil }) {
		t.Fatal("HandOff returned false")
	}
	if len(sent) != 2 {
		t.Errorf("HandOff sent %d records, want the create and the ask", len(sent))
	}
	select {
	case events := <-done:
		for _, ev := range events {
			if ev.name == "delete" {
				t.Fatalf("handoff published a delete event: %+v", events)
			}
		}
		if len(events) != 5 {
			t.Fatalf("handoff stream has %d events, want the 5 published ones", len(events))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end on handoff")
	}
}

// TestEventsSlowSubscriberDoesNotBlockAsks: a subscriber that never reads
// must not slow the ask path — the hub publish is non-blocking and the
// stalled reader's connection buffer is not the server's problem.
func TestEventsSlowSubscriberDoesNotBlockAsks(t *testing.T) {
	ts := fanoutServer(t, WithPubSubRing(8))
	f := factory(t)
	sid := newTestSession(t, ts)

	// Open a subscription and never read from it.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+sid+"/events", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	n := 6
	if len(f.ds.Examples) < n {
		n = len(f.ds.Examples)
	}
	start := time.Now()
	for _, e := range f.ds.Examples[:n] {
		askPlain(t, ts, sid, e.Question)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("asks took %v with a stalled subscriber attached", elapsed)
	}
	deleteSession(t, ts, sid)
}

// The fanout scenario: fanoutFollowers subscribers and one stalled reader
// watch a session driven through fanoutAsks asks and then deleted. Every
// follower must see fanoutEvents events: the open event, four per ask and
// the delete.
const (
	fanoutFollowers = 4
	fanoutAsks      = 6
	fanoutEvents    = 1 + 4*fanoutAsks + 1
)

// follow reads sid's fanout stream until the delete event. With
// dropAfter > 0 it drops its connection once after that many events and
// resumes from the last id via Last-Event-ID. attached runs once the first
// subscription is open, resumed once the resume is.
func follow(ctx context.Context, base, sid string, dropAfter int, attached, resumed func()) ([]sseEvent, error) {
	resp, r, err := openEvents(ctx, base, sid, 0)
	attached()
	if err != nil {
		return nil, err
	}
	var events []sseEvent
	for {
		if dropAfter > 0 && len(events) == dropAfter {
			resp.Body.Close()
			last, _ := strconv.ParseUint(events[len(events)-1].id, 10, 64)
			resp, r, err = openEvents(ctx, base, sid, last)
			resumed()
			if err != nil {
				return events, fmt.Errorf("resume after %d: %v", last, err)
			}
			dropAfter = 0
		}
		ev, err := readFrame(r)
		if err != nil {
			resp.Body.Close()
			return events, fmt.Errorf("stream ended after %d events with no delete: %v", len(events), err)
		}
		events = append(events, ev)
		if ev.name == "delete" {
			resp.Body.Close()
			return events, nil
		}
	}
}

// watchSession runs the fanout scenario on a fresh session of ts. The
// first follower drops its connection after the first half of the asks
// and resumes with Last-Event-ID before the second half starts; the
// stalled reader subscribes and never reads a byte. It returns every
// follower's stream and the ask latencies, sorted.
func watchSession(t *testing.T, ts *httptest.Server) ([][]sseEvent, []time.Duration) {
	t.Helper()
	f := factory(t)
	sid := newTestSession(t, ts)
	// A failed run must not leave streams open: ts.Close waits for them.
	// Cleanups run last-registered first, so this one runs before it.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	streams := make([][]sseEvent, fanoutFollowers)
	errs := make([]error, fanoutFollowers)
	var attached, done sync.WaitGroup
	attached.Add(fanoutFollowers)
	done.Add(fanoutFollowers)
	resumed := make(chan struct{})
	for i := range streams {
		dropAfter, onResume := 0, func() {}
		if i == 0 {
			dropAfter, onResume = 1+4*(fanoutAsks/2), func() { close(resumed) }
		}
		go func() {
			defer done.Done()
			streams[i], errs[i] = follow(ctx, ts.URL, sid, dropAfter, attached.Done, onResume)
		}()
	}
	attached.Wait()

	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sessions/"+sid+"/events", nil)
	stalled, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close()

	lats := make([]time.Duration, 0, fanoutAsks)
	for i := 0; i < fanoutAsks; i++ {
		if i == fanoutAsks/2 {
			select {
			case <-resumed:
			case <-time.After(10 * time.Second):
				t.Fatal("the dropped follower never resumed")
			}
		}
		t0 := time.Now()
		askPlain(t, ts, sid, f.ds.Examples[i].Question)
		lats = append(lats, time.Since(t0))
	}
	deleteSession(t, ts, sid)
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("followers never saw the end of the stream")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return streams, lats
}

// TestEventsFanoutScenario: four followers, one of which resumes
// mid-run via Last-Event-ID, and a stalled reader watch a session through
// six asks and its delete. Every stream is the same gap-free sequence with
// no dropped marker, and the pubsub metrics account for it: every event
// published exactly once, the resume counted as a replay, and no
// subscriber left once the streams close. TestEventsStalledReaderAskP99
// bounds the asks' latency in the same scenario.
func TestEventsFanoutScenario(t *testing.T) {
	m := obs.NewMetrics()
	ts := fanoutServer(t, WithMetrics(m))
	streams, _ := watchSession(t, ts)
	for i, evs := range streams {
		if len(evs) != fanoutEvents {
			t.Fatalf("follower %d saw %d events, want %d", i, len(evs), fanoutEvents)
		}
		checkContiguous(t, evs, 1, fmt.Sprintf("follower %d", i))
		for j, ev := range evs {
			if ev.name == "dropped" {
				t.Errorf("follower %d event %d is a dropped marker", i, j)
			}
			if ev != streams[0][j] {
				t.Errorf("follower %d event %d differs from follower 0: %+v vs %+v", i, j, ev, streams[0][j])
			}
		}
	}

	snap := m.Registry.Snapshot()
	if got := snap.Counters["fisql_pubsub_published_total"]; got != fanoutEvents {
		t.Errorf("fisql_pubsub_published_total = %d, want %d", got, fanoutEvents)
	}
	if got := snap.Counters["fisql_pubsub_replays_total"]; got < 1 {
		t.Errorf("fisql_pubsub_replays_total = %d, want >= 1 (one follower resumed)", got)
	}
	// The stalled reader's handler ends on its own once the topic closes;
	// give it time to unsubscribe.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got := m.Registry.Snapshot().Gauges["fisql_pubsub_subscribers"]
		if got == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fisql_pubsub_subscribers = %d after every stream closed, want 0", got)
		}
	}
}
