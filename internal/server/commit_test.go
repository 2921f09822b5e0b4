package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fisql/internal/persist"
)

// errFollowerDown is the replication failure the tests below inject.
var errFollowerDown = errors.New("follower down")

// presetCreate creates a session under a router-issued id, the way a
// cluster node receives creates.
func presetCreate(h http.Handler, id string) (int, map[string]any) {
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"corpus":"aep"}`))
	req.Header.Set("X-Fisql-Session-Id", id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec.Code, out
}

// topicEvents returns every event the session's topic retains, in order,
// without waiting for more: Next delivers retained events even on a done
// context.
func topicEvents(t *testing.T, srv *Server, id string) []sseEvent {
	t.Helper()
	sub, err := srv.hub.Subscribe(id, 0)
	if err != nil {
		t.Fatalf("subscribe %s: %v", id, err)
	}
	defer sub.Cancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out []sseEvent
	for {
		ev, _, ok := sub.Next(ctx)
		if !ok {
			return out
		}
		out = append(out, sseEvent{id: strconv.FormatUint(ev.Seq, 10), name: ev.Type, data: string(ev.Data)})
	}
}

func eventNames(events []sseEvent) []string {
	names := make([]string, len(events))
	for i, ev := range events {
		names[i] = ev.name
	}
	return names
}

// TestCommitFailureMatrix pins what every record kind leaves behind when
// its commit fails, for {create, ask, streamed ask, feedback, delete,
// evict, expire, handoff, adopt} × {local journal failure, replication
// failure}: the answer (an HTTP status and its exact error text, the
// streamed ask's terminal error event, HandOff's or AdoptSessions' success,
// or no request at all for evict and expire), whether the session survives,
// its history, the journal's and the replicator's records for it, and its
// /events stream.
//
// A local failure means the record never became durable. A turn's session
// is evicted (a create never registers); a delete or handoff leaves the
// session serving, because its state still equals the journal; a session
// the store dropped by itself ends anyway; an adoption is abandoned. A
// replication failure leaves a record that is durable here: a turn stays in
// the history, the journal and the event stream, and only the response
// reports the error; a delete, eviction, expiry, handoff or adoption goes
// ahead. A create is the exception: the client retries it under a fresh id,
// so the node commits a delete after it.
func TestCommitFailureMatrix(t *testing.T) {
	f := factory(t)
	const sid = "s7"
	answer := []string{"sql", "explanation", "result", "done"}
	seq := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	create, ask, fb := persist.TCreate, persist.TAsk, persist.TFeedback
	del, handoff := persist.TDelete, persist.THandoff
	cells := []struct {
		op    string // create, ask, stream, feedback, delete, evict, expire, handoff or adopt
		local bool   // local journal failure; otherwise replication failure
		code  int    // the answer; 200 or 500 for HandOff and AdoptSessions, 0 for no request
		kept  bool   // the session still serves afterwards
		turns int    // its history turns afterwards (kept sessions)
		recs  []persist.Type
		sent  []persist.Type // the replicator's records for the session
		// events is the session's /events stream: to its end for a session
		// that ended, and for a kept one either up to a delete the test
		// sends or, when the journal is down, the events retained so far.
		// stream is the streamed ask's own events.
		events []string
		stream []string
	}{
		{op: "create", local: true, code: 500},
		{op: "create", code: 500, sent: []persist.Type{create, del}},
		{op: "ask", local: true, code: 500, recs: []persist.Type{create}, sent: []persist.Type{create},
			events: []string{"open", "delete"}},
		{op: "ask", code: 500, kept: true, turns: 2, recs: []persist.Type{create, ask}, sent: []persist.Type{create, ask},
			events: seq([]string{"open"}, answer, []string{"delete"})},
		{op: "stream", local: true, code: 500, recs: []persist.Type{create}, sent: []persist.Type{create},
			events: []string{"open", "delete"},
			stream: []string{"open", "sql", "explanation", "result", "error"}},
		{op: "stream", code: 500, kept: true, turns: 2, recs: []persist.Type{create, ask}, sent: []persist.Type{create, ask},
			events: seq([]string{"open"}, answer, []string{"delete"}),
			stream: []string{"open", "sql", "explanation", "result", "error"}},
		{op: "feedback", local: true, code: 500, recs: []persist.Type{create, ask}, sent: []persist.Type{create, ask},
			events: seq([]string{"open"}, answer, []string{"delete"})},
		{op: "feedback", code: 500, kept: true, turns: 4,
			recs:   []persist.Type{create, ask, fb},
			sent:   []persist.Type{create, ask, fb},
			events: seq([]string{"open"}, answer, []string{"feedback"}, answer, []string{"delete"})},
		{op: "delete", local: true, code: 500, kept: true, recs: []persist.Type{create}, sent: []persist.Type{create},
			events: []string{"open"}},
		{op: "delete", code: 200, sent: []persist.Type{create, del}, events: []string{"open", "delete"}},
		{op: "evict", local: true, recs: []persist.Type{create}, sent: []persist.Type{create},
			events: []string{"open", "delete"}},
		{op: "evict", sent: []persist.Type{create, del}, events: []string{"open", "delete"}},
		{op: "expire", local: true, recs: []persist.Type{create}, sent: []persist.Type{create},
			events: []string{"open", "delete"}},
		{op: "expire", sent: []persist.Type{create, del}, events: []string{"open", "delete"}},
		{op: "handoff", local: true, code: 500, kept: true, recs: []persist.Type{create}, sent: []persist.Type{create},
			events: []string{"open"}},
		{op: "handoff", code: 200, sent: []persist.Type{create, handoff}, events: []string{"open"}},
		{op: "adopt", local: true, code: 500},
		{op: "adopt", code: 200, kept: true, turns: 2, recs: []persist.Type{create, ask}, sent: []persist.Type{create, ask},
			events: seq([]string{"open"}, answer, []string{"delete"})},
	}
	failing := map[string]persist.Type{
		"create": create, "ask": ask, "stream": ask, "feedback": fb, "delete": del,
		"evict": del, "expire": del, "handoff": handoff, "adopt": create,
	}
	status := func(ok bool) int {
		if ok {
			return http.StatusOK
		}
		return http.StatusInternalServerError
	}
	for _, c := range cells {
		name := c.op + "/replication"
		if c.local {
			name = c.op + "/local"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal")
			j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			var mu sync.Mutex
			var sent []persist.Type
			opts := []Option{WithJournal(j), WithPresetSessionIDs(),
				WithReplicator(func(rec persist.Record) error {
					if rec.Session == sid {
						mu.Lock()
						sent = append(sent, rec.Type)
						mu.Unlock()
					}
					if !c.local && rec.Type == failing[c.op] {
						return errFollowerDown
					}
					return nil
				})}
			switch c.op {
			case "evict":
				opts = append(opts, WithMaxSessions(1))
			case "expire":
				opts = append(opts, WithSessionTTL(time.Minute))
			}
			srv := New(map[string]SessionFactory{"aep": f}, opts...)
			var skew atomic.Int64
			srv.store.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
			ts := httptest.NewServer(srv)
			defer ts.Close()
			base := ts.URL + "/v1/sessions/" + sid

			var r *bufio.Reader
			if c.op != "create" && c.op != "adopt" {
				if code, out := presetCreate(srv, sid); code != http.StatusOK {
					t.Fatalf("create: %d %v", code, out)
				}
				resp, sub := subscribe(t, ts, sid, 0)
				defer resp.Body.Close()
				r = sub
			}
			if c.op == "feedback" {
				askPlain(t, ts, sid, askQuestion)
			}
			wantErr := "journal: replicate: follower down"
			if c.local {
				// Every append from here on fails.
				if err := j.Crash(); err != nil {
					t.Fatal(err)
				}
				wantErr = "journal: journal " + path + " is closed"
			}

			var code int
			var out map[string]any
			post := func(path string, body any) {
				resp, o := postJSON(t, base+path, body)
				code, out = resp.StatusCode, o
			}
			switch c.op {
			case "create":
				code, out = presetCreate(srv, sid)
			case "ask":
				post("/ask", map[string]string{"question": askQuestion})
			case "feedback":
				post("/feedback", map[string]string{"text": "we are in 2024"})
			case "stream":
				events := askSSE(t, ts, sid, askQuestion)
				if got := eventNames(events); !reflect.DeepEqual(got, c.stream) {
					t.Fatalf("stream = %v, want %v", got, c.stream)
				}
				code = http.StatusInternalServerError
				_ = json.Unmarshal([]byte(events[len(events)-1].data), &out)
			case "delete":
				req, _ := http.NewRequest(http.MethodDelete, base, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				_ = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				code = resp.StatusCode
			case "evict":
				// A second session takes the only slot.
				srv.store.put("s8", srv.openSession("s8", "aep", "experience_platform"))
			case "expire":
				skew.Store(int64(2 * time.Minute))
				if _, ok := srv.store.get(sid); ok {
					t.Fatal("idle session survived its TTL")
				}
			case "handoff":
				code = status(srv.HandOff(sid, "node-b", func([]persist.Record) error { return nil }))
			case "adopt":
				res := srv.AdoptSessions([]persist.Record{
					{Type: create, Session: sid, Corpus: "aep", DB: "experience_platform", ID: 7},
					{Type: ask, Session: sid, Text: askQuestion},
				})
				code = status(reflect.DeepEqual(res.Adopted, []string{sid}))
			}
			if code != c.code {
				t.Fatalf("%s answered %d %v, want %d", c.op, code, out, c.code)
			}
			if code == http.StatusInternalServerError && c.op != "handoff" && c.op != "adopt" && out["error"] != wantErr {
				t.Fatalf("%s failed with %v, want {error: %q}", c.op, out, wantErr)
			}

			hcode, hist := getHistory(t, base)
			switch {
			case c.kept && hcode != http.StatusOK:
				t.Fatalf("session dropped: history %d %s", hcode, hist)
			case c.kept:
				if n := strings.Count(hist, `"role"`); n != c.turns {
					t.Errorf("history has %d turns, want %d: %s", n, c.turns, hist)
				}
			case hcode != http.StatusNotFound:
				t.Errorf("session still answers history %d, want 404: %s", hcode, hist)
			}

			var got []persist.Type
			for _, rec := range j.SessionRecords(sid) {
				got = append(got, rec.Type)
			}
			if !reflect.DeepEqual(got, c.recs) {
				t.Errorf("journal records = %v, want %v", got, c.recs)
			}
			mu.Lock()
			if !reflect.DeepEqual(sent, c.sent) {
				t.Errorf("replicated records = %v, want %v", sent, c.sent)
			}
			mu.Unlock()

			var events []sseEvent
			switch {
			case !c.kept:
				req, _ := http.NewRequest(http.MethodGet, base+"/events", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				drainBody(resp)
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("/events of a dropped session: %d, want 404", resp.StatusCode)
				}
				if r == nil {
					return
				}
				events = collectUntilEOF(t, r)
			case c.local:
				events = topicEvents(t, srv, sid)
			default:
				if r == nil {
					resp, sub := subscribe(t, ts, sid, 0)
					defer resp.Body.Close()
					r = sub
				}
				deleteSession(t, ts, sid)
				events = collectUntilEOF(t, r)
			}
			checkContiguous(t, events, 1, "/events")
			if got := eventNames(events); !reflect.DeepEqual(got, c.events) {
				t.Errorf("/events = %v, want %v", got, c.events)
			}
		})
	}
}

// TestReplicationFailurePublishesTurn is the regression test for a turn
// whose replication failed: it is in the local journal and in /history, so
// it must be on /events too. Otherwise the live stream lacks a turn that
// crash recovery replays, recovery shifts every later sequence number, and
// a subscriber resuming across the restart receives a turn twice.
func TestReplicationFailurePublishesTurn(t *testing.T) {
	f := factory(t)
	path := filepath.Join(t.TempDir(), "sessions.journal")
	j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var asks atomic.Int32
	failSecondAsk := func(rec persist.Record) error {
		if rec.Type == persist.TAsk && asks.Add(1) == 2 {
			return errFollowerDown
		}
		return nil
	}
	srv := New(map[string]SessionFactory{"aep": f},
		WithJournal(j), WithReplicator(failSecondAsk), WithPubSubRing(4096))
	ts := httptest.NewServer(srv)
	sid := newTestSession(t, ts)
	base := ts.URL + "/v1/sessions/" + sid
	askPlain(t, ts, sid, "how many users are there")
	code, body := rawPost(t, base+"/ask", map[string]string{"question": "list all users"})
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "journal: replicate: follower down") {
		t.Fatalf("ask with a failing follower: %d %s", code, body)
	}
	askPlain(t, ts, sid, "how many users are there in total")

	_, histBefore := getHistory(t, base)
	if n := strings.Count(histBefore, `"role":"user"`); n != 3 {
		t.Fatalf("history holds %d asks, want 3: %s", n, histBefore)
	}
	before := topicEvents(t, srv, sid)
	if len(before) != 1+3*4 {
		t.Fatalf("live stream has %d events, want open plus 3 turns (13): %v", len(before), eventNames(before))
	}
	checkContiguous(t, before, 1, "live stream")
	ts.Close()
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}

	j2, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	srv2 := New(map[string]SessionFactory{"aep": f}, WithJournal(j2), WithPubSubRing(4096))
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if _, histAfter := getHistory(t, ts2.URL+"/v1/sessions/"+sid); histAfter != histBefore {
		t.Fatalf("history differs across recovery:\nbefore: %s\nafter:  %s", histBefore, histAfter)
	}
	if after := topicEvents(t, srv2, sid); !reflect.DeepEqual(after, before) {
		t.Fatalf("events differ across recovery:\nbefore: %+v\nafter:  %+v", before, after)
	}
	// A subscriber that had read up to seq 9 resumes with exactly 10..13.
	resp, r := subscribe(t, ts2, sid, 9)
	tail := collectN(t, r, 4)
	resp.Body.Close()
	if !reflect.DeepEqual(tail, before[9:]) {
		t.Fatalf("resumed tail differs:\ngot:  %+v\nwant: %+v", tail, before[9:])
	}
}

// TestConcurrentPresetCreates: concurrent creates of one preset id (a router
// retry racing its first attempt) register and journal the session exactly
// once; every other create answers 409 with the session's coordinates.
func TestConcurrentPresetCreates(t *testing.T) {
	f := factory(t)
	j, err := persist.Open(filepath.Join(t.TempDir(), "journal"), persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := New(map[string]SessionFactory{"aep": f}, WithJournal(j), WithPresetSessionIDs(), WithMaxSessions(0))
	const creators, trials = 8, 100
	for trial := 1; trial <= trials; trial++ {
		id := "s" + strconv.Itoa(trial)
		start := make(chan struct{})
		codes := make(chan int, creators)
		var wg sync.WaitGroup
		for i := 0; i < creators; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				code, out := presetCreate(srv, id)
				if code == http.StatusConflict &&
					(out["error"] != "session exists" || out["session_id"] != id || out["db"] != "experience_platform") {
					t.Errorf("409 body %v", out)
				}
				codes <- code
			}()
		}
		close(start)
		wg.Wait()
		close(codes)
		counts := map[int]int{}
		for code := range codes {
			counts[code]++
		}
		if counts[http.StatusOK] != 1 || counts[http.StatusConflict] != creators-1 {
			t.Fatalf("trial %d: statuses %v, want one 200 and %d 409s", trial, counts, creators-1)
		}
		if n := len(j.SessionRecords(id)); n != 1 {
			t.Fatalf("trial %d: journal holds %d records for %s, want its one create", trial, n, id)
		}
	}
	if n := srv.store.len(); n != trials {
		t.Errorf("store holds %d sessions, want %d", n, trials)
	}
	if n := j.Stats().Records; n != trials {
		t.Errorf("journal appended %d records for %d sessions, want one create each", n, trials)
	}
}
