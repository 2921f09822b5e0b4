package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fisql/internal/persist"
	"fisql/internal/persist/persisttest"
)

const askQuestion = "How many audiences were created in January?"

// journalServer opens (or reopens) the journal at path and serves the shared
// aep factory on top of it. The caller owns both: close the test server
// before crashing or closing the journal.
func journalServer(t *testing.T, path string, opts ...Option) (*httptest.Server, *persist.Journal, *Server) {
	t.Helper()
	j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(map[string]SessionFactory{"aep": factory(t)}, append(opts, WithJournal(j))...)
	return httptest.NewServer(srv), j, srv
}

func getHistory(t *testing.T, base string) (int, string) {
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
	return resp.StatusCode, string(b)
}

func createSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, created := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %v", resp.StatusCode, created)
	}
	id, _ := created["session_id"].(string)
	if id == "" {
		t.Fatalf("no session id: %v", created)
	}
	return id
}

// TestCrashRecoveryHistoryIdentical is the acceptance criterion end to end:
// journal a mixed workload (asks, grounded feedback with an explicit
// highlight_start, a delete), kill the server without any shutdown
// courtesy, restart on the same journal, and require every surviving
// session's /history body to be byte-identical to its pre-crash capture.
func TestCrashRecoveryHistoryIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	ts, j, _ := journalServer(t, path)

	// Session A: ask, then feedback grounded at an explicit byte offset.
	a := createSession(t, ts)
	_, ans := postJSON(t, ts.URL+"/v1/sessions/"+a+"/ask", map[string]string{"question": askQuestion})
	sql, _ := ans["sql"].(string)
	off := strings.Index(sql, "2023")
	resp, out := postJSON(t, ts.URL+"/v1/sessions/"+a+"/feedback", map[string]any{
		"text": "we are in 2024", "highlight": "2023", "highlight_start": off})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grounded feedback: %d %v", resp.StatusCode, out)
	}

	// Session B: ask plus ungrounded feedback.
	b := createSession(t, ts)
	postJSON(t, ts.URL+"/v1/sessions/"+b+"/ask", map[string]string{"question": askQuestion})
	postJSON(t, ts.URL+"/v1/sessions/"+b+"/feedback", map[string]string{"text": "only the top 5"})

	// Session C: created and deleted before the crash; must stay dead.
	c := createSession(t, ts)
	postJSON(t, ts.URL+"/v1/sessions/"+c+"/ask", map[string]string{"question": askQuestion})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+c, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainBody(dresp)

	want := map[string]string{}
	for _, id := range []string{a, b} {
		_, body := getHistory(t, ts.URL+"/v1/sessions/"+id)
		want[id] = body
	}

	ts.Close()
	j.Crash()

	ts2, j2, srv2 := journalServer(t, path)
	defer ts2.Close()
	defer j2.Close()

	rec := srv2.Recovery()
	if rec.Sessions != 2 {
		t.Errorf("recovered sessions = %d, want 2 (info: %+v)", rec.Sessions, rec)
	}
	for id, pre := range want {
		code, post := getHistory(t, ts2.URL+"/v1/sessions/"+id)
		if code != http.StatusOK {
			t.Fatalf("session %s not recovered: %d", id, code)
		}
		if post != pre {
			t.Errorf("session %s history drifted after recovery:\npre:  %q\npost: %q", id, pre, post)
		}
	}
	if code, _ := getHistory(t, ts2.URL+"/v1/sessions/"+c); code != http.StatusNotFound {
		t.Errorf("deleted session %s resurrected: %d", c, code)
	}

	// The recovered server keeps serving: a new session id must not collide
	// with a replayed one.
	fresh := createSession(t, ts2)
	if fresh == a || fresh == b || fresh == c {
		t.Errorf("fresh id %s collides with a pre-crash session", fresh)
	}
}

// TestCrashRecoveryTornSweep truncates the journal at every byte boundary
// inside its final frame — the torn-write sweep from the issue. The final
// record is an ask on a dedicated victim session, so for every cut the
// earlier sessions are fully committed and must recover byte-identical; the
// victim simply loses the unacknowledged turn.
func TestCrashRecoveryTornSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	ts, j, _ := journalServer(t, path)

	a := createSession(t, ts)
	postJSON(t, ts.URL+"/v1/sessions/"+a+"/ask", map[string]string{"question": askQuestion})
	postJSON(t, ts.URL+"/v1/sessions/"+a+"/feedback", map[string]string{
		"text": "we are in 2024", "highlight": "2023"})
	victim := createSession(t, ts)
	_, victimEmpty := getHistory(t, ts.URL+"/v1/sessions/"+victim)
	postJSON(t, ts.URL+"/v1/sessions/"+victim+"/ask", map[string]string{"question": askQuestion})

	_, wantA := getHistory(t, ts.URL+"/v1/sessions/"+a)
	_, wantVictim := getHistory(t, ts.URL+"/v1/sessions/"+victim)

	ts.Close()
	j.Crash()

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, ends, err := persist.ScanBytes(img)
	if err != nil {
		t.Fatalf("pre-crash journal does not scan: %v", err)
	}
	last := recs[len(recs)-1]
	if last.Type != persist.TAsk || last.Session != victim {
		t.Fatalf("final record is %+v, want the victim ask", last)
	}
	lastStart := int64(0)
	if len(ends) > 1 {
		lastStart = ends[len(ends)-2]
	}

	for cut := lastStart; cut <= int64(len(img)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "journal")
			if err := os.WriteFile(p, img[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			ts2, j2, _ := journalServer(t, p)
			defer ts2.Close()
			defer j2.Close()

			code, gotA := getHistory(t, ts2.URL+"/v1/sessions/"+a)
			if code != http.StatusOK || gotA != wantA {
				t.Fatalf("committed session at cut %d: code %d\ngot:  %q\nwant: %q", cut, code, gotA, wantA)
			}
			code, gotV := getHistory(t, ts2.URL+"/v1/sessions/"+victim)
			if code != http.StatusOK {
				t.Fatalf("victim session gone at cut %d: %d", cut, code)
			}
			if cut == int64(len(img)) {
				if gotV != wantVictim {
					t.Fatalf("intact journal lost the final ask:\ngot:  %q\nwant: %q", gotV, wantVictim)
				}
			} else if gotV != victimEmpty {
				t.Fatalf("torn final record at cut %d must roll the victim back to empty:\ngot:  %q\nwant: %q",
					cut, gotV, victimEmpty)
			}
		})
	}
}

// TestNoIDReuseAfterCompactedDelete is the review repro for the id-reuse
// hole: create two sessions, delete the second, shut down gracefully (the
// journal's Close compacts, erasing every trace of the deleted session),
// restart — the next create must NOT reissue the dead id, or a stale
// client holding the old handle silently reads another client's session.
func TestNoIDReuseAfterCompactedDelete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	ts, j, _ := journalServer(t, path)

	a := createSession(t, ts)
	b := createSession(t, ts)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+b, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainBody(dresp)

	ts.Close()
	if err := j.Close(); err != nil { // graceful shutdown: compacts
		t.Fatal(err)
	}

	ts2, j2, _ := journalServer(t, path)
	defer ts2.Close()
	defer j2.Close()

	if code, _ := getHistory(t, ts2.URL+"/v1/sessions/"+b); code != http.StatusNotFound {
		t.Fatalf("deleted session %s resurrected after restart: %d", b, code)
	}
	fresh := createSession(t, ts2)
	if fresh == a || fresh == b {
		t.Errorf("fresh id %s reuses a pre-shutdown id (a=%s, deleted b=%s)", fresh, a, b)
	}
	if code, _ := getHistory(t, ts2.URL+"/v1/sessions/"+fresh); code != http.StatusOK {
		t.Errorf("fresh session %s not serving: %d", fresh, code)
	}
}

// TestJournalFailureEvictsSession: when a turn's journal append fails after
// the turn already mutated the live session, the handler must answer 500
// AND drop the session — keeping it would serve a history the journal
// never captured (divergent replay after a crash) and let a retry of the
// 500 double-apply the turn.
func TestJournalFailureEvictsSession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	ts, j, _ := journalServer(t, path)
	defer ts.Close()

	id := createSession(t, ts)
	base := ts.URL + "/v1/sessions/" + id
	if resp, out := postJSON(t, base+"/ask", map[string]string{"question": askQuestion}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ask before failure: %d %v", resp.StatusCode, out)
	}

	// Break the journal out from under the server: every later append fails.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	resp, _ := postJSON(t, base+"/feedback", map[string]string{"text": "only the top 5"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("turn with a broken journal = %d, want 500", resp.StatusCode)
	}
	// The diverged session must be gone, not serving the uncaptured turn.
	if code, _ := getHistory(t, base); code != http.StatusNotFound && code != http.StatusGone {
		t.Errorf("diverged session still serving after journal failure: %d", code)
	}
	resp, _ = postJSON(t, base+"/ask", map[string]string{"question": askQuestion})
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusGone {
		t.Errorf("ask on the dropped session = %d, want 404/410", resp.StatusCode)
	}
}

// TestRecoveryRespectsEviction: sessions evicted by the LRU cap before the
// crash were journaled as deletes, so a restart under the same cap holds
// only the survivors. With a cap lowered across the restart, recovery
// replays only the latest sessions the new cap keeps, and appends nothing
// while it does.
func TestRecoveryRespectsEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	ts, j, _ := journalServer(t, path, WithMaxSessions(2))

	ids := []string{createSession(t, ts), createSession(t, ts), createSession(t, ts)}
	ts.Close()
	j.Crash()

	ts2, j2, srv2 := journalServer(t, path, WithMaxSessions(2))
	defer ts2.Close()
	defer j2.Close()
	if got := srv2.Recovery().Sessions; got != 2 {
		t.Errorf("recovered %d sessions, want 2", got)
	}
	if code, _ := getHistory(t, ts2.URL+"/v1/sessions/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("evicted session %s recovered anyway: %d", ids[0], code)
	}
	for _, id := range ids[1:] {
		if code, _ := getHistory(t, ts2.URL+"/v1/sessions/"+id); code != http.StatusOK {
			t.Errorf("survivor %s missing after recovery: %d", id, code)
		}
	}

	// The cap drops from 3 to 2 across a restart.
	path = filepath.Join(t.TempDir(), "lowered")
	ts3, j3, _ := journalServer(t, path, WithMaxSessions(3))
	ids = []string{createSession(t, ts3), createSession(t, ts3), createSession(t, ts3)}
	hists := map[string]string{}
	for _, id := range ids {
		postJSON(t, ts3.URL+"/v1/sessions/"+id+"/ask", map[string]string{"question": askQuestion})
		_, hists[id] = getHistory(t, ts3.URL+"/v1/sessions/"+id)
	}
	ts3.Close()
	j3.Crash()

	ts4, j4, srv4 := journalServer(t, path, WithMaxSessions(2))
	defer ts4.Close()
	defer j4.Close()
	if n := j4.Stats().Records; n != 0 {
		t.Errorf("recovery appended %d records, want none", n)
	}
	if got := srv4.Recovery().Sessions; got != 2 {
		t.Errorf("recovered %d sessions under the lowered cap, want 2", got)
	}
	if code, _ := getHistory(t, ts4.URL+"/v1/sessions/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest session %s recovered over the cap: %d", ids[0], code)
	}
	for _, id := range ids[1:] {
		if code, hist := getHistory(t, ts4.URL+"/v1/sessions/"+id); code != http.StatusOK || hist != hists[id] {
			t.Errorf("survivor %s after recovery: %d %s, want %s", id, code, hist, hists[id])
		}
	}
	if live := j4.LiveSessions(); !reflect.DeepEqual(live, ids[1:]) {
		t.Errorf("journal keeps %v after the checkpoint, want %v", live, ids[1:])
	}
}

// TestDeleteDurableBeforeAck: a delete is acknowledged only once its record
// is in the journal. When the append fails, DELETE answers 500 and the
// session keeps serving, because its state still equals the journal; a
// restart then recovers it with the same history.
func TestDeleteDurableBeforeAck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	ts, j, _ := journalServer(t, path)
	id := createSession(t, ts)
	base := ts.URL + "/v1/sessions/" + id
	postJSON(t, base+"/ask", map[string]string{"question": askQuestion})
	_, before := getHistory(t, base)
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), `"journal: journal `) {
		t.Fatalf("DELETE with a failed journal: %d %s, want 500 journal: …", resp.StatusCode, body)
	}
	if code, hist := getHistory(t, base); code != http.StatusOK || hist != before {
		t.Fatalf("session after the failed delete: %d %s, want %s", code, hist, before)
	}
	ts.Close()

	ts2, j2, _ := journalServer(t, path)
	defer ts2.Close()
	defer j2.Close()
	if code, hist := getHistory(t, ts2.URL+"/v1/sessions/"+id); code != http.StatusOK || hist != before {
		t.Fatalf("session after restart: %d %s, want %s", code, hist, before)
	}
}

// TestJournalConcurrentStress hammers a journaled server from many
// goroutines (create/ask/feedback/delete interleaved), then crashes and
// recovers. Run under -race this doubles as the locking check for the
// journal append path; the recovery comparison proves no committed turn was
// interleaved out of order in the file.
func TestJournalConcurrentStress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	ts, j, _ := journalServer(t, path)

	const workers = 8
	type result struct {
		id      string
		history string
		deleted bool
	}
	results := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, created, err := postJSONRaw(ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
				if err != nil {
					t.Error(err)
					return
				}
				drainBody(resp)
				id, _ := created["session_id"].(string)
				base := ts.URL + "/v1/sessions/" + id
				if resp, _, err := postJSONRaw(base+"/ask", map[string]string{"question": askQuestion}); err == nil {
					drainBody(resp)
				}
				if i%2 == 0 {
					if resp, _, err := postJSONRaw(base+"/feedback", map[string]string{"text": "we are in 2024"}); err == nil {
						drainBody(resp)
					}
				}
				if i%3 == 2 {
					req, _ := http.NewRequest(http.MethodDelete, base, nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						drainBody(resp)
					}
					results[w] = append(results[w], result{id: id, deleted: true})
					continue
				}
				hresp, err := http.Get(base + "/history")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(hresp.Body)
				hresp.Body.Close()
				results[w] = append(results[w], result{id: id, history: string(body)})
			}
		}()
	}
	wg.Wait()
	ts.Close()
	j.Crash()

	ts2, j2, _ := journalServer(t, path)
	defer ts2.Close()
	defer j2.Close()
	for _, rs := range results {
		for _, r := range rs {
			code, got := getHistory(t, ts2.URL+"/v1/sessions/"+r.id)
			if r.deleted {
				if code != http.StatusNotFound {
					t.Errorf("deleted session %s recovered: %d", r.id, code)
				}
				continue
			}
			if code != http.StatusOK {
				t.Errorf("session %s lost: %d", r.id, code)
				continue
			}
			if got != r.history {
				t.Errorf("session %s history drifted:\npre:  %q\npost: %q", r.id, r.history, got)
			}
		}
	}
}

// tornTail is a partial record frame: a length prefix promising 64 bytes,
// then 3 bytes of garbage. It is the tail a write interrupted mid-frame
// leaves behind; it was never acknowledged to anyone.
var tornTail = []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}

func appendTornTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tornTail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// restartSessions is the size of the kill-and-restart workload.
const restartSessions = 300

// journalRestartWorkload journals restartSessions sessions at path: each
// asks once and every third also sends feedback, so replay runs both
// pipeline paths. It captures every history, crashes the journal and
// appends the torn tail, and returns the captures.
func journalRestartWorkload(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f := factory(t)
	feedback := []string{"we are in 2024", "only show the top 5", "sort the results by the first column",
		"remove the limit", "count them instead"}
	j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": f}, WithJournal(j)))
	ids := make([]string, restartSessions)
	for i := range ids {
		ids[i] = createSession(t, ts)
		base := ts.URL + "/v1/sessions/" + ids[i]
		if resp, out := postJSON(t, base+"/ask", map[string]string{
			"question": f.ds.Examples[i%len(f.ds.Examples)].Question}); resp.StatusCode != http.StatusOK {
			t.Fatalf("ask %d: %d %v", i, resp.StatusCode, out)
		}
		if i%3 == 0 {
			if resp, out := postJSON(t, base+"/feedback", map[string]string{
				"text": feedback[i%len(feedback)]}); resp.StatusCode != http.StatusOK {
				t.Fatalf("feedback %d: %d %v", i, resp.StatusCode, out)
			}
		}
	}
	capture, err := persisttest.Capture(http.DefaultClient, ts.URL, ids)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := j.Crash(); err != nil {
		t.Fatal(err)
	}
	appendTornTail(t, path)
	return capture
}

// TestCrashRecoveryTornTailAtScale is the kill-and-restart workload at
// 300 sessions: recovery drops exactly the 7-byte torn tail and every
// history comes back byte-identical. TestCrashRecoveryBudget times the
// same recovery.
func TestCrashRecoveryTornTailAtScale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	capture := journalRestartWorkload(t, path)

	ts, j, srv := journalServer(t, path)
	defer ts.Close()
	defer j.Close()
	if rec := srv.Recovery(); rec.TruncatedBytes != int64(len(tornTail)) || rec.Sessions != restartSessions {
		t.Errorf("recovery %+v, want %d sessions and %d truncated bytes", rec, restartSessions, len(tornTail))
	}
	if diffs := persisttest.DiffHistories(http.DefaultClient, ts.URL, capture); diffs != nil {
		t.Errorf("%d of %d histories differ after recovery:\n%s", len(diffs), len(capture), strings.Join(diffs, "\n"))
	}
}
