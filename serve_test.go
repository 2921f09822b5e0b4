package fisql

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fisql/internal/obs"
	"fisql/internal/server"
)

// sysAdapter adapts a System to the server's SessionFactory with the full
// FISQL configuration, as cmd/fisql-server does.
type sysAdapter struct{ *System }

func (a sysAdapter) NewSession(db string) *Session {
	return a.Session(db, Options{Routing: true, Highlights: true})
}

// feedbackTexts are generic feedback lines; the pipeline takes any text,
// these exercise the routing and repair path.
var feedbackTexts = []string{
	"we are in 2024",
	"only show the top 5",
	"sort the results by the first column",
	"remove the limit",
	"count them instead",
}

// TestServeCorporaOverHTTP serves both corpora the way cmd/fisql-server
// wires them — each System Observed into the registry the server's metrics
// use — and drives every example of both over HTTP: one session per
// database, an ask per example followed by a feedback turn, then a history
// read. Every request must answer 200, the history must hold every turn
// sent, and /v1/metrics must be well-formed in both forms with every stage
// traced and the cache counters registered.
func TestServeCorporaOverHTTP(t *testing.T) {
	sp, err := NewSpiderSystem()
	if err != nil {
		t.Fatal(err)
	}
	ae, err := NewExperiencePlatformSystem()
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	sp.Observe(m.Registry)
	ae.Observe(m.Registry)
	ts := httptest.NewServer(server.New(map[string]server.SessionFactory{
		"spider": sysAdapter{sp},
		"aep":    sysAdapter{ae},
	}, server.WithMetrics(m)))
	defer ts.Close()

	type dbKey struct{ corpus, db string }
	questions := map[dbKey][]string{}
	for corpus, sys := range map[string]*System{"spider": sp, "aep": ae} {
		for _, ex := range sys.DS.Examples {
			k := dbKey{corpus, ex.DB}
			questions[k] = append(questions[k], ex.Question)
		}
	}
	var wg sync.WaitGroup
	for k, qs := range questions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := driveSession(ts.URL, k.corpus, k.db, qs); err != nil {
				t.Errorf("%s/%s: %v", k.corpus, k.db, err)
			}
		}()
	}
	wg.Wait()

	snap := scrapeMetrics(t, ts.URL)
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if h, ok := snap.Histograms[s.MetricName()]; !ok || h.Count == 0 {
			t.Errorf("stage histogram %s has no observations", s.MetricName())
		}
	}
	for _, name := range []string{
		"fisql_plan_cache_hits_total", "fisql_plan_cache_misses_total",
		"fisql_answer_memo_hits_total", "fisql_answer_memo_misses_total",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("metrics missing counter %s", name)
		}
	}
}

// driveSession creates one session on db, asks each question followed by
// a feedback turn, and checks the history holds both turns of every
// request. Any status other than 200 is an error.
func driveSession(base, corpus, db string, questions []string) error {
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := call(http.MethodPost, base+"/v1/sessions",
		map[string]string{"corpus": corpus, "db": db}, &created); err != nil {
		return err
	}
	sess := base + "/v1/sessions/" + created.SessionID
	for i, q := range questions {
		if err := call(http.MethodPost, sess+"/ask", map[string]string{"question": q}, nil); err != nil {
			return err
		}
		fb := feedbackTexts[i%len(feedbackTexts)]
		if err := call(http.MethodPost, sess+"/feedback", map[string]string{"text": fb}, nil); err != nil {
			return err
		}
	}
	var hist struct {
		Turns []json.RawMessage `json:"turns"`
	}
	if err := call(http.MethodGet, sess+"/history", nil, &hist); err != nil {
		return err
	}
	// Every ask and every feedback adds its own turn and an assistant turn.
	if got, want := len(hist.Turns), 4*len(questions); got != want {
		return fmt.Errorf("history has %d turns, want %d", got, want)
	}
	return nil
}

// call sends one JSON request and decodes the 200 response into out, when
// out is not nil.
func call(method, url string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// scrapeMetrics fetches /v1/metrics in both forms and fails the test unless
// both are well-formed: every JSON histogram has buckets ending in +Inf at
// its count, and the Prometheus text carries types, +Inf buckets and
// counts.
func scrapeMetrics(t *testing.T, base string) obs.Snapshot {
	t.Helper()
	var snap obs.Snapshot
	if err := call(http.MethodGet, base+"/v1/metrics", nil, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if len(snap.Histograms) == 0 {
		t.Error("metrics snapshot has no histograms")
	}
	for name, h := range snap.Histograms {
		if n := len(h.Buckets); h.Count < 0 || n == 0 || h.Buckets[n-1].LE != "+Inf" || h.Buckets[n-1].Count != h.Count {
			t.Errorf("histogram %s malformed: %+v", name, h)
		}
	}
	resp, err := http.Get(base + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics text: status %d, %v", resp.StatusCode, err)
	}
	for _, want := range []string{"# TYPE ", `_bucket{le="+Inf"}`, "_count"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus text missing %q", want)
		}
	}
	return snap
}
