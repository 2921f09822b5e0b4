package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"fisql/internal/assistant"
	"fisql/internal/core"
)

// memoFactory is the production configuration: sessions share the
// system-wide plan cache and answer memo, like fisql.System wires them.
type memoFactory struct {
	*testFactory
	memo *assistant.AnswerMemo
}

func (f *memoFactory) NewSession(db string) *core.Session {
	asst := &assistant.Assistant{Client: f.sim, DS: f.ds, Store: f.store, K: 8,
		Cache: f.cache, Memo: f.memo}
	method := &core.FISQL{Client: f.sim, DS: f.ds, Store: f.store, K: 8, Routing: true, Highlights: true}
	return core.NewSession(asst, method, db)
}

func benchServer(b *testing.B, memo bool) (*httptest.Server, []string) {
	b.Helper()
	f := benchFactory(b)
	var sf SessionFactory = f
	if memo {
		sf = &memoFactory{testFactory: f, memo: assistant.NewAnswerMemo(0)}
	}
	ts := httptest.NewServer(New(map[string]SessionFactory{"aep": sf}))
	b.Cleanup(ts.Close)
	var questions []string
	for _, e := range f.ds.Examples {
		questions = append(questions, e.Question)
	}
	return ts, questions
}

func benchFactory(b *testing.B) *testFactory {
	b.Helper()
	srvOnce.Do(buildSharedFactory)
	if srvErr != nil {
		b.Fatal(srvErr)
	}
	return srvFactory
}

func benchCreateSession(b *testing.B, ts *httptest.Server) string {
	b.Helper()
	resp, out := benchPostJSON(b, ts.URL+"/v1/sessions", map[string]string{"corpus": "aep"})
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("create session: %d", resp.StatusCode)
	}
	id, _ := out["session_id"].(string)
	if id == "" {
		b.Fatal("no session id")
	}
	return id
}

func benchPostJSON(b *testing.B, url string, body any) (*http.Response, map[string]any) {
	b.Helper()
	resp, out, err := postJSONRaw(url, body)
	if err != nil {
		b.Fatal(err)
	}
	return resp, out
}

// BenchmarkServerAskMemoized measures repeated identical asks with the
// cross-session answer memo: after the first request, the full pipeline is
// skipped and the cached wire bytes are replayed.
func BenchmarkServerAskMemoized(b *testing.B) {
	ts, questions := benchServer(b, true)
	id := benchCreateSession(b, ts)
	url := ts.URL + "/v1/sessions/" + id + "/ask"
	q := questions[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _ := benchPostJSON(b, url, map[string]string{"question": q})
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServerAskUncached measures the same traffic without the memo —
// the full RAG → prompt → LLM → parse → execute pipeline per request.
func BenchmarkServerAskUncached(b *testing.B) {
	ts, questions := benchServer(b, false)
	id := benchCreateSession(b, ts)
	url := ts.URL + "/v1/sessions/" + id + "/ask"
	q := questions[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _ := benchPostJSON(b, url, map[string]string{"question": q})
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServerMixed drives a 5:3:2 ask/feedback/history mix through
// concurrent sessions — the serving-path macro-benchmark.
func BenchmarkServerMixed(b *testing.B) {
	ts, questions := benchServer(b, true)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := benchCreateSession(b, ts)
		base := ts.URL + "/v1/sessions/" + id
		// First request of a session must be an ask.
		n := int(ctr.Add(1))
		benchPostJSON(b, base+"/ask", map[string]string{"question": questions[n%len(questions)]})
		for pb.Next() {
			n = int(ctr.Add(1))
			switch n % 10 {
			case 0, 1, 2, 3, 4: // 50% ask
				resp, _ := benchPostJSON(b, base+"/ask", map[string]string{"question": questions[n%len(questions)]})
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("ask status %d", resp.StatusCode)
				}
			case 5, 6, 7: // 30% feedback
				resp, _ := benchPostJSON(b, base+"/feedback", map[string]string{"text": "we are in 2024"})
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("feedback status %d", resp.StatusCode)
				}
			default: // 20% history
				resp, err := http.Get(base + "/history")
				if err != nil {
					b.Fatal(err)
				}
				drainBody(resp)
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("history status %d", resp.StatusCode)
				}
			}
		}
	})
}

// BenchmarkSessionStore measures raw store throughput: create, touch, and
// delete from parallel goroutines on the store's one lock, with no HTTP or
// pipeline in the way.
func BenchmarkSessionStore(b *testing.B) {
	st := newSessionStore(1024, 0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			id := fmt.Sprintf("s%d", i)
			st.put(id, &session{})
			st.get(id)
			st.remove(id)
			i++
		}
	})
}
