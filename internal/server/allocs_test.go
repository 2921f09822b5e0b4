//go:build !race

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fisql/internal/assistant"
	"fisql/internal/engine"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/pubsub"
)

// Publishing a turn whose Answer already carries its wire form encodes
// nothing: it allocates at most the events slice, at any number of rows.
func TestPublishCachedAnswerAllocs(t *testing.T) {
	for _, rows := range []int{1, 1000} {
		res := &engine.Result{Columns: []string{"id", "name"}}
		for i := 0; i < rows; i++ {
			res.Rows = append(res.Rows, []engine.Value{engine.Int(int64(i)), engine.Text(fmt.Sprint("row ", i))})
		}
		ans := &assistant.Answer{SQL: "SELECT id, name FROM t", Reformulation: "Finds the id and name.",
			Explanation: []string{"First, consider all the t.", "Finally, return the id and the name."},
			Result:      res}
		srv := New(nil)
		srv.hub.Open("s")
		rec := persist.Record{Type: persist.TAsk, Session: "s", Text: "q"}
		// The first turn renders the wire form; enough turns to fill the
		// topic's ring keep its growth out of the measurement.
		for i := 0; i < pubsub.DefaultRingSize; i++ {
			srv.publishTurn(nil, rec, ans)
		}
		got := testing.AllocsPerRun(100, func() { srv.publishTurn(nil, rec, ans) })
		if got > 1 {
			t.Errorf("%d rows: publishing a cached answer allocates %v objects, want at most 1", rows, got)
		}
	}
}

// reusedWriter is a ResponseWriter that keeps its header map and buffer
// across requests, so a measurement counts only what the handler allocates.
type reusedWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *reusedWriter) Header() http.Header         { return w.hdr }
func (w *reusedWriter) WriteHeader(code int)        { w.code = code }
func (w *reusedWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

func (w *reusedWriter) reset() {
	clear(w.hdr)
	w.code = http.StatusOK
	w.buf.Reset()
}

// A memo-hit ask through ServeHTTP, metrics on as in production, allocates
// at most 8 objects: its plain body decodes without a json.Decoder, and the
// cached answer is written without encoding.
func TestMemoHitAskAllocs(t *testing.T) {
	srv := New(map[string]SessionFactory{"aep": &memoFactory{testFactory: factory(t),
		memo: assistant.NewAnswerMemo(0)}}, WithMetrics(obs.NewMetrics()))
	w := &reusedWriter{hdr: http.Header{}}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"corpus":"aep"}`)))
	var created struct {
		ID string `json:"session_id"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &created); err != nil || created.ID == "" {
		t.Fatalf("create: status %d, body %q", w.code, w.buf.Bytes())
	}
	body := []byte(`{"question":"` + askQuestion + `"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+created.ID+"/ask", nil)
	req.Body = io.NopCloser(rd)
	ask := func() {
		w.reset()
		rd.Reset(body)
		srv.ServeHTTP(w, req)
	}
	// The first ask fills the memo; the rest fill the topic's ring and grow
	// the session's history, keeping that growth out of the measurement.
	for i := 0; i < 2*pubsub.DefaultRingSize; i++ {
		ask()
	}
	got := testing.AllocsPerRun(200, ask)
	if w.code != http.StatusOK {
		t.Fatalf("ask: status %d, body %q", w.code, w.buf.Bytes())
	}
	if got > 8 {
		t.Errorf("a memo-hit ask allocates %v objects, want at most 8", got)
	}
}
