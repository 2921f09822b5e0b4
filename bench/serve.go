package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"fisql"
	"fisql/internal/obs"
	"fisql/internal/server"
)

// sysAdapter adapts fisql.System to the server's SessionFactory exactly as
// cmd/fisql-server does: full FISQL, routing and highlights on.
type sysAdapter struct{ *fisql.System }

func (a sysAdapter) NewSession(db string) *fisql.Session { return a.Session(db, sessionOpts) }

func factories(corpora []corpus) map[string]server.SessionFactory {
	out := make(map[string]server.SessionFactory, len(corpora))
	for _, c := range corpora {
		out[c.name] = sysAdapter{c.sys}
	}
	return out
}

// answerWire is the part of the server's answer body the reference pass
// checks against the script.
type answerWire struct {
	SQL     string     `json:"sql"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Error   string     `json:"error"`
}

// checkAnswerBody decodes one answer body and compares it to the turn's
// expectation: same SQL, same result rows.
func checkAnswerBody(body []byte, t *turn) error {
	var a answerWire
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if a.SQL != t.sql {
		return fmt.Errorf("sql %q, script has %q", a.SQL, t.sql)
	}
	if hashCells(a.Columns, a.Rows, a.Error) != t.rows {
		return fmt.Errorf("result rows differ from the script's")
	}
	return nil
}

// memWriter is the reusable in-process ResponseWriter: no sockets, no
// per-request allocation beyond what the handler itself does.
type memWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{hdr: make(http.Header, 4)} }

func (w *memWriter) reset() {
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.code = http.StatusOK
	w.buf.Reset()
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// memClient issues requests straight into a handler's ServeHTTP, reusing
// one request, one body reader and one writer.
type memClient struct {
	h    http.Handler
	w    *memWriter
	req  *http.Request
	body reqBody
}

// reqBody is a resettable request body.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

func newMemClient(h http.Handler) *memClient {
	c := &memClient{h: h, w: newMemWriter()}
	c.req = &http.Request{
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
		URL:    &url.URL{},
		Host:   "bench",
	}
	return c
}

// do serves one request and returns the status and the body; the body is
// valid until the next call.
func (c *memClient) do(method, path string, body []byte) (int, []byte) {
	c.w.reset()
	c.req.Method = method
	c.req.URL.Path = path
	c.body.Reset(body)
	c.req.Body = &c.body
	c.req.ContentLength = int64(len(body))
	c.h.ServeHTTP(c.w, c.req)
	return c.w.code, c.w.buf.Bytes()
}

// sessionIDOf extracts "session_id" from a create response.
func sessionIDOf(body []byte) (string, error) {
	var v struct {
		ID string `json:"session_id"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
		return "", fmt.Errorf("create response %q carries no session_id", body)
	}
	return v.ID, nil
}

// turnPaths holds the two URL paths of a live session.
type turnPaths struct{ id, ask, feedback, self string }

func pathsFor(id string) turnPaths {
	base := "/v1/sessions/" + id
	return turnPaths{id: id, ask: base + "/ask", feedback: base + "/feedback", self: base}
}

// doFunc sends one request and returns the status and the body, which is
// valid until the next call.
type doFunc func(method, path string, body []byte) (int, []byte)

// lane is one closed-loop client of an HTTP workload: the sessions it
// drives and the ones it left open in the previous pass.
type lane struct {
	do doFunc
	// sessions are the script session indices this client owns.
	sessions []int
	// live holds the sessions the last pass opened; the next pass deletes
	// them first, so every pass does the same work and the last pass's
	// sessions are still open when the heap is measured.
	live []turnPaths
	// acked counts turns answered 200 since set-up began, wire the bytes of
	// their bodies.
	acked int
	wire  int
	// onCreate, when set, runs after each session is opened (the ladder's
	// subscriber rung attaches its followers here).
	onCreate func(p turnPaths)
	// spiked, when set, reports whether the modelled device misbehaved
	// during [t0, t1]; such a turn is verified and counted like any other
	// but gives no latency sample (flushModel).
	spiked func(t0, t1 time.Time) bool
}

// referencePass replays the lane's sessions once, checks every answer body
// against the script's SQL and row hash, and pins in bodies the body hashes
// the timed passes compare against. It also warms the memo and the plan
// cache. after, when set, runs once per session after its last turn.
func (l *lane) referencePass(sc *script, bodies [][]uint64, after func(i int, p turnPaths) error) error {
	for _, i := range l.sessions {
		ss := &sc.sessions[i]
		code, body := l.do(http.MethodPost, "/v1/sessions", ss.createBody)
		if code != http.StatusOK {
			return fmt.Errorf("reference pass: create session %d: status %d: %s", i, code, body)
		}
		id, err := sessionIDOf(body)
		if err != nil {
			return err
		}
		p := pathsFor(id)
		l.live = append(l.live, p)
		bodies[i] = make([]uint64, len(ss.turns))
		for j := range ss.turns {
			t := &ss.turns[j]
			path := p.ask
			if t.feedback {
				path = p.feedback
			}
			code, body := l.do(http.MethodPost, path, t.body)
			if code != http.StatusOK {
				return fmt.Errorf("reference pass: session %d turn %d: status %d: %s", i, j, code, body)
			}
			if err := checkAnswerBody(body, t); err != nil {
				return fmt.Errorf("reference pass: session %d turn %d: %w", i, j, err)
			}
			bodies[i][j] = hashBytes(body)
			l.acked++
			l.wire += len(body)
		}
		if after != nil {
			if err := after(i, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// pass deletes the previous pass's sessions, then replays the lane's share
// of the script: create, then every turn timed from just before the request
// to its return and verified after the clock stopped.
func (l *lane) pass(sc *script, bodies [][]uint64, rec *recorder) {
	l.deleteLive(rec)
	for _, i := range l.sessions {
		ss := &sc.sessions[i]
		code, body := l.do(http.MethodPost, "/v1/sessions", ss.createBody)
		id, err := sessionIDOf(body)
		if code != http.StatusOK || err != nil {
			// Every turn of a session that could not be opened has failed.
			rec.attempted += len(ss.turns)
			rec.failed += len(ss.turns) - 1
			rec.fail("create session %d: status %d %v", i, code, err)
			continue
		}
		p := pathsFor(id)
		l.live = append(l.live, p)
		if l.onCreate != nil {
			l.onCreate(p)
		}
		for j := range ss.turns {
			t := &ss.turns[j]
			path := p.ask
			if t.feedback {
				path = p.feedback
			}
			t0 := time.Now()
			code, body := l.do(http.MethodPost, path, t.body)
			d := time.Since(t0)
			if l.spiked != nil && l.spiked(t0, t0.Add(d)) {
				rec.spiked++
			} else {
				rec.sample(t, d)
			}
			rec.attempted++
			if code != http.StatusOK {
				rec.fail("session %d turn %d: status %d: %s", i, j, code, body)
				continue
			}
			l.acked++
			l.wire += len(body)
			if hashBytes(body) != bodies[i][j] {
				rec.fail("session %d turn %d: answer body differs from the reference pass", i, j)
			}
		}
		rec.between()
	}
}

// deleteLive deletes the sessions the previous pass left open.
func (l *lane) deleteLive(rec *recorder) {
	for _, p := range l.live {
		if code, _ := l.do(http.MethodDelete, p.self, nil); code != http.StatusOK {
			rec.fail("delete %s: status %d", p.id, code)
		}
	}
	l.live = l.live[:0]
}

func allSessions(sc *script) []int {
	out := make([]int, len(sc.sessions))
	for i := range out {
		out[i] = i
	}
	return out
}

// serveInstance is serve_hot: one server.Server hosting both corpora with
// the shipped defaults that cost something (metrics on, pubsub on, no
// journal, no admission limits), driven in-process by one client.
type serveInstance struct {
	sc      *script
	srv     *server.Server
	metrics *obs.Metrics
	systems []*fisql.System
	lane    lane
	// bodies[session][turn] is the FNV-64a of the answer body the
	// reference pass got — and checked against the script — for that turn.
	bodies [][]uint64
}

func (si *serveInstance) script() *script    { return si.sc }
func (si *serveInstance) pass(rec *recorder) { si.lane.pass(si.sc, si.bodies, rec) }
func (si *serveInstance) clients() int       { return 1 }
func (si *serveInstance) gates() []string    { return nil }
func (si *serveInstance) close()             {}

// newServeInstance builds a single-node server over corpora with the given
// options — serve_hot itself or a rung of the ladder — and runs the
// reference pass through it.
func newServeInstance(sc *script, corpora []corpus, metrics bool, opts ...server.Option) (*serveInstance, error) {
	return newTracedServeInstance(nil, sc, corpora, metrics, opts...)
}

// newTracedServeInstance is newServeInstance with the tracer's seams
// installed when tr is not nil.
func newTracedServeInstance(tr *tracer, sc *script, corpora []corpus, metrics bool, opts ...server.Option) (*serveInstance, error) {
	si := &serveInstance{sc: sc, bodies: make([][]uint64, len(sc.sessions))}
	for _, c := range corpora {
		si.systems = append(si.systems, c.sys)
	}
	if metrics {
		si.metrics = obs.NewMetrics()
		for _, c := range corpora {
			c.sys.Observe(si.metrics.Registry)
		}
		opts = append(opts, server.WithMetrics(si.metrics))
	}
	si.srv = server.New(tr.factories(corpora), opts...)
	si.lane = lane{do: tr.tracedDo(newMemClient(si.srv).do), sessions: allSessions(sc)}
	if err := si.lane.referencePass(sc, si.bodies, nil); err != nil {
		return nil, err
	}
	return si, nil
}

// warm runs one untimed pass through the timed path itself.
func warm(inst instance) error {
	var rec recorder
	inst.pass(&rec)
	if rec.failed > 0 {
		return fmt.Errorf("warm-up pass: %d failed turns: %s", rec.failed, rec.failure)
	}
	return nil
}

func setupServeHot(env *runEnv) (instance, error) {
	corpora, err := buildCorpora(1, true)
	if err != nil {
		return nil, err
	}
	sc, err := buildScript(corpora, env.seed, env.sessions())
	if err != nil {
		return nil, err
	}
	si, err := newTracedServeInstance(env.tracer, sc, corpora, true)
	if err != nil {
		return nil, err
	}
	if err := warm(si); err != nil {
		return nil, err
	}
	return si, nil
}
