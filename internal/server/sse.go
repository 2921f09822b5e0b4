// Server-sent-events streaming for POST /v1/sessions/{id}/ask.
//
// A client that sends "Accept: text/event-stream" receives the answer
// stage-by-stage as the pipeline produces it, instead of one JSON body at
// the end:
//
//	event: open          data: {}
//	event: sql           data: {"sql": ...}
//	event: explanation   data: {"reformulation": ..., "explanation": [...], "spans": [...]}
//	event: result        data: {"columns": [...], "rows": [...]} | {"error": ...}
//	event: done          data: <the complete answer JSON>
//
// The stream is only a writer: the turn runs the same apply → commit path
// as a plain ask (server.go), with the stream attached to the pipeline. The
// done payload is the exact byte sequence a non-streaming ask would have
// received as its response body (minus the body's trailing newline, which
// SSE framing cannot carry). Stage events stream live while the pipeline
// computes, each encoded through the same stage struct as the answer's
// cached wire form (renderAnswer), so a live stage event is byte-identical
// to the turn's /events payload and to its fields inside done. When a
// memoized Answer (or a singleflight share) skips the pipeline, the missing
// stages are the turn's published /events payloads — the answer's cached
// bytes, encoded once per answer; fanout had re-encoded them on every turn
// before the cache held them. Either way the event sequence is always
// complete: open, sql, explanation, result, done. The open event commits
// the stream before apply runs, so once a client has opted into SSE, every
// outcome — including a generation failure that fires no stage at all —
// arrives as a well-formed event stream.
//
// A pipeline or commit failure after the stream has started is delivered
// as a terminal "error" event ({"error": ...}); the session, journal and
// /events topic are left exactly as a failed non-streaming ask leaves them.
//
// Every payload is a single line (JSON escaping keeps newlines out), so
// each event is one "data:" line and reconstruction is trivial.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"fisql/internal/assistant"
	"fisql/internal/engine"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/pubsub"
	"fisql/internal/sqlast"
)

// wantsSSE reports whether the request opted into streaming.
func wantsSSE(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		if containsToken(accept, "text/event-stream") {
			return true
		}
	}
	return false
}

// containsToken reports whether the comma-separated header value lists the
// media type (parameters after ';' ignored). The comparison folds ASCII
// case: RFC 9110 media types are case-insensitive, so "Text/Event-Stream"
// must opt in exactly as "text/event-stream" does.
func containsToken(header, token string) bool {
	for header != "" {
		var item string
		item, header, _ = strings.Cut(header, ",")
		item, _, _ = strings.Cut(item, ";")
		if strings.EqualFold(strings.Trim(item, " \t"), token) {
			return true
		}
	}
	return false
}

// Stage payload wire forms, one per stage. The live stream (OnSQL,
// OnExplanation, OnResult) and renderAnswer encode each stage through the
// same struct and constructor, so a stage event reads the same bytes on the
// streamed ask, on /events and inside the answer body. resultEvent doubles
// as the error carrier to match the answer body ({"error": ...} when
// execution failed).
type sqlEvent struct {
	SQL string `json:"sql"`
}

type explanationEvent struct {
	Reformulation string     `json:"reformulation"`
	Explanation   []string   `json:"explanation"`
	Spans         []spanJSON `json:"spans,omitempty"`
}

// spanJSON maps a byte range of the SQL onto its clause, for front-end
// highlight selection.
type spanJSON struct {
	Clause string `json:"clause"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
}

type resultEvent struct {
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Error   string     `json:"error,omitempty"`
}

func newExplanationEvent(reformulation string, explanation []string, spans []sqlast.Span) explanationEvent {
	ev := explanationEvent{Reformulation: reformulation, Explanation: explanation}
	if len(spans) > 0 {
		ev.Spans = make([]spanJSON, len(spans))
		for i, sp := range spans {
			ev.Spans[i] = spanJSON{Clause: sp.Clause.String(), Start: sp.Start, End: sp.End}
		}
	}
	return ev
}

func newResultEvent(res *engine.Result, execErr error) resultEvent {
	var ev resultEvent
	if execErr != nil {
		ev.Error = execErr.Error()
	} else if res != nil {
		ev.Columns = res.Columns
		if len(res.Rows) > 0 {
			// One backing array for all cells: a result is rendered cell
			// by cell, and per-row allocations dominated this path.
			ev.Rows = make([][]string, len(res.Rows))
			flat := make([]string, 0, len(res.Rows)*len(res.Columns))
			for i, row := range res.Rows {
				start := len(flat)
				for _, v := range row {
					flat = append(flat, v.String())
				}
				ev.Rows[i] = flat[start:len(flat):len(flat)]
			}
		}
	}
	return ev
}

// sseStream writes one SSE response and implements assistant.Stream so the
// pipeline can push stages as they complete. It is used from the handler
// goroutine only (the pipeline runs synchronously under the session lock).
type sseStream struct {
	w http.ResponseWriter
	f http.Flusher

	started bool // response headers committed
	// failed and errored both end the stream, for opposite reasons. failed
	// means a write error: the client is gone, nothing further can be
	// delivered, so every later write is suppressed silently. errored means
	// an encoding bug: the client is still listening, so it was sent a
	// terminal "error" event and must not receive further events after it —
	// a truncated stream that announces itself, never one that looks
	// well-formed.
	failed  bool
	errored bool
	sentSQL bool
	sentExp bool
	sentRes bool
}

// dead reports that the stream can emit no more events.
func (st *sseStream) dead() bool { return st.failed || st.errored }

// event frames and flushes one SSE event, with seq as the SSE id line when
// non-zero (eventID). data must be newline-free (every caller passes a
// single-line JSON encoding).
func (st *sseStream) event(name string, data []byte) { st.eventID(name, data, 0) }

func (st *sseStream) eventID(name string, data []byte, seq uint64) {
	if st.dead() {
		return
	}
	if !st.started {
		h := st.w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		st.w.WriteHeader(http.StatusOK)
		st.started = true
	}
	if !writeSSE(st.w, seq, name, data) {
		st.failed = true
		return
	}
	if st.f != nil {
		st.f.Flush()
	}
}

// jsonEvent marshals v and emits it. Marshal of these fixed shapes cannot
// fail in practice — but if it ever does, that is an encoding bug, not a
// client disconnect: the client gets a terminal error event (and nothing
// after it) instead of a silently truncated stream.
func (st *sseStream) jsonEvent(name string, v any) {
	if st.dead() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		st.event("error", mustErrorJSON("encode "+name+" event: "+err.Error()))
		st.errored = true
		return
	}
	st.event(name, data)
}

// mustErrorJSON renders {"error": msg}; a map[string]string cannot fail to
// marshal.
func mustErrorJSON(msg string) []byte {
	data, _ := json.Marshal(map[string]string{"error": msg})
	return data
}

// OnSQL implements assistant.Stream.
func (st *sseStream) OnSQL(sql string) {
	st.sentSQL = true
	st.jsonEvent("sql", sqlEvent{SQL: sql})
}

// OnExplanation implements assistant.Stream.
func (st *sseStream) OnExplanation(reformulation string, explanation []string, spans []sqlast.Span) {
	st.sentExp = true
	st.jsonEvent("explanation", newExplanationEvent(reformulation, explanation, spans))
}

// OnResult implements assistant.Stream.
func (st *sseStream) OnResult(res *engine.Result, execErr error) {
	st.sentRes = true
	st.jsonEvent("result", newResultEvent(res, execErr))
}

// finish ends the stream of a committed ask. events are the turn's
// published payloads (sql, explanation, result, done): any stage the live
// pipeline skipped (memo hit, singleflight share) is emitted in pipeline
// order from those already-marshalled bytes, then done, carrying the turn's
// fanout sequence number so the client can hand off to a resumable /events
// subscription without a gap.
func (st *sseStream) finish(events []pubsub.Payload, seq uint64) {
	for i, sent := range [...]bool{st.sentSQL, st.sentExp, st.sentRes} {
		if !sent {
			st.event(events[i].Type, events[i].Data)
		}
	}
	st.eventID(events[3].Type, events[3].Data, seq)
}

// streamAsk runs an ask turn with its stages streamed: the caller (serveTurn)
// has acquired admission and the session lock and verified the connection
// can actually stream (fl is the real Flusher behind w — see flusherOf).
func (s *Server) streamAsk(ctx context.Context, w http.ResponseWriter, fl http.Flusher,
	tr *obs.Trace, sess *session, rec persist.Record) {
	st := &sseStream{w: w, f: fl}
	// Commit the stream before the pipeline runs: from here every outcome —
	// including failure — is delivered as events, so the client always
	// parses one well-formed stream.
	st.event("open", []byte("{}"))
	rec, ans, _, err := s.apply(assistant.WithStream(ctx, st), sess, rec)
	var events []pubsub.Payload
	var seq uint64
	if err == nil {
		_, events, seq, err = s.commitTurn(tr, sess, rec, ans)
	}
	if err != nil {
		st.event("error", mustErrorJSON(err.Error()))
		return
	}
	st.finish(events, seq)
	s.sseStreams.Inc()
}
