// Session-event fanout: GET /v1/sessions/{id}/events.
//
// Every session carries a pubsub topic (internal/pubsub) to which the
// server publishes its lifecycle events — open, then per committed turn
// sql/explanation/result/done (plus feedback for a feedback turn), then
// delete. A turn is published by commit once its record is in the local
// journal (even when replicating it failed), and by replay through the
// same publishTurn. The event stream is therefore a pure function of the
// journaled history: crash recovery and cluster failover promotion rebuild
// each topic with the same payloads under the same sequence numbers, so a
// subscriber that resumes against a rebuilt owner never sees a sequence
// regress or a duplicate turn.
//
// The endpoint is a long-lived SSE stream. Each event carries its topic
// sequence number as the SSE id line:
//
//	id: 7
//	event: done
//	data: {...}
//
// A reconnecting client sends Last-Event-ID: 7 (the standard EventSource
// behavior; ?from=7 works for plain HTTP clients) and receives 8, 9, ...
// — replayed from the ring when still retained. When the resume point has
// left the ring, or a slow reader was lapped while connected, the gap is
// announced as an un-sequenced "dropped" event ({"missed": N}) before the
// next delivered event; the client's view is then explicitly — never
// silently — incomplete, and it can re-fetch /history to resynchronize.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"fisql/internal/persist"
	"fisql/internal/pubsub"
)

// subscriberLagBounds bucket the fanout lag histogram by events still
// buffered after a delivery (the histogram's "seconds" axis carries event
// counts for this metric).
var subscriberLagBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// openPayload announces the session's coordinates as its first event.
func openPayload(id, corpus, db string) pubsub.Payload {
	data, _ := json.Marshal(map[string]string{"session_id": id, "corpus": corpus, "db": db})
	return pubsub.Payload{Type: "open", Data: data}
}

// deletePayload is the terminal event of an ended (not moved) session.
func deletePayload(id string) pubsub.Payload {
	data, _ := json.Marshal(map[string]string{"session_id": id})
	return pubsub.Payload{Type: "delete", Data: data}
}

// feedbackEvent mirrors the journaled feedback record: the resolved
// highlight offset (or -1), not the client's raw request, so the replayed
// payload is byte-identical to the live one.
type feedbackEvent struct {
	Text           string `json:"text"`
	Highlight      string `json:"highlight,omitempty"`
	HighlightStart int    `json:"highlight_start"`
}

// publishAnswer publishes one committed turn to the session's topic as a
// single atomic batch, so a concurrent delete event can never interleave
// into the middle of a turn: a feedback turn's feedback event (derived from
// the record), then sql, explanation, result and done — the stage payloads
// cached on the turn's Answer (renderAnswer), which are byte-identical to
// the /ask SSE stream's and, for done, to the plain response body. Only the
// feedback event is encoded per turn; an ask publishes no new bytes and
// allocates nothing here. Returns the events (for an ask, the cached array
// itself: callers must not modify them) and the sequence number of done (0
// when the topic is gone — the session was deleted while the turn was in
// flight).
func (s *Server) publishAnswer(rec persist.Record, w *answerWire) ([]pubsub.Payload, uint64) {
	events := w.stages[:]
	if rec.Type == persist.TFeedback {
		data, _ := json.Marshal(feedbackEvent{Text: rec.Text, Highlight: rec.Highlight,
			HighlightStart: rec.HighlightStart})
		events = append(append(make([]pubsub.Payload, 0, 1+len(events)),
			pubsub.Payload{Type: "feedback", Data: data}), events...)
	}
	return events, s.hub.Publish(rec.Session, events...)
}

// flusherOf finds the http.Flusher behind w, walking Unwrap chains (the
// statusWriter wrapper, http.ResponseController-style middleware). Returns
// nil when the connection cannot stream — the caller must then fall back to
// a buffered response instead of fake-streaming into a burst.
func flusherOf(w http.ResponseWriter) http.Flusher {
	for {
		switch v := w.(type) {
		case http.Flusher:
			return v
		case interface{ Unwrap() http.ResponseWriter }:
			w = v.Unwrap()
		default:
			return nil
		}
	}
}

// lastEventID parses the subscriber's resume position: the standard
// Last-Event-ID header (set automatically by EventSource on reconnect), or
// ?from= for clients that cannot set headers. Absent means 0 — subscribe
// from the oldest retained event.
func lastEventID(r *http.Request) (uint64, error) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("from")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad Last-Event-ID %q: not a sequence number", v)
	}
	return n, nil
}

// handleEvents is the long-lived fanout subscription. It holds no session
// lock and no admission slot: subscribers read from the topic ring at their
// own pace and, by the hub's non-blocking publish contract, can never slow
// an ask down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Existence probe without LRU promotion: following a session is not
	// using it, so a watch must not keep an idle session alive.
	if !s.store.has(id) {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	fl := flusherOf(w)
	if fl == nil {
		s.sseNoFlush.Inc()
		httpError(w, http.StatusNotAcceptable, "event subscription requires a connection that supports streaming")
		return
	}
	after, err := lastEventID(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sub, err := s.hub.Subscribe(id, after)
	if err != nil {
		// The session vanished between the store probe and the subscribe.
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	defer sub.Cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()
	for {
		ev, missed, ok := sub.Next(ctx)
		if !ok {
			// Topic closed (session deleted or handed off) or client gone.
			// The stream just ends; a client that still wants the session
			// reconnects with its last id and gets 404 if it truly ended.
			return
		}
		if missed > 0 {
			// The gap marker carries no id: it is not part of the sequence,
			// and a reconnect must resume from the last real event.
			if !writeSSE(w, 0, "dropped", []byte(fmt.Sprintf(`{"missed":%d}`, missed))) {
				return
			}
		}
		if !writeSSE(w, ev.Seq, ev.Type, ev.Data) {
			return
		}
		fl.Flush()
	}
}

// writeSSE frames one event (id omitted when seq is 0) — the one SSE framer,
// shared by /events and the streamed ask. data must be newline-free: every
// payload is single-line JSON.
func writeSSE(w http.ResponseWriter, seq uint64, name string, data []byte) bool {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if seq > 0 {
		buf.WriteString("id: ")
		buf.WriteString(strconv.FormatUint(seq, 10))
		buf.WriteByte('\n')
	}
	buf.WriteString("event: ")
	buf.WriteString(name)
	buf.WriteString("\ndata: ")
	buf.Write(data)
	buf.WriteString("\n\n")
	_, err := w.Write(buf.Bytes())
	bufPool.Put(buf)
	return err == nil
}
