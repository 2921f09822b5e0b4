// Package server implements the REST API of cmd/fisql-server: the headless
// Assistant with per-session ask/feedback state.
//
// Sessions are created through the SessionFactory (fisql.System in
// production), whose Assistant carries the system-wide engine.Cache and
// answer memo: all concurrent sessions of one corpus share parsed+planned
// queries and memoized first-turn answers, so repeated questions across
// users skip the pipeline instead of re-running it.
//
// The session registry is one map and one intrusive LRU list under one
// mutex (see store.go): lookups and eviction are O(1), the cap is exact
// once a create returns, and sessions evicted while a request is in flight
// answer 410 Gone.
//
// Every session event is a persist.Record, and commit is the one place a
// record is journaled and replicated: create, ask, feedback, delete,
// eviction, expiry, handoff and adoption all go through it, and its doc
// comment states what a failure does to each kind. A turn takes apply (the
// session's pipeline), then commitTurn (commit, then publish to the
// session's /events topic); a session leaves through end. /ask, /feedback,
// the streamed ask (sse.go) and journal replay (journal.go: crash recovery
// and cluster adoption) all go through apply; replay, whose records are
// already journaled, runs only publishTurn.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fisql/internal/assistant"
	"fisql/internal/core"
	"fisql/internal/feedback"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/pubsub"
)

// SessionFactory creates sessions for one corpus. The public fisql.System
// is adapted to this interface by the command.
type SessionFactory interface {
	NewSession(db string) *core.Session
	Databases() []string
}

// DefaultMaxSessions caps the session store of a server built without an
// explicit WithMaxSessions: a long-running server must not grow its session
// state without bound.
const DefaultMaxSessions = 10000

// DefaultMaxBodyBytes caps a POST request body when WithMaxBodyBytes is not
// given. The largest legitimate bodies (a long question or feedback line
// plus a highlight) are a few kilobytes; 1 MiB leaves three orders of
// magnitude of headroom while keeping a hostile body from ballooning the
// decoder.
const DefaultMaxBodyBytes = 1 << 20

// Server is the HTTP handler. Create with New.
type Server struct {
	mux          *http.ServeMux
	systems      map[string]SessionFactory
	maxSessions  int
	sessionTTL   time.Duration
	maxBodyBytes int64
	pprof        bool

	nextID atomic.Int64
	store  *sessionStore

	// Session-event fanout (events.go). Every session has a hub topic; the
	// server publishes exactly the lifecycle events it journals, and
	// GET /v1/sessions/{id}/events subscribers follow them with resumable
	// sequence numbers.
	hub        *pubsub.Hub
	pubsubRing int

	// Cluster hooks. replicator, when set, ships every journaled record to
	// the session's follower before the turn is acknowledged. presetIDs lets
	// the router tier pre-assign session ids (the id must determine the
	// owning node, so it is issued before the create is forwarded).
	// creating holds the preset ids whose create is in flight, so two
	// concurrent creates of one id cannot both journal and register it.
	replicator Replicator
	presetIDs  bool
	creating   sync.Map

	// Admission control (admission.go). Nil limiters admit everything; the
	// precomputed Retry-After value rides on every shed response.
	admission  AdmissionConfig
	askLimit   *limiter
	fbLimit    *limiter
	retryAfter string

	// Durability. journal is nil when persistence is disabled.
	journal  *persist.Journal
	recovery RecoveryInfo

	// Observability. metrics is nil when disabled; the derived counters
	// and histograms below are then nil too, and every use of them is a
	// no-op (see internal/obs's nil-receiver contract), so the disabled
	// serving path pays only dead nil checks.
	metrics      *obs.Metrics
	httpReqs     *obs.Counter
	httpErrs     *obs.Counter
	httpLatency  *obs.Histogram
	renderHits   *obs.Counter
	renderMisses *obs.Counter
	gone410      *obs.Counter
	sseStreams   *obs.Counter
	sseNoFlush   *obs.Counter
}

// Option configures a Server.
type Option func(*Server)

// WithMaxSessions caps the number of live sessions; creating one past the
// cap evicts the least recently used. n <= 0 means unlimited.
func WithMaxSessions(n int) Option {
	return func(s *Server) { s.maxSessions = n }
}

// WithSessionTTL expires sessions idle for longer than d (no ask, feedback,
// or history access). Expiry is lazy — checked on lookup and during
// create-path sweeps — so no background goroutine runs. d <= 0 (the
// default) disables expiry.
func WithSessionTTL(d time.Duration) Option {
	return func(s *Server) { s.sessionTTL = d }
}

// WithMaxBodyBytes caps the request body of the POST endpoints (create,
// ask, feedback); a larger body answers 413 instead of being decoded.
// n <= 0 keeps DefaultMaxBodyBytes.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBodyBytes = n
		}
	}
}

// WithPubSubRing sets the per-session fanout ring capacity in events
// (pubsub.DefaultRingSize when n <= 0): how far back a reconnecting
// /events subscriber can resume via Last-Event-ID before the gap is
// reported as dropped.
func WithPubSubRing(n int) Option {
	return func(s *Server) { s.pubsubRing = n }
}

// Replicator ships one journal record to wherever the cluster keeps the
// session's redundant copy (the follower node). It is called after the
// local journal append succeeds and before the record is acknowledged; what
// an error does to each record kind is tabled on commit.
type Replicator func(rec persist.Record) error

// WithReplicator installs the cluster replication hook.
func WithReplicator(fn Replicator) Option {
	return func(s *Server) { s.replicator = fn }
}

// WithPresetSessionIDs lets a create request carry its session id in the
// X-Fisql-Session-Id header — the cluster router issues ids centrally so
// rendezvous hashing over the id can pick the owning node before the
// session exists. Only enable this behind a trusted router: a client that
// can choose ids can probe for collisions (a preset id that already exists
// answers 409 instead of silently serving the existing session).
func WithPresetSessionIDs() Option {
	return func(s *Server) { s.presetIDs = true }
}

// WithJournal makes the server durable: every session lifecycle event
// (create, ask, feedback, delete/evict/expire) is appended to j before the
// response is acknowledged, and New replays j's surviving records through
// the normal ask/feedback pipeline to rebuild the pre-crash sessions —
// deterministic-replay recovery rather than state snapshotting. The caller
// opens the journal (persist.Open already truncated any torn tail) and
// closes it after the HTTP server has drained.
func WithJournal(j *persist.Journal) Option {
	return func(s *Server) { s.journal = j }
}

// WithMetrics enables observability: per-request trace spans feeding the
// per-stage latency histograms, HTTP/request/cache counters, and the
// GET /v1/metrics endpoint (JSON by default, Prometheus text with
// ?format=prometheus). Callers that want corpus cache statistics in the
// same registry register them on m.Registry (fisql.System.Observe does).
// A nil m leaves observability disabled.
func WithMetrics(m *obs.Metrics) Option {
	return func(s *Server) { s.metrics = m }
}

// WithPprof mounts net/http/pprof's profiling handlers under
// /debug/pprof/. Opt-in: profiling endpoints expose internals and cost
// CPU, so production deployments enable them deliberately (the command's
// -pprof flag).
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// New builds the server over named corpora. With a journal configured, New
// also performs recovery: the journal's surviving records are replayed
// before New returns, so the handler starts serving with every pre-crash
// session restored.
func New(systems map[string]SessionFactory, opts ...Option) *Server {
	s := &Server{
		systems:      systems,
		maxSessions:  DefaultMaxSessions,
		maxBodyBytes: DefaultMaxBodyBytes,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.askLimit = newLimiter(s.admission.AskConcurrency, s.admission.Queue, s.admission.QueueTimeout)
	s.fbLimit = newLimiter(s.admission.FeedbackConcurrency, s.admission.Queue, s.admission.QueueTimeout)
	ra := s.admission.RetryAfter
	if ra <= 0 {
		ra = DefaultRetryAfter
	}
	// Retry-After carries whole seconds; round up so the hint never invites
	// a retry before the configured backoff has elapsed.
	secs := int64((ra + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	s.retryAfter = strconv.FormatInt(secs, 10)
	s.hub = pubsub.NewHub(s.pubsubRing)
	s.store = newSessionStore(s.maxSessions, s.sessionTTL)
	s.store.onEvict = func(sess *session) {
		// The store already dropped the session; a turn still in flight on
		// it commits before the delete record does.
		sess.mu.Lock()
		defer sess.mu.Unlock()
		_ = s.end(sess, deleteRecord(sess.id)) // cannot keep a dropped session
	}
	if s.journal != nil {
		s.recoverJournal()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/databases", s.handleDatabases)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /v1/sessions/{id}/ask", s.handleAsk)
	s.mux.HandleFunc("POST /v1/sessions/{id}/feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /v1/sessions/{id}/history", s.handleHistory)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	if s.metrics != nil {
		r := s.metrics.Registry
		s.httpReqs = r.Counter("fisql_http_requests_total")
		s.httpErrs = r.Counter("fisql_http_errors_total")
		s.httpLatency = r.Histogram("fisql_http_request_seconds", nil)
		s.renderHits = r.Counter("fisql_render_cache_hits_total")
		s.renderMisses = r.Counter("fisql_render_cache_misses_total")
		s.gone410 = r.Counter("fisql_sessions_gone_total")
		s.sseStreams = r.Counter("fisql_sse_streams_total")
		s.sseNoFlush = r.Counter("fisql_sse_noflush_total")
		hub := s.hub
		r.CounterFunc("fisql_pubsub_published_total", func() int64 { return hub.Stats().Published })
		r.CounterFunc("fisql_pubsub_dropped_total", func() int64 { return hub.Stats().Dropped })
		r.CounterFunc("fisql_pubsub_replays_total", func() int64 { return hub.Stats().Replays })
		r.GaugeFunc("fisql_pubsub_subscribers", func() int64 { return hub.Stats().Subscribers })
		// The lag histogram's axis carries event counts, not seconds: each
		// delivery observes how many newer events the subscriber still had
		// buffered.
		lagHist := r.Histogram("fisql_pubsub_subscriber_lag_events", subscriberLagBounds)
		hub.SetLagObserver(func(lag int64) { lagHist.Observe(time.Duration(lag) * time.Second) })
		s.askLimit.observe(r, "fisql_admission_ask")
		s.fbLimit.observe(r, "fisql_admission_feedback")
		st := s.store
		r.CounterFunc("fisql_sessions_evicted_total", func() int64 { e, _ := st.stats(); return e })
		r.CounterFunc("fisql_sessions_expired_total", func() int64 { _, e := st.stats(); return e })
		r.GaugeFunc("fisql_sessions_live", func() int64 { return int64(st.len()) })
		if j := s.journal; j != nil {
			r.CounterFunc("fisql_journal_records_total", func() int64 { return j.Stats().Records })
			r.CounterFunc("fisql_journal_bytes_total", func() int64 { return j.Stats().Bytes })
			r.CounterFunc("fisql_journal_fsyncs_total", func() int64 { return j.Stats().Fsyncs })
			r.CounterFunc("fisql_journal_compactions_total", func() int64 { return j.Stats().Compactions })
			r.CounterFunc("fisql_journal_truncated_bytes_total", func() int64 { return j.Stats().TruncatedBytes })
			r.GaugeFunc("fisql_journal_live_sessions", func() int64 { return j.Stats().LiveSessions })
			rec := s.recovery
			r.GaugeFunc("fisql_journal_recovery_ms", func() int64 { return rec.Duration.Milliseconds() })
			r.GaugeFunc("fisql_journal_recovered_sessions", func() int64 { return int64(rec.Sessions) })
			j.SetFsyncObserver(r.Histogram("fisql_journal_fsync_seconds", nil).Observe)
		}
		s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	}
	if s.pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler. Every request runs under the
// statusWriter wrapper so mux-generated errors come out as JSON; with
// metrics enabled the request is also counted and its wall time observed.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := statusWriter{ResponseWriter: w, code: http.StatusOK}
	if s.metrics == nil {
		s.mux.ServeHTTP(&sw, r)
		return
	}
	t0 := time.Now()
	s.mux.ServeHTTP(&sw, r)
	s.httpReqs.Inc()
	if sw.code >= 400 {
		s.httpErrs.Inc()
	}
	s.httpLatency.Observe(time.Since(t0))
}

// statusWriter captures the response code for the error counter, exposes
// the wrapped writer via Unwrap so the SSE path can discover the real
// Flusher (flusherOf), and converts the only non-JSON error responses
// the server can emit — ServeMux's own text/plain 404 ("404 page not
// found") and 405 ("405 method not allowed") — to the {"error": ...} body
// every handler-written error already uses. The mux responses are
// recognized by their status plus text/plain Content-Type (handlers always
// set application/json before writing); status code and the 405 Allow
// header pass through untouched.
type statusWriter struct {
	http.ResponseWriter
	code      int
	intercept bool // mux error body replaced; swallow the original
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		w.intercept = true
		msg := "not found"
		if code == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		httpError(w.ResponseWriter, code, msg)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.intercept {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer so flusherOf can find the real
// http.Flusher behind the wrapper (the http.ResponseController convention).
// statusWriter deliberately does NOT implement Flush itself: an
// unconditional no-op Flush would make every wrapped connection claim to
// stream, hiding a non-flushing transport from the SSE path — which must
// detect it and fall back to a plain response instead of fake-streaming.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ----------------------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "sessions": s.store.len()})
}

// handleMetrics serves the registry: a JSON snapshot by default, the
// Prometheus text exposition with ?format=prometheus (or prom/text).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		buf := bufPool.Get().(*bytes.Buffer)
		buf.Reset()
		if err := s.metrics.Registry.WritePrometheus(buf); err != nil {
			bufPool.Put(buf)
			httpError(w, http.StatusInternalServerError, "render metrics: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		_, _ = w.Write(buf.Bytes())
		bufPool.Put(buf)
	default:
		writeJSON(w, s.metrics.Registry.Snapshot())
	}
}

func (s *Server) handleDatabases(w http.ResponseWriter, r *http.Request) {
	sys, ok := s.systems[corpusOf(r)]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown corpus")
		return
	}
	writeJSON(w, map[string]any{"databases": sys.Databases()})
}

func corpusOf(r *http.Request) string {
	c := r.URL.Query().Get("corpus")
	if c == "" {
		c = "aep"
	}
	return c
}

type createReq struct {
	Corpus string `json:"corpus"`
	DB     string `json:"db"`
}

// commit is the one place a record is made durable: it appends rec to the
// journal, if one is configured, then ships it to the session's follower,
// if a replicator is configured. The caller holds the session's lock (or
// the session is not registered yet), so the journal's per-session record
// order is the order the session saw. A failure reads "journal: …"; a
// replication failure, "journal: replicate: …" (isReplicationError). What
// the caller then does depends only on the record kind:
//
//	record          local failure                     replication failure
//	create          500; nothing registered           500; a delete is committed
//	                                                  after it; nothing registered
//	ask, feedback   500; the session is evicted       500; the turn is kept and
//	                (end)                             published
//	delete          500; the session keeps serving    200; the session ends
//	evict, expire   the session ends (the store       the session ends
//	                dropped it); a restart recovers it
//	handoff         the session stays here; the       the session moves
//	                rebalance reports it failed
//	adopted record  the partial group ends (end);     the session is adopted
//	                the session is not adopted
//
// A terminal record that fails locally leaves a live session in service:
// its state still equals the journal. A replication failure never evicts,
// because the record is durable here; the node redelivers a delete its
// follower missed, and never ships a handoff.
func (s *Server) commit(rec persist.Record) (err error) {
	if s.journal != nil {
		err = s.journal.Append(rec)
	}
	if err == nil && s.replicator != nil {
		if rerr := s.replicator(rec); rerr != nil {
			err = &replicationError{err: rerr}
		}
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// end commits a session's terminal record (TDelete or THandoff), then takes
// the session out of service: it leaves the store, and its /events topic
// announces the delete and closes — or, for a handoff, only closes, so a
// subscriber's stream just ends and resumes through the router on the new
// owner, whose adoption replay rebuilt the same sequence numbers. The caller
// holds sess.mu. When the record fails locally and the store still holds
// the session, end keeps it and returns the error; otherwise the session
// ends and end returns nil.
func (s *Server) end(sess *session, rec persist.Record) error {
	if err := s.commit(rec); err != nil && !isReplicationError(err) && s.store.has(sess.id) {
		return err
	}
	s.store.remove(sess.id)
	if rec.Type == persist.TDelete {
		s.hub.Publish(sess.id, deletePayload(sess.id))
	}
	s.hub.CloseTopic(sess.id)
	return nil
}

func deleteRecord(id string) persist.Record {
	return persist.Record{Type: persist.TDelete, Session: id}
}

// replicationError marks a commit failure after the local append succeeded:
// only the follower copy is missing, and the session's state still equals
// the local journal. A client retry at-least-once re-applies the turn and
// re-replicates — see DESIGN.md "Cluster serving".
type replicationError struct{ err error }

func (e *replicationError) Error() string { return "replicate: " + e.err.Error() }
func (e *replicationError) Unwrap() error { return e.err }

func isReplicationError(err error) bool {
	var re *replicationError
	return errors.As(err, &re)
}

// HandOff moves session id to the node named target, for a cluster
// rebalance. Under the session lock it snapshots the session's journal
// records, passes them to send (the post to the new owner), and once send
// succeeds ends the session here with a THandoff naming target. A turn in
// flight therefore commits before the snapshot, and a turn waiting on the
// lock answers 410. It reports whether the session moved.
func (s *Server) HandOff(id, target string, send func([]persist.Record) error) bool {
	sess, ok := s.store.get(id)
	if !ok || s.journal == nil {
		return false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	recs := s.journal.SessionRecords(id)
	if sess.gone.Load() || recs == nil || send(recs) != nil {
		return false
	}
	return s.end(sess, persist.Record{Type: persist.THandoff, Session: id, Text: target}) == nil
}

// SessionIDs snapshots the live session ids in sorted order — the cluster
// tier's view of what this node currently owns.
func (s *Server) SessionIDs() []string {
	ids := s.store.ids()
	out := make([]string, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Corpus == "" {
		req.Corpus = "aep"
	}
	sys, ok := s.systems[req.Corpus]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown corpus "+req.Corpus)
		return
	}
	if req.DB == "" {
		if dbs := sys.Databases(); len(dbs) > 0 {
			req.DB = dbs[0]
		}
	}
	if !hasDatabase(sys, req.DB) {
		httpError(w, http.StatusNotFound, "unknown database "+req.DB)
		return
	}
	var n int64
	var id string
	if hid := r.Header.Get("X-Fisql-Session-Id"); s.presetIDs && hid != "" {
		// Claim the id for the whole create, so a concurrent create of the
		// same id cannot also journal and register it.
		_, busy := s.creating.LoadOrStore(hid, struct{}{})
		if !busy {
			defer s.creating.Delete(hid)
		}
		db := req.DB
		if existing, ok := s.store.get(hid); ok {
			busy, db = true, existing.db
		}
		if busy {
			// A retried create (the router re-forwarding after a transient
			// failure) can race its own first attempt. 409 with the session's
			// coordinates lets the router treat the retry as satisfied.
			writeJSONStatus(w, http.StatusConflict, map[string]any{
				"error": "session exists", "session_id": hid, "db": db,
			})
			return
		}
		id = hid
		n = sessionNumber(hid)
		// Keep locally issued ids ahead of every preset one, so a node
		// falling back to local issuance can never collide.
		s.raiseNextID(n)
	} else {
		n = s.nextID.Add(1)
		id = "s" + strconv.FormatInt(n, 10)
	}
	// Journal before registering: the create record must precede any delete
	// record a concurrent capacity eviction could emit for this id. The
	// numeric id rides along so the journal's id high-watermark survives
	// compaction (see persist.TWatermark).
	if err := s.commit(persist.Record{
		Type: persist.TCreate, Session: id, Corpus: req.Corpus, DB: req.DB, ID: n,
	}); err != nil {
		if isReplicationError(err) {
			// The create is durable here but the client sees a 500 and will
			// retry under a fresh id: commit a delete, so neither a restart
			// nor a promotion of the follower brings the orphan back.
			_ = s.commit(deleteRecord(id))
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.store.put(id, s.openSession(id, req.Corpus, req.DB))
	writeJSON(w, createdReply{DB: req.DB, SessionID: id})
}

// createdReply and deletedReply are the create and delete replies. Their
// fields are in sorted key order, so they encode as the maps they replaced
// did.
type createdReply struct {
	DB        string `json:"db"`
	SessionID string `json:"session_id"`
}

type deletedReply struct {
	Deleted   bool   `json:"deleted"`
	SessionID string `json:"session_id"`
}

// openSession builds a session of a known corpus and database and opens its
// fanout topic with the open event — shared by create and replay, so a
// rebuilt topic starts exactly as the live one did. The topic opens before
// the caller registers the session: a subscriber that sees the session in
// the store must find its topic.
func (s *Server) openSession(id, corpus, db string) *session {
	s.hub.Open(id)
	s.hub.Publish(id, openPayload(id, corpus, db))
	return &session{sess: s.systems[corpus].NewSession(db), db: db, id: id}
}

// handleDeleteSession ends the session under its lock, so a turn in flight
// commits before the delete record. The delete is acknowledged once it is
// in the local journal; a failed append answers 500 and the session keeps
// serving.
func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if !s.lockLive(w, sess) {
		return
	}
	defer sess.mu.Unlock()
	if err := s.end(sess, deleteRecord(sess.id)); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, deletedReply{Deleted: true, SessionID: sess.id})
}

func (s *Server) session(r *http.Request) (*session, error) {
	id := r.PathValue("id")
	sess, ok := s.store.get(id)
	if !ok {
		return nil, fmt.Errorf("unknown session %q", id)
	}
	return sess, nil
}

// lockLive acquires sess.mu and verifies the session still exists. A
// session can be evicted or deleted between the store lookup and the lock
// acquisition (another request may hold the mutex for a long pipeline run);
// operating on it anyway would answer on a zombie whose state no other
// request can ever see again. The caller must hold the returned lock via
// defer sess.mu.Unlock() when ok.
func (s *Server) lockLive(w http.ResponseWriter, sess *session) (ok bool) {
	sess.mu.Lock()
	if sess.gone.Load() {
		sess.mu.Unlock()
		s.gone410.Inc()
		httpError(w, http.StatusGone, "session evicted")
		return false
	}
	return true
}

// traced returns the request context and, with metrics enabled, a fresh
// per-request trace carried by it. The caller defers tr.Finish() — a nil
// trace (metrics disabled) makes every trace call a no-op and leaves the
// context untouched.
func (s *Server) traced(r *http.Request) (ctx context.Context, tr *obs.Trace) {
	ctx = r.Context()
	if s.metrics != nil {
		tr = s.metrics.StartTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	return ctx, tr
}

type askReq struct {
	Question string `json:"question"`
}

type feedbackReq struct {
	Text      string `json:"text"`
	Highlight string `json:"highlight,omitempty"`
	// HighlightStart optionally grounds the highlight to the byte offset
	// where it occurs in the current SQL — required to disambiguate a span
	// appearing more than once (a repeated column name). When absent, the
	// first occurrence is used (the documented fallback).
	HighlightStart *int `json:"highlight_start,omitempty"`
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	var req askReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Question) == "" {
		httpError(w, http.StatusBadRequest, "missing question")
		return
	}
	s.serveTurn(w, r, s.askLimit, sess,
		persist.Record{Type: persist.TAsk, Session: sess.id, Text: req.Question})
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	var req feedbackReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		httpError(w, http.StatusBadRequest, "missing feedback text")
		return
	}
	rec := persist.Record{Type: persist.TFeedback, Session: sess.id, Text: req.Text,
		Highlight: req.Highlight, HighlightStart: -1}
	if req.Highlight != "" && req.HighlightStart != nil {
		// To apply, -1 means "the first occurrence"; an explicit negative
		// offset can never point at an occurrence, so it is refused here.
		if o := *req.HighlightStart; o < 0 {
			httpError(w, http.StatusBadRequest, offsetMismatch(req.Highlight, o).Error())
			return
		}
		rec.HighlightStart = *req.HighlightStart
	}
	s.serveTurn(w, r, s.fbLimit, sess, rec)
}

// serveTurn is the one tail of /ask and /feedback: admission, the session
// lock and the request trace, then apply → commitTurn → write. It runs after
// validation, so malformed requests get their precise 4xx cheaply and never
// consume a pipeline slot. Only an ask may stream (see sse.go).
func (s *Server) serveTurn(w http.ResponseWriter, r *http.Request, lim *limiter, sess *session, rec persist.Record) {
	admitted, shedded := lim.acquire(r.Context())
	if !admitted {
		if shedded {
			s.shed(w)
		}
		// Otherwise the client vanished while queued; nothing to write.
		return
	}
	defer lim.release()
	if !s.lockLive(w, sess) {
		return
	}
	defer sess.mu.Unlock()
	ctx, tr := s.traced(r)
	defer tr.Finish()
	if rec.Type == persist.TAsk && wantsSSE(r) {
		if fl := flusherOf(w); fl != nil {
			s.streamAsk(ctx, w, fl, tr, sess, rec)
			return
		}
		// The client opted into streaming over a connection that cannot
		// stream: without a Flusher every event would buffer and arrive as
		// one burst at handler return — a fake stream that breaks live
		// following. Serve the plain JSON body instead, and count it.
		s.sseNoFlush.Inc()
	}
	rec, ans, code, err := s.apply(ctx, sess, rec)
	if err != nil {
		httpError(w, code, err.Error())
		return
	}
	wire, _, _, err := s.commitTurn(tr, sess, rec, ans)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, wire)
}

// apply runs one turn record through the session's pipeline — the only
// place a TAsk or TFeedback reaches core.Session, for live requests and
// replay alike. The caller holds sess.mu. A feedback highlight is resolved
// here, against the current SQL: an explicit HighlightStart must point at an
// exact occurrence (first-occurrence matching would silently pick the wrong
// one of a repeated span), and -1 with a highlight means the first
// occurrence. The returned record carries the resolved offset; that is what
// the journal stores, so replay reconstructs the exact grounding. On error,
// the int is the status the request answers.
func (s *Server) apply(ctx context.Context, sess *session, rec persist.Record) (persist.Record, *assistant.Answer, int, error) {
	if rec.Type == persist.TAsk {
		ans, err := sess.sess.Ask(ctx, rec.Text)
		return rec, ans, http.StatusInternalServerError, err
	}
	var hl *feedback.Highlight
	if rec.Highlight == "" {
		rec.HighlightStart = -1
	} else {
		sqlText, o := sess.sess.SQL(), rec.HighlightStart
		switch {
		case o < 0:
			if o = strings.Index(sqlText, rec.Highlight); o < 0 {
				// Silently dropping the highlight would let the client
				// believe its grounding was used.
				return rec, nil, http.StatusBadRequest,
					fmt.Errorf("highlight %q does not occur in the current SQL", rec.Highlight)
			}
		case o > len(sqlText)-len(rec.Highlight) || sqlText[o:o+len(rec.Highlight)] != rec.Highlight:
			return rec, nil, http.StatusBadRequest, offsetMismatch(rec.Highlight, o)
		}
		rec.HighlightStart = o
		hl = &feedback.Highlight{Start: o, End: o + len(rec.Highlight), Text: rec.Highlight}
	}
	ans, err := sess.sess.Feedback(ctx, rec.Text, hl)
	return rec, ans, http.StatusInternalServerError, err
}

func offsetMismatch(highlight string, offset int) error {
	return fmt.Errorf("highlight %q does not occur at byte offset %d of the current SQL", highlight, offset)
}

// commitTurn makes an applied turn durable (commit), then visible: the
// answer is rendered and the turn published to the session's /events topic.
// The caller holds sess.mu. A failed local append evicts the session: its
// live state holds a turn the journal never captured, and keeping it would
// serve — and let a retry of the 500 double-apply — that turn. It leaves the
// store first, so end ends it even though its delete fails too. A turn
// whose replication failed is published like any committed turn, so the
// event stream keeps following the history replay rebuilds. wire, events
// and seq are the rendered answer, the turn's published events and the done
// event's sequence number.
func (s *Server) commitTurn(tr *obs.Trace, sess *session, rec persist.Record, ans *assistant.Answer) (wire *answerWire, events []pubsub.Payload, seq uint64, err error) {
	cerr := s.commit(rec)
	if cerr != nil && !isReplicationError(cerr) {
		s.store.remove(sess.id)
		_ = s.end(sess, deleteRecord(sess.id)) // cannot keep a dropped session
		return nil, nil, 0, cerr
	}
	wire = s.renderAnswer(tr, ans)
	events, seq = s.publishAnswer(rec, wire)
	return wire, events, seq, cerr
}

// publishTurn is what commitTurn does after the commit, and all of it that
// replay runs: a replayed record is already journaled. It renders the answer
// and publishes the turn.
func (s *Server) publishTurn(tr *obs.Trace, rec persist.Record, ans *assistant.Answer) (body []byte, events []pubsub.Payload, seq uint64) {
	w := s.renderAnswer(tr, ans)
	events, seq = s.publishAnswer(rec, w)
	return w.body, events, seq
}

type historyTurn struct {
	Role string `json:"role"`
	Text string `json:"text"`
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if !s.lockLive(w, sess) {
		return
	}
	defer sess.mu.Unlock()
	// Render only the turns appended since the last history request; older
	// fragments are already encoded in sess.histBuf. The stitched body is
	// byte-identical to encoding {"db": ..., "turns": [...]} in full (JSON
	// object keys sort "db" < "turns"), and an empty history yields
	// "turns": [] — a fresh session has no turns, not unknown turns (null).
	for _, t := range sess.sess.HistorySince(sess.histTurns) {
		frag, err := json.Marshal(historyTurn{Role: t.Role, Text: t.Text})
		if err != nil {
			httpError(w, http.StatusInternalServerError, "encode response: "+err.Error())
			return
		}
		if sess.histTurns > 0 {
			sess.histBuf = append(sess.histBuf, ',')
		}
		sess.histBuf = append(sess.histBuf, frag...)
		sess.histTurns++
	}
	dbJSON, err := json.Marshal(sess.db)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`{"db":`)
	buf.Write(dbJSON)
	buf.WriteString(`,"turns":[`)
	buf.Write(sess.histBuf)
	buf.WriteString("]}\n")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
}

// ----------------------------------------------------------------------------
// Response writing. Bodies are encoded into pooled buffers: the encoder
// error surfaces as a 500 before any bytes hit the wire (a direct
// json.NewEncoder(w) write would already have committed a 200), and the
// per-request buffer+encoder allocations disappear.

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// jsonContentType is the Content-Type header value of a JSON body. Header
// values set from it and from answerWire.length are shared: nothing writes
// into a header's value slice, so they are set without allocating.
var jsonContentType = []string{"application/json"}

// writeBody sends a rendered answer: the body and Content-Length cached on
// the Answer, so a request served by a memoized Answer writes them without
// encoding or allocating anything.
func writeBody(w http.ResponseWriter, a *answerWire) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = a.length
	_, _ = w.Write(a.body)
}

// answerWire is an Answer's wire form, cached on the Answer (Answer.Wire):
// its sql, explanation, result and done payloads in publishing order, body,
// the plain response (done plus a newline), and length, body's
// Content-Length header value. done is a prefix of body.
type answerWire struct {
	stages [4]pubsub.Payload
	body   []byte
	length []string
}

// renderAnswer returns ans's wire form, encoding it on first use. Each stage
// payload is encoded once, by the same json.Marshal of the stage event the
// live SSE stream sends, and the body is stitched from them: the fields of
// the sql, explanation and (when it has any) result objects inside one
// object. That is byte-identical to encoding the seven-field answer object,
// since every field is a string, a slice of strings or a slice of spans:
// encoding cannot fail, and each field's bytes do not depend on its
// neighbours. So each distinct Answer is encoded exactly once, and every
// later turn it serves — memo hits, singleflight shares, replay — publishes
// and writes the cached bytes; the plain body, the SSE done event and the
// /events payloads are the same bytes.
func (s *Server) renderAnswer(tr *obs.Trace, ans *assistant.Answer) *answerWire {
	if w, ok := ans.Wire().(*answerWire); ok {
		s.renderHits.Inc()
		return w
	}
	s.renderMisses.Inc()
	sp := tr.Start(obs.StageRender)
	defer sp.End()
	// Strings, and slices of them, cannot fail to encode.
	sql, _ := json.Marshal(sqlEvent{SQL: ans.SQL})
	exp, _ := json.Marshal(newExplanationEvent(ans.Reformulation, ans.Explanation, ans.Spans))
	res, _ := json.Marshal(newResultEvent(ans.Result, ans.ExecErr))
	body := make([]byte, 0, len(sql)+len(exp)+len(res))
	body = append(append(body, sql[:len(sql)-1]...), ',')
	body = append(body, exp[1:len(exp)-1]...)
	if fields := res[1 : len(res)-1]; len(fields) > 0 {
		body = append(append(body, ','), fields...)
	}
	body = append(body, '}', '\n')
	w := &answerWire{body: body, length: []string{strconv.Itoa(len(body))}, stages: [4]pubsub.Payload{
		{Type: "sql", Data: sql},
		{Type: "explanation", Data: exp},
		{Type: "result", Data: res},
		{Type: "done", Data: body[:len(body)-1]},
	}}
	ans.SetWire(w)
	return w
}

// shed answers a load-shedding 429 with the configured Retry-After hint.
func (s *Server) shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", s.retryAfter)
	httpError(w, http.StatusTooManyRequests, "server overloaded, retry later")
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		bufPool.Put(buf)
		httpError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	// A map[string]string cannot fail to encode; ignore-with-blank would
	// still be wrong for the success path above.
	_ = json.NewEncoder(buf).Encode(map[string]string{"error": msg})
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
}
