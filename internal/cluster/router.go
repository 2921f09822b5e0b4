package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fisql/internal/obs"
	"fisql/internal/server"
)

// DefaultHealthTimeout bounds one health probe.
const DefaultHealthTimeout = time.Second

// forwardAttempts is how many ownership resolutions one request gets. Each
// failed attempt marks the unreachable node dead (triggering failover), so
// two retries cover the worst case of losing the owner and then losing its
// freshly promoted successor mid-request.
const forwardAttempts = 3

// RouterConfig configures NewRouter.
type RouterConfig struct {
	// Members is the initial membership. NewRouter pushes it to every node
	// synchronously so the nodes' static bootstrap views converge.
	Members []Member
	// Client forwards client traffic to nodes. Nil gets a default client
	// with no overall timeout (SSE streams are long-lived).
	Client *http.Client
	// Metrics, when set, receives the fisql_cluster_* router-side series
	// and serves GET /v1/metrics on the router.
	Metrics *obs.Metrics
	// HealthInterval is the period of the background health loop; <= 0
	// disables it (failures are then detected only by failing forwards).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default DefaultHealthTimeout).
	HealthTimeout time.Duration
	// AuthToken, when non-empty, gates the router's own /internal/cluster/*
	// administration endpoints behind the TokenHeader header and rides on
	// every control-plane call to the nodes. Must match the nodes'
	// NodeConfig.AuthToken; without it any client that can reach the router
	// can remove or add members.
	AuthToken string
}

// Router is the cluster's client-facing tier. It issues session ids from a
// router-global counter, pins each session to the node that rendezvous
// hashing selects for its id, and forwards /v1/* traffic there. When a
// node stops answering — health probe or live forward — the router removes
// it, pushes the surviving membership, and drives promotion on the
// survivors before releasing any waiting forwards, so the failover window
// is invisible to clients apart from latency.
type Router struct {
	client *http.Client
	// ctrl carries the control-plane calls (members, promote, rebalance).
	// Unlike the forwarding client it has a hard timeout: these calls run
	// under the membership write lock, and a hung node must not wedge the
	// router.
	ctrl    *http.Client
	health  *http.Client
	metrics *obs.Metrics
	mux     *http.ServeMux
	token   string
	nextID  atomic.Int64

	// mu gates forwards against membership changes: forwards take the read
	// side only to snapshot the member list; MarkDead, Drain and AddNode
	// hold the write side across the entire push-membership/promote/
	// rebalance sequence, so no forward can route by a half-applied view.
	mu      sync.RWMutex
	members []Member
	version int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	forwards  *obs.Counter
	retries   *obs.Counter
	failovers *obs.Counter
	promoted  *obs.Counter
	handoffs  *obs.Counter
}

// NewRouter builds the router, pushes the initial membership to every
// member, and starts the health loop when configured. Call Close to stop
// the loop.
func NewRouter(cfg RouterConfig) *Router {
	rt := &Router{
		client:  cfg.Client,
		metrics: cfg.Metrics,
		token:   cfg.AuthToken,
		members: append([]Member(nil), cfg.Members...),
		version: 1,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	rt.ctrl = &http.Client{Timeout: 30 * time.Second}
	ht := cfg.HealthTimeout
	if ht <= 0 {
		ht = DefaultHealthTimeout
	}
	rt.health = &http.Client{Timeout: ht}
	if cfg.Metrics != nil {
		r := cfg.Metrics.Registry
		rt.forwards = r.Counter("fisql_cluster_forwards_total")
		rt.retries = r.Counter("fisql_cluster_forward_retries_total")
		rt.failovers = r.Counter("fisql_cluster_failovers_total")
		rt.promoted = r.Counter("fisql_cluster_sessions_promoted_total")
		rt.handoffs = r.Counter("fisql_cluster_handoffs_total")
		r.GaugeFunc("fisql_cluster_nodes_live", func() int64 {
			rt.mu.RLock()
			defer rt.mu.RUnlock()
			return int64(len(rt.members))
		})
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/databases", rt.handleDatabases)
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	rt.mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleForwardByID)
	rt.mux.HandleFunc("POST /v1/sessions/{id}/ask", rt.handleForwardByID)
	rt.mux.HandleFunc("POST /v1/sessions/{id}/feedback", rt.handleForwardByID)
	rt.mux.HandleFunc("GET /v1/sessions/{id}/history", rt.handleForwardByID)
	rt.mux.HandleFunc("GET /v1/sessions/{id}/events", rt.handleForwardByID)
	rt.mux.HandleFunc("POST /internal/cluster/drain", rt.handleDrain)
	rt.mux.HandleFunc("POST /internal/cluster/add", rt.handleAdd)
	rt.mux.HandleFunc("GET /internal/cluster/members", rt.handleMembers)
	if cfg.Metrics != nil {
		rt.mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)
	}
	rt.mu.Lock()
	rt.pushMembersLocked()
	// Seed the id counter past every id any node has ever recorded (the
	// journal watermark survives even deletion and compaction): a restarted
	// router starts from a fresh counter, and reissuing a live — or dead —
	// session's id would hand one client another client's session.
	for _, m := range rt.members {
		var st struct {
			Watermark int64 `json:"watermark"`
		}
		if err := rt.getJSON(m, "/internal/status", &st); err == nil {
			rt.bumpNextID(st.Watermark)
		}
	}
	rt.mu.Unlock()
	if cfg.HealthInterval > 0 {
		go rt.healthLoop(cfg.HealthInterval)
	} else {
		close(rt.done)
	}
	return rt
}

// Close stops the health loop. The router keeps serving.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

func (rt *Router) healthLoop(interval time.Duration) {
	defer close(rt.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAndReap()
		}
	}
}

// probeAndReap health-checks every member and marks unreachable ones dead,
// reporting whether any died.
func (rt *Router) probeAndReap() bool {
	rt.mu.RLock()
	members := append([]Member(nil), rt.members...)
	rt.mu.RUnlock()
	died := false
	for _, m := range members {
		resp, err := rt.health.Get(m.Addr + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				continue
			}
		}
		rt.MarkDead(m.ID)
		died = true
	}
	return died
}

// MarkDead removes a member and drives failover: the surviving membership
// is pushed to every survivor (each resyncs sessions whose follower was
// the dead node and prunes stale replicas), then every survivor promotes —
// adopting the dead node's sessions from its replicated journal — and the
// router's id counter is advanced past every watermark the survivors
// report, so promoted sessions' ids are never reissued. The whole sequence
// runs under the write lock: forwards wait it out instead of observing
// sessions mid-move. Safe to call with an already-removed id (no-op), so
// concurrent failing forwards collapse into one failover.
func (rt *Router) MarkDead(id string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	idx := -1
	for i, m := range rt.members {
		if m.ID == id {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	rt.members = append(rt.members[:idx:idx], rt.members[idx+1:]...)
	rt.version++
	rt.failovers.Inc()
	rt.pushMembersLocked()
	for _, m := range rt.members {
		var res promoteResp
		if err := rt.postJSON(m, "/internal/promote", promoteMsg{Dead: id}, &res); err != nil {
			continue
		}
		rt.promoted.Add(int64(len(res.Adopted)))
		rt.bumpNextID(res.Watermark)
	}
}

// pushMembersLocked sends the current membership to every member. Caller
// holds the write lock. Push failures are ignored: a node that cannot be
// reached is about to be reaped by the health loop anyway.
func (rt *Router) pushMembersLocked() {
	msg := membersMsg{Version: rt.version, Members: rt.members}
	for _, m := range rt.members {
		_ = rt.postJSON(m, "/internal/members", msg, nil)
	}
}

func (rt *Router) postJSON(m Member, path string, v, out any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, m.Addr+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if rt.token != "" {
		req.Header.Set(TokenHeader, rt.token)
	}
	resp, err := rt.ctrl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("post %s to %s: status %d", path, m.ID, resp.StatusCode)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (rt *Router) getJSON(m Member, path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, m.Addr+path, nil)
	if err != nil {
		return err
	}
	if rt.token != "" {
		req.Header.Set(TokenHeader, rt.token)
	}
	resp, err := rt.ctrl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("get %s from %s: status %d", path, m.ID, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (rt *Router) bumpNextID(wm int64) {
	for wm > 0 {
		cur := rt.nextID.Load()
		if cur >= wm || rt.nextID.CompareAndSwap(cur, wm) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Client-facing forwarding.

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	nodes := len(rt.members)
	version := rt.version
	rt.mu.RUnlock()
	writeJSON(w, map[string]any{"status": "ok", "nodes": nodes, "version": version})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom", "text":
		var buf bytes.Buffer
		if err := rt.metrics.Registry.WritePrometheus(&buf); err != nil {
			httpError(w, http.StatusInternalServerError, "render metrics: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	default:
		writeJSON(w, rt.metrics.Registry.Snapshot())
	}
}

func (rt *Router) handleDatabases(w http.ResponseWriter, r *http.Request) {
	// Corpus metadata is identical on every node; any live one will do, and
	// the corpus name doubles as a stable forwarding key.
	rt.forward(w, r, "databases:"+r.URL.Query().Get("corpus"), nil, "")
}

func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.DefaultMaxBodyBytes))
	if err != nil {
		bodyError(w, err)
		return
	}
	// The id is issued here, before any node is involved: ownership is a
	// pure function of the id, so the id must exist first. The counter only
	// ever moves forward — across failovers it is re-seeded from node
	// watermarks — so no id is issued twice.
	id := "s" + strconv.FormatInt(rt.nextID.Add(1), 10)
	rt.forward(w, r, id, body, id)
}

func (rt *Router) handleForwardByID(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.DefaultMaxBodyBytes))
		if err != nil {
			bodyError(w, err)
			return
		}
		body = b
	}
	rt.forward(w, r, r.PathValue("id"), body, "")
}

// bodyError answers a client body the router could not read as a node
// answers one it could not decode: 413 past the cap, 400 for any other read
// error, such as a truncated body.
func bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		return
	}
	httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
}

// forward sends the request to the node owning key, retrying through
// failover: a transport error marks the owner dead (which promotes its
// sessions) and re-resolves ownership; a 5xx re-probes the cluster first —
// the owner may be healthy while its follower died mid-replication — and
// retries only if a node was actually reaped. The body was buffered by the
// caller, so every attempt sends identical bytes (at-least-once semantics:
// a retried turn that the first owner had journaled before dying can be
// applied twice; acknowledged turns are never lost). presetID, when set,
// rides the X-Fisql-Session-Id header and converts a 409 from a raced
// create retry into the success the client expects.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte, presetID string) {
	rt.forwards.Inc()
	lastErr := "no members"
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if attempt > 0 {
			rt.retries.Inc()
		}
		rt.mu.RLock()
		members := append([]Member(nil), rt.members...)
		rt.mu.RUnlock()
		owner, ok := Owner(key, members)
		if !ok {
			break
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, owner.Addr+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			httpError(w, http.StatusInternalServerError, "build request: "+err.Error())
			return
		}
		req.Header = r.Header.Clone()
		if presetID != "" {
			req.Header.Set("X-Fisql-Session-Id", presetID)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			if r.Context().Err() != nil {
				return // client went away; nothing to answer, no one to blame
			}
			lastErr = err.Error()
			rt.MarkDead(owner.ID)
			continue
		}
		if resp.StatusCode >= 500 && attempt < forwardAttempts-1 {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Sprintf("%s answered %d", owner.ID, resp.StatusCode)
			if !rt.probeAndReap() {
				// Every node is reachable: the 5xx is real, not a failover
				// artifact. Re-forward once anyway — a replication failure
				// heals as soon as membership settles — then give up.
			}
			continue
		}
		if presetID != "" && resp.StatusCode == http.StatusConflict {
			// This create is a retry that raced its own first attempt; the
			// session exists with our id, which is the outcome the client
			// asked for.
			var conflict struct {
				DB string `json:"db"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&conflict)
			resp.Body.Close()
			writeJSON(w, map[string]any{"session_id": presetID, "db": conflict.DB})
			return
		}
		rt.copyResponse(w, resp)
		return
	}
	httpError(w, http.StatusBadGateway, "no node could serve the request: "+lastErr)
}

// copyResponse relays a node response, flushing after every chunk so SSE
// events stream through the router unbuffered.
func (rt *Router) copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		// Push the status and headers out immediately: a freshly resumed
		// /events subscription may have no pending events, and a subscriber
		// must not wait for the first event to learn it is connected.
		fl.Flush()
	}
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Membership administration.

type drainMsg struct {
	ID string `json:"id"`
}

func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	if !checkToken(w, r, rt.token) {
		return
	}
	var msg drainMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
		return
	}
	moved, err := rt.Drain(msg.ID)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, map[string]any{"drained": msg.ID, "moved": moved})
}

// Drain moves every session off node id (journaled handoff to each
// session's new rendezvous owner), then removes it from the membership.
// The node keeps running and can be shut down or re-added afterwards.
func (rt *Router) Drain(id string) (moved int, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var draining Member
	idx := -1
	for i, m := range rt.members {
		if m.ID == id {
			idx, draining = i, m
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("unknown node %q", id)
	}
	target := append(rt.members[:idx:idx], rt.members[idx+1:]...)
	// Push the target view first — to everyone, including the draining node
	// — so the handoff's onward replication already picks followers from
	// the post-drain membership.
	rt.version++
	saved := rt.members
	rt.members = target
	rt.pushMembersLocked()
	_ = rt.postJSON(draining, "/internal/members", membersMsg{Version: rt.version, Members: target}, nil)
	var res struct {
		Moved  int      `json:"moved"`
		Failed []string `json:"failed"`
	}
	if err := rt.postJSON(draining, "/internal/rebalance", rebalanceMsg{Members: target}, &res); err != nil {
		// The drain did not run; restore the member rather than stranding
		// its sessions outside the membership.
		rt.members = saved
		rt.version++
		rt.pushMembersLocked()
		return 0, fmt.Errorf("rebalance %s: %w", id, err)
	}
	rt.handoffs.Add(int64(res.Moved))
	return res.Moved, nil
}

type addMsg struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

func (rt *Router) handleAdd(w http.ResponseWriter, r *http.Request) {
	if !checkToken(w, r, rt.token) {
		return
	}
	var msg addMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
		return
	}
	if msg.ID == "" || msg.Addr == "" {
		httpError(w, http.StatusBadRequest, "need id and addr")
		return
	}
	moved, err := rt.AddNode(Member{ID: msg.ID, Addr: msg.Addr})
	if err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, map[string]any{"added": msg.ID, "moved": moved})
}

// AddNode joins a member and rebalances: every existing node hands off the
// sessions the new rendezvous placement assigns elsewhere — by the
// minimal-disruption property, exactly the sessions the new node now owns.
func (rt *Router) AddNode(m Member) (moved int, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, existing := range rt.members {
		if existing.ID == m.ID {
			return 0, fmt.Errorf("node %q already a member", m.ID)
		}
	}
	old := rt.members
	rt.members = append(append([]Member(nil), rt.members...), m)
	rt.version++
	rt.pushMembersLocked()
	for _, node := range old {
		var res struct {
			Moved int `json:"moved"`
		}
		if err := rt.postJSON(node, "/internal/rebalance", rebalanceMsg{Members: rt.members}, &res); err != nil {
			continue
		}
		moved += res.Moved
	}
	rt.handoffs.Add(int64(moved))
	return moved, nil
}

// Members snapshots the current membership.
func (rt *Router) Members() []Member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]Member(nil), rt.members...)
}

func (rt *Router) handleMembers(w http.ResponseWriter, r *http.Request) {
	if !checkToken(w, r, rt.token) {
		return
	}
	rt.mu.RLock()
	msg := membersMsg{Version: rt.version, Members: append([]Member(nil), rt.members...)}
	rt.mu.RUnlock()
	writeJSON(w, msg)
}
