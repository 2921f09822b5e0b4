package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/server"
)

// maxReplicaBody caps one replication request body. A full-session resync
// of the longest plausible session is well under a megabyte; 64 MiB keeps a
// runaway peer from ballooning the follower.
const maxReplicaBody = 64 << 20

// replStripes is the lock-striping factor of per-session replication: the
// owner must never interleave a session's full-resync frames with its
// incremental frames (the follower would retain duplicate records), so both
// paths serialize on the session's stripe. A stripe is held across the
// follower POST and its flush, so one lock would serialise the replication
// of every session; the stripes keep two sessions' round trips apart.
const replStripes = 16

// NodeConfig configures NewNode.
type NodeConfig struct {
	// ID is this node's stable name; it must appear in Members.
	ID string
	// Members is the static bootstrap membership. The router's pushes
	// replace it at runtime.
	Members []Member
	// Systems maps corpus names to session factories, as for server.New.
	Systems map[string]server.SessionFactory
	// Journal is this node's own journal — the sessions it owns. Required:
	// a cluster node without local durability could not honor promotion.
	Journal *persist.Journal
	// Replica holds follower copies of sessions other nodes own. Required.
	Replica *persist.Journal
	// Metrics, when set, receives the fisql_cluster_* node-side series and
	// is passed through to the embedded server.
	Metrics *obs.Metrics
	// Client is the HTTP client for inter-node calls (replication,
	// handoff). Nil gets a 5-second-timeout default.
	Client *http.Client
	// AuthToken, when non-empty, gates every /internal/* endpoint behind
	// the TokenHeader header and rides on this node's own inter-node
	// calls. The router and all members must share one value; without it
	// any client that can reach a node's port can inject forged replica
	// frames or membership views.
	AuthToken string
	// ServerOptions are extra options for the embedded server (admission,
	// caps, TTLs). WithJournal, WithReplicator, WithPresetSessionIDs and
	// WithMetrics are supplied by NewNode and must not be repeated here.
	ServerOptions []server.Option
}

// Node is one cluster member: the single-node server plus the inter-node
// protocol — journal replication to followers, adoption of replicated
// sessions on promotion, and journaled handoff on rebalance. It serves
// /internal/* itself and delegates everything else to the embedded server.
type Node struct {
	id      string
	srv     *server.Server
	journal *persist.Journal
	replica *persist.Journal
	client  *http.Client
	mux     *http.ServeMux
	token   string

	// applyMu serializes membership application (install + reconcile +
	// resync) in handleMembers. The version check alone is not enough: it
	// runs before the reconcile phase, so a stale push could pass it, lose
	// the race to a newer push, and then reconcile the replica journal
	// against the outdated view — deleting replica sessions the newer view
	// still needs.
	applyMu sync.Mutex

	mu      sync.Mutex
	members []Member
	version int64
	// lastFollower records, per owned session, the node id its records were
	// last successfully replicated to. A mismatch with the current
	// rendezvous follower (membership changed, or a send failed) triggers a
	// full-session resync instead of an incremental frame.
	lastFollower map[string]string

	replMu [replStripes]sync.Mutex

	replicatedRecs *obs.Counter
	replErrs       *obs.Counter
	adoptedTotal   *obs.Counter
	handoffsOut    *obs.Counter
	redeliveries   *obs.Counter
}

// NewNode builds the node. The embedded server performs journal recovery
// before NewNode returns, exactly as a single-node restart would.
func NewNode(cfg NodeConfig) *Node {
	n := &Node{
		id:           cfg.ID,
		journal:      cfg.Journal,
		replica:      cfg.Replica,
		client:       cfg.Client,
		token:        cfg.AuthToken,
		members:      append([]Member(nil), cfg.Members...),
		lastFollower: map[string]string{},
	}
	if n.client == nil {
		n.client = &http.Client{Timeout: 5 * time.Second}
	}
	opts := append([]server.Option(nil), cfg.ServerOptions...)
	opts = append(opts,
		server.WithJournal(cfg.Journal),
		server.WithReplicator(n.replicate),
		server.WithPresetSessionIDs(),
	)
	if cfg.Metrics != nil {
		opts = append(opts, server.WithMetrics(cfg.Metrics))
		r := cfg.Metrics.Registry
		n.replicatedRecs = r.Counter("fisql_cluster_replicated_records_total")
		n.replErrs = r.Counter("fisql_cluster_replication_errors_total")
		n.adoptedTotal = r.Counter("fisql_cluster_adopted_sessions_total")
		n.handoffsOut = r.Counter("fisql_cluster_handoffs_out_total")
		n.redeliveries = r.Counter("fisql_cluster_delete_redeliveries_total")
		rep := cfg.Replica
		r.GaugeFunc("fisql_cluster_replica_sessions", func() int64 { return rep.Stats().LiveSessions })
	}
	n.srv = server.New(cfg.Systems, opts...)
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("POST /internal/replicate", n.handleReplicate)
	n.mux.HandleFunc("POST /internal/members", n.handleMembers)
	n.mux.HandleFunc("POST /internal/promote", n.handlePromote)
	n.mux.HandleFunc("POST /internal/adopt", n.handleAdopt)
	n.mux.HandleFunc("POST /internal/rebalance", n.handleRebalance)
	n.mux.HandleFunc("GET /internal/status", n.handleStatus)
	return n
}

// Server exposes the embedded single-node server (recovery info, session
// ids) for the command and tests.
func (n *Node) Server() *server.Server { return n.srv }

// ServeHTTP routes /internal/* to the cluster protocol and everything else
// to the embedded server.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/internal/") {
		if !checkToken(w, r, n.token) {
			return
		}
		n.mux.ServeHTTP(w, r)
		return
	}
	n.srv.ServeHTTP(w, r)
}

func (n *Node) membersSnapshot() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Member(nil), n.members...)
}

func (n *Node) stripe(id string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &n.replMu[h.Sum32()%replStripes]
}

// replicate is the server.Replicator hook: called after the local journal
// append, before the turn is acknowledged. It ships the record to the
// session's rendezvous follower — incrementally when that follower is in
// sync, as a full-session frame stream when the follower changed or a
// previous send failed (the replica journal's re-create handling makes the
// full set a clean replacement, not a duplication).
func (n *Node) replicate(rec persist.Record) error {
	if rec.Type == persist.THandoff {
		// A handoff record is local bookkeeping: it ends the session's
		// residence in THIS journal while the new owner full-syncs the same
		// session to its own follower — and under the post-move membership
		// that follower is often the very node a shipped handoff frame
		// would reach. The replica journal treats a handoff like a delete,
		// so shipping it would destroy the replica the new owner just
		// established and silently orphan every later incremental frame,
		// leaving the moved session permanently single-copy. The old
		// follower's now-stale replica (if any) is dropped by
		// reconcileReplica on the membership push instead.
		n.mu.Lock()
		delete(n.lastFollower, rec.Session)
		n.mu.Unlock()
		return nil
	}
	members := n.membersSnapshot()
	f, ok := Follower(rec.Session, members)
	if !ok || f.ID == n.id {
		// Single-node cluster: no follower to keep. Local durability stands.
		return nil
	}
	mu := n.stripe(rec.Session)
	mu.Lock()
	defer mu.Unlock()
	n.mu.Lock()
	last := n.lastFollower[rec.Session]
	n.mu.Unlock()
	recs := []persist.Record{rec}
	if last != f.ID {
		// The just-appended record is already in the journal's retained set,
		// so the full set includes it. A delete of the session drops the set
		// to nil — ship the terminal record alone.
		if full := n.journal.SessionRecords(rec.Session); full != nil {
			recs = full
		}
	}
	if err := n.postFrames(f, "/internal/replicate", persist.EncodeFrames(recs)); err != nil {
		n.replErrs.Inc()
		n.mu.Lock()
		delete(n.lastFollower, rec.Session)
		n.mu.Unlock()
		if rec.Type == persist.TDelete {
			// The removal is already final here, but the follower missed it:
			// if this node died now, promotion would resurrect the session
			// from the stale replica (consuming a store slot too). Deletes
			// are acknowledged best-effort — a removal cannot be un-removed —
			// so keep pushing in the background until the follower confirms.
			go n.redeliverDelete(rec)
		}
		return err
	}
	n.replicatedRecs.Add(int64(len(recs)))
	n.mu.Lock()
	if rec.Type == persist.TDelete {
		delete(n.lastFollower, rec.Session)
	} else {
		n.lastFollower[rec.Session] = f.ID
	}
	n.mu.Unlock()
	return nil
}

// redeliverDelete retries a session's delete record against its current
// follower after the synchronous send failed, shrinking the resurrection
// window the best-effort delete replication leaves open. Session ids are
// never reused, so a late delivery can never clash with a new session of
// the same name; a delete landing on a follower that holds no replica is a
// harmless no-op. Each attempt re-resolves the follower from the
// then-current membership; attempts are bounded — past them, the stale
// replica is dropped at the latest by reconcileReplica on the next
// membership change involving the session.
func (n *Node) redeliverDelete(rec persist.Record) {
	frames := persist.EncodeFrames([]persist.Record{rec})
	delay := 25 * time.Millisecond
	for attempt := 0; attempt < 6; attempt++ {
		time.Sleep(delay)
		delay *= 2
		f, ok := Follower(rec.Session, n.membersSnapshot())
		if !ok || f.ID == n.id {
			return // no follower to convince anymore
		}
		mu := n.stripe(rec.Session)
		mu.Lock()
		err := n.postFrames(f, "/internal/replicate", frames)
		mu.Unlock()
		if err == nil {
			n.redeliveries.Inc()
			return
		}
		n.replErrs.Inc()
	}
}

func (n *Node) postFrames(m Member, path string, frames []byte) error {
	req, err := http.NewRequest(http.MethodPost, m.Addr+path, bytes.NewReader(frames))
	if err != nil {
		return fmt.Errorf("post %s to %s: %w", path, m.ID, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if n.token != "" {
		req.Header.Set(TokenHeader, n.token)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return fmt.Errorf("post %s to %s: %w", path, m.ID, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("post %s to %s: status %d", path, m.ID, resp.StatusCode)
	}
	return nil
}

// handleReplicate appends a follower stream to the replica journal. The
// body is raw journal frames — the owner's on-disk encoding, CRC and all —
// validated as a whole before any record is applied, so a torn or corrupt
// stream leaves the replica journal untouched and the owner retries.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read frames: "+err.Error())
		return
	}
	recs, _, err := persist.ScanBytes(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decode frames: "+err.Error())
		return
	}
	appended := 0
	for _, rec := range recs {
		if rec.Type == persist.THandoff {
			// Defense in depth: no current owner ships handoff markers (they
			// are local bookkeeping — see replicate), and applying one here
			// would delete a replica whose new owner believes it is in sync.
			continue
		}
		if err := n.replica.Append(rec); err != nil {
			httpError(w, http.StatusInternalServerError, "replica append: "+err.Error())
			return
		}
		appended++
	}
	writeJSON(w, map[string]any{"appended": appended})
}

type membersMsg struct {
	Version int64    `json:"version"`
	Members []Member `json:"members"`
}

// handleMembers installs a pushed membership view, then reconciles both
// journals against it: replica sessions this node neither owns nor follows
// under the new view are dropped, and owned sessions whose rendezvous
// follower changed are resynced in full — so a single later failure never
// finds a session without a live replica.
func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	var msg membersMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
		return
	}
	// Serialize install + reconcile (see applyMu): without this a stale
	// push that passed the version check could reconcile after a newer push
	// installed, pruning replicas against the outdated view.
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.mu.Lock()
	if msg.Version < n.version {
		// An out-of-order push from an older view; the newer one already
		// landed.
		n.mu.Unlock()
		writeJSON(w, map[string]any{"version": n.version, "stale": true})
		return
	}
	n.version = msg.Version
	n.members = append([]Member(nil), msg.Members...)
	n.mu.Unlock()

	n.reconcileReplica(msg.Members)
	for _, id := range n.srv.SessionIDs() {
		n.resyncSession(id, msg.Members)
	}
	writeJSON(w, map[string]any{"version": msg.Version, "members": len(msg.Members)})
}

// reconcileReplica drops replica sessions this node is no longer involved
// with. A session whose new owner is this node is kept — it is pending
// adoption by the promote call that follows a membership push.
func (n *Node) reconcileReplica(members []Member) {
	for _, id := range n.replica.LiveSessions() {
		keep := false
		for _, m := range Owners(id, members, 2) {
			if m.ID == n.id {
				keep = true
			}
		}
		if !keep {
			_ = n.replica.Append(persist.Record{Type: persist.TDelete, Session: id})
		}
	}
}

// resyncSession ships one owned session's full record set to its current
// follower if that follower is not known to be in sync.
func (n *Node) resyncSession(id string, members []Member) {
	f, ok := Follower(id, members)
	if !ok || f.ID == n.id {
		return
	}
	mu := n.stripe(id)
	mu.Lock()
	defer mu.Unlock()
	n.mu.Lock()
	last := n.lastFollower[id]
	n.mu.Unlock()
	if last == f.ID {
		return
	}
	recs := n.journal.SessionRecords(id)
	if recs == nil {
		return
	}
	if err := n.postFrames(f, "/internal/replicate", persist.EncodeFrames(recs)); err != nil {
		n.replErrs.Inc()
		return
	}
	n.replicatedRecs.Add(int64(len(recs)))
	n.mu.Lock()
	n.lastFollower[id] = f.ID
	n.mu.Unlock()
}

type promoteMsg struct {
	Dead string `json:"dead"`
}

type promoteResp struct {
	Adopted   []string `json:"adopted"`
	Watermark int64    `json:"watermark"`
}

// handlePromote runs after a node death (the router has already pushed the
// surviving membership): every replica session whose owner under the
// current view is this node is adopted — rebuilt by deterministic replay,
// journaled locally, replicated to its new follower — and its id watermark
// is reported so the router's id issuance never reuses a dead node's ids.
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	var msg promoteMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
		return
	}
	members := n.membersSnapshot()
	var recs []persist.Record
	for _, id := range n.replica.LiveSessions() {
		owner, ok := Owner(id, members)
		if !ok || owner.ID != n.id {
			continue
		}
		recs = append(recs, n.replica.SessionRecords(id)...)
	}
	res := n.srv.AdoptSessions(recs)
	for _, id := range res.Adopted {
		// The session now lives in this node's own journal; its replica
		// entry here is done (its new follower got a copy during adoption).
		_ = n.replica.Append(persist.Record{Type: persist.TDelete, Session: id})
	}
	n.adoptedTotal.Add(int64(len(res.Adopted)))
	wm := n.journal.Watermark()
	if rw := n.replica.Watermark(); rw > wm {
		wm = rw
	}
	if res.MaxID > wm {
		wm = res.MaxID
	}
	writeJSON(w, promoteResp{Adopted: res.Adopted, Watermark: wm})
}

// handleAdopt receives a handed-off session as raw journal frames from its
// old owner during a rebalance and adopts it through the same replay path
// promotion uses.
func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read frames: "+err.Error())
		return
	}
	recs, _, err := persist.ScanBytes(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decode frames: "+err.Error())
		return
	}
	res := n.srv.AdoptSessions(recs)
	if len(res.Adopted) == 0 && res.Skipped > 0 {
		// The handoff's session could not be adopted: the old owner keeps it.
		httpError(w, http.StatusInternalServerError, "adopt: session not adopted")
		return
	}
	for _, id := range res.Adopted {
		// If this node followed the session before becoming its owner, that
		// replica copy is now redundant: the live copy sits in the own
		// journal and replicates onward to the session's new follower.
		// Without this, a later promotion would see the stale replica.
		_ = n.replica.Append(persist.Record{Type: persist.TDelete, Session: id})
	}
	n.adoptedTotal.Add(int64(len(res.Adopted)))
	writeJSON(w, promoteResp{Adopted: res.Adopted, Watermark: n.journal.Watermark()})
}

type rebalanceMsg struct {
	Members []Member `json:"members"`
}

// handleRebalance hands off every owned session whose rendezvous owner
// under the given target membership is another node (server.HandOff): under
// the session lock, the session's full record set goes to the new owner's
// adopt endpoint, and only after the new owner confirms is the session
// released here — journaled as a THandoff naming the target, never a
// delete, so the journal records a move. Drain is this call with a
// membership that excludes this node.
func (n *Node) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var msg rebalanceMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: "+err.Error())
		return
	}
	moved := 0
	var failed []string
	for _, id := range n.srv.SessionIDs() {
		owner, ok := Owner(id, msg.Members)
		if !ok || owner.ID == n.id {
			continue
		}
		if !n.srv.HandOff(id, owner.ID, func(recs []persist.Record) error {
			return n.postFrames(owner, "/internal/adopt", persist.EncodeFrames(recs))
		}) {
			failed = append(failed, id)
			continue
		}
		moved++
	}
	n.handoffsOut.Add(int64(moved))
	writeJSON(w, map[string]any{"moved": moved, "failed": failed})
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	version := n.version
	n.mu.Unlock()
	writeJSON(w, map[string]any{
		"id":               n.id,
		"version":          version,
		"sessions":         len(n.srv.SessionIDs()),
		"replica_sessions": len(n.replica.LiveSessions()),
		"watermark":        n.journal.Watermark(),
	})
}

// ---------------------------------------------------------------------------

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	b, _ := json.Marshal(map[string]string{"error": msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}
