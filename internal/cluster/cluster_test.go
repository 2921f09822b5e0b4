package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fisql/internal/assistant"
	"fisql/internal/core"
	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/engine"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/persist/persisttest"
	"fisql/internal/rag"
	"fisql/internal/server"
)

const askQuestion = "How many audiences were created in January?"

// testFactory mirrors the single-node server test factory: one shared
// dataset, simulated model, retrieval store and plan cache. Sharing it
// across every node of a test cluster matches production (all nodes serve
// the same corpus build) and is what makes cross-node replay deterministic.
type testFactory struct {
	ds    *dataset.Dataset
	sim   *llm.Sim
	store *rag.Store
	cache *engine.Cache
}

func (f *testFactory) NewSession(db string) *core.Session { return f.session(f.sim, db) }

func (f *testFactory) session(client llm.Client, db string) *core.Session {
	asst := &assistant.Assistant{Client: client, DS: f.ds, Store: f.store, K: 8, Cache: f.cache}
	method := &core.FISQL{Client: client, DS: f.ds, Store: f.store, K: 8, Routing: true, Highlights: true}
	return core.NewSession(asst, method, db)
}

// clientFactory serves the shared corpus through another model client.
type clientFactory struct {
	*testFactory
	client llm.Client
}

func (f *clientFactory) NewSession(db string) *core.Session { return f.session(f.client, db) }

// llmGate parks the first model call made after arm until release closes,
// so a test can hold a turn inside apply on its owner, session lock taken.
// Every other call passes straight through to the simulated model.
type llmGate struct {
	inner   llm.Client
	armed   atomic.Bool
	held    chan struct{} // closed when a call parks
	release chan struct{}
}

func newLLMGate(inner llm.Client) *llmGate {
	return &llmGate{inner: inner, held: make(chan struct{}), release: make(chan struct{})}
}

func (g *llmGate) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.held)
		<-g.release
	}
	return g.inner.Complete(ctx, req)
}

func (f *testFactory) Databases() []string {
	var out []string
	for name := range f.ds.Schemas {
		out = append(out, name)
	}
	return out
}

var (
	facOnce sync.Once
	facVal  *testFactory
	facErr  error
)

func factory(t *testing.T) *testFactory {
	t.Helper()
	facOnce.Do(func() {
		ds, err := aep.Build()
		if err != nil {
			facErr = err
			return
		}
		facVal = &testFactory{ds: ds, sim: llm.NewSim(ds), store: rag.NewStore(ds.Demos),
			cache: engine.NewCache(0)}
	})
	if facErr != nil {
		t.Fatal(facErr)
	}
	return facVal
}

// swapHandler lets the httptest servers exist (and hand out addresses)
// before the Nodes they serve are built — NodeConfig needs every member's
// address up front.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

type testNode struct {
	id      string
	node    *Node
	ts      *httptest.Server
	handler *swapHandler
	journal *persist.Journal
	replica *persist.Journal
	jpath   string
	rpath   string
	metrics *obs.Metrics
	killed  bool
}

// kill simulates node death: established connections die, new dials fail,
// and the journals are closed without any shutdown courtesy — the file is
// left exactly as the append stream left it. crashJournalsFirst controls
// whether an in-flight turn can still reach the journal and its follower
// (connections first: yes, the turn may be durable but unacknowledged;
// journals first: no, it fails cleanly before the append).
func (tn *testNode) kill(crashJournalsFirst bool) {
	if tn.killed {
		return
	}
	tn.killed = true
	if crashJournalsFirst {
		tn.journal.Crash()
		tn.replica.Crash()
	}
	tn.ts.Listener.Close()
	tn.ts.CloseClientConnections()
	if !crashJournalsFirst {
		tn.journal.Crash()
		tn.replica.Crash()
	}
}

type testCluster struct {
	t       *testing.T
	dir     string
	members []Member
	nodes   map[string]*testNode
	systems map[string]server.SessionFactory
	router  *Router
	rts     *httptest.Server
	client  *http.Client
}

type clusterOptions struct {
	healthInterval time.Duration
	fsync          persist.FsyncPolicy
	routerMetrics  *obs.Metrics
	nodeMetrics    bool
	serverOptions  []server.Option
	token          string
	// llm, when set, replaces the simulated model client on every node.
	llm llm.Client
}

// newTestCluster brings up n in-process nodes behind a router. The caller
// gets a plain HTTP client pointed at the router URL; per-node access goes
// through tc.nodes.
func newTestCluster(t *testing.T, n int, opts clusterOptions) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:       t,
		dir:     t.TempDir(),
		nodes:   map[string]*testNode{},
		systems: map[string]server.SessionFactory{"aep": factory(t)},
		client:  &http.Client{Timeout: 30 * time.Second},
	}
	if opts.llm != nil {
		tc.systems["aep"] = &clientFactory{testFactory: factory(t), client: opts.llm}
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%c", 'a'+i)
		sh := &swapHandler{}
		ts := httptest.NewServer(sh)
		tc.members = append(tc.members, Member{ID: id, Addr: ts.URL})
		tc.nodes[id] = &testNode{id: id, ts: ts, handler: sh}
	}
	for _, m := range tc.members {
		tn := tc.nodes[m.ID]
		tn.jpath = filepath.Join(tc.dir, m.ID+".journal")
		tn.rpath = filepath.Join(tc.dir, m.ID+".replica")
		var err error
		tn.journal, err = persist.Open(tn.jpath, persist.Options{Fsync: opts.fsync})
		if err != nil {
			t.Fatal(err)
		}
		tn.replica, err = persist.Open(tn.rpath, persist.Options{Fsync: opts.fsync})
		if err != nil {
			t.Fatal(err)
		}
		if opts.nodeMetrics {
			tn.metrics = obs.NewMetrics()
		}
		tn.node = NewNode(NodeConfig{
			ID:            m.ID,
			Members:       tc.members,
			Systems:       tc.systems,
			Journal:       tn.journal,
			Replica:       tn.replica,
			Metrics:       tn.metrics,
			AuthToken:     opts.token,
			ServerOptions: opts.serverOptions,
		})
		tn.handler.set(tn.node)
	}
	tc.router = NewRouter(RouterConfig{
		Members:        tc.members,
		Metrics:        opts.routerMetrics,
		HealthInterval: opts.healthInterval,
		HealthTimeout:  500 * time.Millisecond,
		AuthToken:      opts.token,
	})
	tc.rts = httptest.NewServer(tc.router)
	t.Cleanup(func() {
		tc.router.Close()
		tc.rts.Close()
		for _, tn := range tc.nodes {
			if !tn.killed {
				tn.ts.Close()
				tn.journal.Close()
				tn.replica.Close()
			}
		}
	})
	return tc
}

func (tc *testCluster) url() string { return tc.rts.URL }

// spare brings up node id outside the membership, with the membership plus
// itself as its bootstrap view, ready to join.
func (tc *testCluster) spare(t *testing.T, id string) (*testNode, Member) {
	t.Helper()
	sh := &swapHandler{}
	ts := httptest.NewServer(sh)
	m := Member{ID: id, Addr: ts.URL}
	tn := &testNode{id: id, ts: ts, handler: sh,
		jpath: filepath.Join(tc.dir, id+".journal"), rpath: filepath.Join(tc.dir, id+".replica")}
	var err error
	if tn.journal, err = persist.Open(tn.jpath, persist.Options{}); err != nil {
		t.Fatal(err)
	}
	if tn.replica, err = persist.Open(tn.rpath, persist.Options{}); err != nil {
		t.Fatal(err)
	}
	tn.node = NewNode(NodeConfig{
		ID:      id,
		Members: append(append([]Member(nil), tc.members...), m),
		Systems: tc.systems,
		Journal: tn.journal,
		Replica: tn.replica,
	})
	sh.set(tn.node)
	tc.nodes[id] = tn
	t.Cleanup(func() {
		if !tn.killed {
			ts.Close()
			tn.journal.Close()
			tn.replica.Close()
		}
	})
	return tn, m
}

// ownerOf resolves the current owner node of a session id via the router's
// live membership — the same placement the router itself uses.
func (tc *testCluster) ownerOf(id string) *testNode {
	owner, ok := Owner(id, tc.router.Members())
	if !ok {
		tc.t.Fatal("no members")
	}
	return tc.nodes[owner.ID]
}

func (tc *testCluster) postJSON(path string, body any) (int, map[string]any) {
	tc.t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := tc.client.Post(tc.url()+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		tc.t.Fatalf("post %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func (tc *testCluster) createSession(t *testing.T) string {
	t.Helper()
	code, out := tc.postJSON("/v1/sessions", map[string]string{"corpus": "aep"})
	if code != http.StatusOK {
		t.Fatalf("create: %d %v", code, out)
	}
	id, _ := out["session_id"].(string)
	if id == "" {
		t.Fatalf("no session id: %v", out)
	}
	return id
}

func (tc *testCluster) ask(t *testing.T, id, question string) (int, map[string]any) {
	t.Helper()
	return tc.postJSON("/v1/sessions/"+id+"/ask", map[string]string{"question": question})
}

func (tc *testCluster) feedback(t *testing.T, id, text string) (int, map[string]any) {
	t.Helper()
	return tc.postJSON("/v1/sessions/"+id+"/feedback", map[string]string{"text": text})
}

// ---------------------------------------------------------------------------

// TestClusterBasicRouting: sessions created through the router land on
// their rendezvous owners, spread across nodes, and every turn forwarded
// later reaches the same session state.
func TestClusterBasicRouting(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})

	const sessions = 24
	ids := make([]string, 0, sessions)
	for i := 0; i < sessions; i++ {
		id := tc.createSession(t)
		ids = append(ids, id)
		if code, out := tc.ask(t, id, askQuestion); code != http.StatusOK {
			t.Fatalf("ask %s: %d %v", id, code, out)
		}
		if i%3 == 0 {
			if code, out := tc.feedback(t, id, "only the top 5"); code != http.StatusOK {
				t.Fatalf("feedback %s: %d %v", id, code, out)
			}
		}
	}

	// Placement: every session lives exactly on its rendezvous owner, and
	// more than one node carries load.
	nodesUsed := map[string]int{}
	for _, id := range ids {
		owner := tc.ownerOf(id)
		nodesUsed[owner.id]++
		found := false
		for _, sid := range owner.node.Server().SessionIDs() {
			if sid == id {
				found = true
			}
		}
		if !found {
			t.Errorf("session %s not on its owner %s", id, owner.id)
		}
	}
	if len(nodesUsed) < 2 {
		t.Errorf("all sessions on one node: %v", nodesUsed)
	}
	total := 0
	for _, tn := range tc.nodes {
		total += len(tn.node.Server().SessionIDs())
	}
	if total != sessions {
		t.Errorf("cluster holds %d sessions, want %d", total, sessions)
	}

	// Histories read back through the router.
	for _, id := range ids {
		if _, err := persisttest.History(tc.client, tc.url(), id); err != nil {
			t.Errorf("history %s: %v", id, err)
		}
	}
}

// TestClusterReplicaPlacement: every session's records are replicated to
// its rendezvous follower — and only there — before the turn is
// acknowledged, so the ack already implies follower durability.
func TestClusterReplicaPlacement(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})

	for i := 0; i < 12; i++ {
		id := tc.createSession(t)
		if code, out := tc.ask(t, id, askQuestion); code != http.StatusOK {
			t.Fatalf("ask %s: %d %v", id, code, out)
		}
		f, ok := Follower(id, tc.router.Members())
		if !ok {
			t.Fatal("no follower in a 3-node cluster")
		}
		for nid, tn := range tc.nodes {
			recs := tn.replica.SessionRecords(id)
			if nid == f.ID {
				// create + ask, replicated synchronously with the ack.
				if len(recs) != 2 {
					t.Errorf("follower %s holds %d records of %s, want 2", nid, len(recs), id)
				}
			} else if recs != nil {
				t.Errorf("non-follower %s holds a replica of %s", nid, id)
			}
		}
	}
}

// TestClusterSSEThroughRouter: an SSE ask streams through the router
// unharmed — complete event sequence, done payload equal to the plain JSON
// answer body.
func TestClusterSSEThroughRouter(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})
	id := tc.createSession(t)

	body, _ := json.Marshal(map[string]string{"question": askQuestion})
	req, _ := http.NewRequest(http.MethodPost, tc.url()+"/v1/sessions/"+id+"/ask", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := tc.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]string{}
	var order []string
	for _, block := range bytes.Split(raw, []byte("\n\n")) {
		var name, data string
		for _, line := range bytes.Split(block, []byte("\n")) {
			if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
				name = string(v)
			}
			if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				data = string(v)
			}
		}
		if name != "" {
			events[name] = data
			order = append(order, name)
		}
	}
	want := []string{"open", "sql", "explanation", "result", "done"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("event order %v, want %v", order, want)
	}

	// The done payload matches the non-streamed answer of the same question
	// in a fresh session (deterministic pipeline + shared memo).
	id2 := tc.createSession(t)
	code, ans := tc.ask(t, id2, askQuestion)
	if code != http.StatusOK {
		t.Fatalf("plain ask: %d", code)
	}
	plain, _ := json.Marshal(ans)
	var fromSSE, fromPlain map[string]any
	if err := json.Unmarshal([]byte(events["done"]), &fromSSE); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	_ = json.Unmarshal(plain, &fromPlain)
	if fmt.Sprint(fromSSE) != fmt.Sprint(fromPlain) {
		t.Errorf("done payload differs from plain answer:\nsse:   %v\nplain: %v", fromSSE, fromPlain)
	}
}

// TestClusterDrain: draining a node moves its sessions to the survivors
// with byte-identical histories and journaled handoffs, and the drained
// node ends up empty.
func TestClusterDrain(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})

	ids := make([]string, 0, 18)
	for i := 0; i < 18; i++ {
		id := tc.createSession(t)
		ids = append(ids, id)
		tc.ask(t, id, askQuestion)
		if i%2 == 0 {
			tc.feedback(t, id, "only the top 5")
		}
	}
	capture, err := persisttest.Capture(tc.client, tc.url(), ids)
	if err != nil {
		t.Fatal(err)
	}

	// Drain the node owning the most sessions.
	victim := ""
	most := -1
	for nid, tn := range tc.nodes {
		if n := len(tn.node.Server().SessionIDs()); n > most {
			victim, most = nid, n
		}
	}
	if most == 0 {
		t.Fatal("no node owns any session")
	}
	code, out := tc.postJSON("/internal/cluster/drain", map[string]string{"id": victim})
	if code != http.StatusOK {
		t.Fatalf("drain: %d %v", code, out)
	}
	if moved := int(out["moved"].(float64)); moved != most {
		t.Errorf("drain moved %d sessions, node owned %d", moved, most)
	}
	if n := len(tc.nodes[victim].node.Server().SessionIDs()); n != 0 {
		t.Errorf("drained node still owns %d sessions", n)
	}
	if len(tc.router.Members()) != 2 {
		t.Errorf("membership after drain: %v", tc.router.Members())
	}
	if diffs := persisttest.DiffHistories(tc.client, tc.url(), capture); diffs != nil {
		t.Errorf("histories drifted across drain:\n%v", diffs)
	}
	// The handoffs were journaled as moves, not deletes: the drained node's
	// journal no longer retains the sessions.
	for _, id := range ids {
		if recs := tc.nodes[victim].journal.SessionRecords(id); recs != nil {
			t.Errorf("drained node still retains journal records of %s", id)
		}
	}
	// Moved sessions still take turns.
	for _, id := range ids[:4] {
		if code, out := tc.ask(t, id, askQuestion); code != http.StatusOK {
			t.Errorf("post-drain ask %s: %d %v", id, code, out)
		}
	}
}

// TestClusterAddNode: joining a node moves exactly the sessions the new
// placement assigns to it (minimal disruption), byte-identically.
func TestClusterAddNode(t *testing.T) {
	tc := newTestCluster(t, 2, clusterOptions{})

	ids := make([]string, 0, 16)
	for i := 0; i < 16; i++ {
		id := tc.createSession(t)
		ids = append(ids, id)
		tc.ask(t, id, askQuestion)
	}
	capture, err := persisttest.Capture(tc.client, tc.url(), ids)
	if err != nil {
		t.Fatal(err)
	}

	// Bring up the third node and compute, before the join, which sessions
	// the new placement will hand it.
	tn, newMember := tc.spare(t, "node-c")
	target := append(append([]Member(nil), tc.members...), newMember)
	wantMoved := 0
	for _, id := range ids {
		if owner, _ := Owner(id, target); owner.ID == newMember.ID {
			wantMoved++
		}
	}

	code, out := tc.postJSON("/internal/cluster/add", map[string]string{"id": newMember.ID, "addr": newMember.Addr})
	if code != http.StatusOK {
		t.Fatalf("add: %d %v", code, out)
	}
	if moved := int(out["moved"].(float64)); moved != wantMoved {
		t.Errorf("join moved %d sessions, rendezvous assigns the new node %d", moved, wantMoved)
	}
	if got := len(tn.node.Server().SessionIDs()); got != wantMoved {
		t.Errorf("new node owns %d sessions, want %d", got, wantMoved)
	}
	if diffs := persisttest.DiffHistories(tc.client, tc.url(), capture); diffs != nil {
		t.Errorf("histories drifted across join:\n%v", diffs)
	}
	for _, id := range ids {
		if code, out := tc.ask(t, id, askQuestion); code != http.StatusOK {
			t.Errorf("post-join ask %s: %d %v", id, code, out)
		}
	}
}

// TestClusterAuthToken: with a shared token configured the cluster works
// end to end — replication, drain and promotion all carry the header —
// while unauthenticated or wrongly-authenticated /internal/* calls are
// refused on the nodes and on the router's admin endpoints alike.
func TestClusterAuthToken(t *testing.T) {
	const token = "secret-42"
	tc := newTestCluster(t, 3, clusterOptions{token: token})

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		id := tc.createSession(t)
		ids = append(ids, id)
		if code, _ := tc.ask(t, id, askQuestion); code != http.StatusOK {
			t.Fatalf("ask: %d", code)
		}
	}
	// Replication carried the token: every session has a replica somewhere.
	replicas := 0
	for _, tn := range tc.nodes {
		replicas += len(tn.replica.LiveSessions())
	}
	if replicas != len(ids) {
		t.Errorf("replicated %d sessions, want %d", replicas, len(ids))
	}

	// Probes without or with a wrong token bounce off every /internal/*
	// surface with 403.
	var anyNode *testNode
	for _, tn := range tc.nodes {
		anyNode = tn
		break
	}
	for _, probe := range []struct{ url, token string }{
		{anyNode.ts.URL + "/internal/status", ""},
		{anyNode.ts.URL + "/internal/status", "wrong"},
		{tc.url() + "/internal/cluster/members", ""},
		{tc.url() + "/internal/cluster/members", "wrong"},
	} {
		req, _ := http.NewRequest(http.MethodGet, probe.url, nil)
		if probe.token != "" {
			req.Header.Set(TokenHeader, probe.token)
		}
		resp, err := tc.client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("GET %s (token %q): %d, want 403", probe.url, probe.token, resp.StatusCode)
		}
	}
	// Forged mutations are refused too: a replica-frame injection on a node
	// and a drain on the router.
	frames := persist.EncodeFrames([]persist.Record{{Type: persist.TDelete, Session: ids[0]}})
	resp, err := tc.client.Post(anyNode.ts.URL+"/internal/replicate", "application/octet-stream",
		bytes.NewReader(frames))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("unauthenticated replicate: %d, want 403", resp.StatusCode)
	}
	if code, _ := tc.postJSON("/internal/cluster/drain", map[string]string{"id": anyNode.id}); code != http.StatusForbidden {
		t.Errorf("unauthenticated drain: %d, want 403", code)
	}

	// The authenticated admin path still works: drain one node with the
	// token (members/rebalance/adopt pushes all authenticate node-to-node).
	capture, err := persisttest.Capture(tc.client, tc.url(), ids)
	if err != nil {
		t.Fatal(err)
	}
	var drained *testNode
	most := -1
	for _, tn := range tc.nodes {
		if n := len(tn.node.Server().SessionIDs()); n > most {
			drained, most = tn, n
		}
	}
	body, _ := json.Marshal(map[string]string{"id": drained.id})
	req, _ := http.NewRequest(http.MethodPost, tc.url()+"/internal/cluster/drain", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TokenHeader, token)
	resp, err = tc.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated drain: %d", resp.StatusCode)
	}
	// And failover (members + promote pushes) authenticates as well.
	var second *testNode
	most = -1
	for _, tn := range tc.nodes {
		if tn == drained {
			continue
		}
		if n := len(tn.node.Server().SessionIDs()); n > most {
			second, most = tn, n
		}
	}
	second.kill(false)
	tc.router.MarkDead(second.id)
	if diffs := persisttest.DiffHistories(tc.client, tc.url(), capture); diffs != nil {
		t.Errorf("histories drifted across authenticated drain+failover:\n%v", diffs)
	}
}

// TestDeleteReplicationRedelivery: a delete whose synchronous replication
// to the follower fails is redelivered in the background once the follower
// is reachable again — otherwise the follower's replica keeps the deleted
// session alive and a later promotion resurrects it.
func TestDeleteReplicationRedelivery(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})

	id := tc.createSession(t)
	if code, _ := tc.ask(t, id, askQuestion); code != http.StatusOK {
		t.Fatalf("ask: %d", code)
	}
	f, ok := Follower(id, tc.router.Members())
	if !ok {
		t.Fatal("no follower")
	}
	fn := tc.nodes[f.ID]
	if fn.replica.SessionRecords(id) == nil {
		t.Fatal("follower holds no replica before the delete")
	}

	// Fail exactly the replication endpoint on the follower, so the owner's
	// synchronous delete replication misses while everything else runs.
	fn.handler.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/internal/replicate" {
			httpError(w, http.StatusInternalServerError, "injected replication failure")
			return
		}
		fn.node.ServeHTTP(w, r)
	}))
	req, _ := http.NewRequest(http.MethodDelete, tc.url()+"/v1/sessions/"+id, nil)
	resp, err := tc.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d (delete replication is best-effort and must not fail the request)", resp.StatusCode)
	}
	if fn.replica.SessionRecords(id) == nil {
		t.Fatal("replica dropped the session although replication was failing — fault injection missed")
	}

	// Heal the follower: the background redelivery must land the delete.
	fn.handler.set(fn.node)
	deadline := time.Now().Add(10 * time.Second)
	for fn.replica.SessionRecords(id) != nil {
		if time.Now().After(deadline) {
			t.Fatal("replica still holds the deleted session; the delete was never redelivered")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMembersStalePushIgnored: a membership push older than the installed
// view must neither install nor reconcile — its outdated member list would
// prune replica sessions the current view still needs. The concurrent leg
// hammers interleaved pushes under -race: application is serialized per
// node, so the highest version wins and the replica survives.
func TestMembersStalePushIgnored(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})
	tn := tc.nodes["node-a"]

	// A key node-a follows (or owns) under the full membership, so the full
	// view keeps its replica and any view excluding node-a would drop it.
	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("probe%d", i)
		for _, m := range Owners(k, tc.members, 2) {
			if m.ID == tn.id {
				key = k
			}
		}
	}
	if err := tn.replica.Append(persist.Record{Type: persist.TCreate, Session: key, Corpus: "aep", DB: "aep", ID: 900000}); err != nil {
		t.Fatal(err)
	}

	pushMembers := func(version int64, members []Member) int {
		body, _ := json.Marshal(membersMsg{Version: version, Members: members})
		resp, err := tc.client.Post(tn.ts.URL+"/internal/members", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	withoutA := make([]Member, 0, len(tc.members)-1)
	for _, m := range tc.members {
		if m.ID != tn.id {
			withoutA = append(withoutA, m)
		}
	}

	// Sequential: install a fresh full view, then replay an older view that
	// excludes node-a. The stale push must not reconcile.
	if code := pushMembers(10, tc.members); code != http.StatusOK {
		t.Fatalf("push v10: %d", code)
	}
	if code := pushMembers(5, withoutA); code != http.StatusOK {
		t.Fatalf("push v5: %d", code)
	}
	if tn.replica.SessionRecords(key) == nil {
		t.Fatal("stale membership push pruned a replica the installed view still needs")
	}

	// Concurrent: interleave newer full views with older excluding views.
	// Serialized application applies them in arrival order, but any stale
	// view is rejected before its reconcile once a newer one landed — and
	// every applied view that includes node-a keeps the replica. End state:
	// highest version installed, replica alive (v20, pushed first, beats
	// every concurrent older view).
	if code := pushMembers(20, tc.members); code != http.StatusOK {
		t.Fatalf("push v20: %d", code)
	}
	var wg sync.WaitGroup
	for v := int64(11); v < 20; v++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			pushMembers(v, withoutA)
		}(v)
	}
	wg.Wait()
	if tn.replica.SessionRecords(key) == nil {
		t.Fatal("a racing stale push pruned a replica the newest view needs")
	}
	var st struct {
		Version int64 `json:"version"`
	}
	resp, err := tc.client.Get(tn.ts.URL + "/internal/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Version != 20 {
		t.Errorf("installed version %d, want 20", st.Version)
	}
}

// TestRebalanceKeepsInFlightTurn is the regression test for a turn lost in
// a rebalance: a turn already in flight on the old owner when a drain or a
// join hands its session off must either reach the new owner or not be
// acknowledged. The turn is held inside apply on the owner while the
// rebalance starts, then released.
func TestRebalanceKeepsInFlightTurn(t *testing.T) {
	const held = "How many audiences were created in February?"
	for _, op := range []string{"drain", "add"} {
		t.Run(op, func(t *testing.T) {
			gate := newLLMGate(factory(t).sim)
			n := 3
			if op == "add" {
				n = 2
			}
			tc := newTestCluster(t, n, clusterOptions{llm: gate})
			var spare *testNode
			var joining Member
			if op == "add" {
				spare, joining = tc.spare(t, "node-c")
			}
			// A session that moves: under a drain every session of the owner
			// does; under a join, one the new placement gives the new node.
			var id string
			for id == "" {
				id = tc.createSession(t)
				if op == "add" {
					if owner, _ := Owner(id, append(append([]Member(nil), tc.members...), joining)); owner.ID != joining.ID {
						id = ""
					}
				}
			}
			if code, out := tc.ask(t, id, askQuestion); code != http.StatusOK {
				t.Fatalf("ask: %d %v", code, out)
			}
			owner := tc.ownerOf(id)

			gate.armed.Store(true)
			rebalanced := make(chan error, 1)
			go func() {
				<-gate.held
				go func() {
					var err error
					if op == "drain" {
						_, err = tc.router.Drain(owner.id)
					} else {
						_, err = tc.router.AddNode(joining)
					}
					rebalanced <- err
				}()
				// Give the rebalance time to reach the held session: a
				// correct owner blocks it there until the release, a broken
				// one lets it finish first.
				time.Sleep(300 * time.Millisecond)
				close(gate.release)
			}()
			code, _ := tc.ask(t, id, held)
			if err := <-rebalanced; err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			newOwner := tc.ownerOf(id)
			if newOwner == owner || (spare != nil && newOwner != spare) {
				t.Fatalf("session %s stayed on %s", id, owner.id)
			}
			if code != http.StatusOK {
				return // never acknowledged, so nothing is owed
			}
			hist, err := persisttest.History(tc.client, newOwner.ts.URL, id)
			if err != nil {
				t.Fatalf("history on the new owner %s: %v", newOwner.id, err)
			}
			if !strings.Contains(string(hist), held) {
				t.Fatalf("acknowledged turn missing on the new owner %s: %s", newOwner.id, hist)
			}
		})
	}
}
