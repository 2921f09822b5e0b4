package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fisql"
	"fisql/internal/cluster"
	"fisql/internal/obs"
	"fisql/internal/persist"
)

const (
	clusterNodes   = 3
	clusterClients = 2 // one per core of the reference box
	clusterToken   = "bench-cluster-token"
	// flushPad is the modelled device: every journal flush of cluster_durable
	// takes at least this long (see flushModel).
	flushPad = time.Millisecond
)

// flushModel turns the sandbox's disk into a device with a constant flush
// latency. cluster_durable journals with persist.FsyncAlways, so every record
// is really flushed on the owner and on the follower before the
// acknowledgement; but this VM's virtual disk answers a flush in 0.12 ms or
// in 5 ms depending on the minute (NOISE.md), which no run length averages
// out. The journal's public FsyncObserver hook is called after each flush,
// on the request path and under the journal's lock, with the time the flush
// took; the model sleeps there for the rest of pad. A flush therefore costs
// max(real, pad) exactly where a real one costs: two clients that meet on
// one journal queue behind it, a change that flushes twice per record pays
// twice, one that groups two records into a flush pays once.
//
// About one flush in a hundred takes longer than pad on its own (the disk's
// tail reaches tens of milliseconds). Such a spike is the sandbox's, not the
// model's: its interval is recorded, and a turn that was in flight during
// one is counted but left out of the latency percentiles (spiked).
type flushModel struct {
	pad   time.Duration
	next  func(time.Duration) // the tracer's observer, if any
	n     atomic.Int64
	over  atomic.Int64
	realN atomic.Int64 // sum of the real flush times, ns

	mu     sync.Mutex
	spikes []spike // in order of their end
}

// spike is one flush that outlasted the pad.
type spike struct{ start, end time.Time }

func (f *flushModel) observe(d time.Duration) {
	f.n.Add(1)
	f.realN.Add(int64(d))
	if d < f.pad {
		// A blocking sleep in the kernel, as the flush itself is: the
		// thread waits, the runtime hands its processor on.
		t0 := time.Now()
		ts := syscall.NsecToTimespec(int64(f.pad - d))
		_ = syscall.Nanosleep(&ts, nil)
		d += time.Since(t0)
	} else {
		end := time.Now()
		f.over.Add(1)
		f.mu.Lock()
		f.spikes = append(f.spikes, spike{end.Add(-d), end})
		f.mu.Unlock()
	}
	if f.next != nil {
		f.next(d)
	}
}

// spiked reports whether a spike overlapped [t0, t1]. A spike that delayed
// a turn ended before the turn did, so it is already recorded when the
// turn's client asks.
func (f *flushModel) spiked(t0, t1 time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.spikes) - 1; i >= 0; i-- {
		sp := f.spikes[i]
		if sp.end.Before(t0) {
			// Spikes are appended as they end, out of order by at most the
			// few flushes that can be in flight at once.
			if len(f.spikes)-i > 8 {
				return false
			}
			continue
		}
		if !sp.start.After(t1) {
			return true
		}
	}
	return false
}

// lateHandler lets a node's HTTP server exist before the node does: the
// member list needs every node's address and the nodes need the member list
// (same idiom as fisql-loadgen's cluster scenario).
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

// netClient is one closed-loop HTTP client: one connection, one reusable
// response buffer.
type netClient struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newNetClient(base string, rt http.RoundTripper) *netClient {
	return &netClient{base: base, c: &http.Client{Transport: rt}}
}

func (n *netClient) do(method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, n.base+path, rd)
	if err != nil {
		return 0, []byte(err.Error())
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.c.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	n.buf.Reset()
	_, err = n.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, n.buf.Bytes()
}

type clusterMember struct {
	id      string
	ts      *httptest.Server
	node    *cluster.Node
	journal *persist.Journal
	replica *persist.Journal
	jpath   string
	rpath   string
}

// clusterOptions is what the ladder varies; cluster_durable itself uses
// nodes = 3, fsync always with the flush model, 2 clients.
type clusterOptions struct {
	nodes   int
	clients int
	fsync   persist.FsyncPolicy
	// flushPad > 0 installs the flush model on every journal.
	flushPad time.Duration
	metrics  bool
	// tracer, when set, installs its seams: spans on every hop's transport,
	// on fsyncs, on the LLM client and on the corrector.
	tracer *tracer
}

// clusterHooks are the public seams a traced run hangs its spans on.
type clusterHooks struct {
	routerTransport http.RoundTripper
	nodeTransport   http.RoundTripper
	fsyncObserver   func(time.Duration)
}

// clusterInstance is cluster_durable: a cluster.Router over cluster.Nodes
// on loopback httptest servers — the one place the product itself speaks
// HTTP — with owner and replica journals on the real disk and per-turn
// replication to the follower before the acknowledgement.
type clusterInstance struct {
	sc        *script
	dir       string
	members   []*clusterMember
	router    *cluster.Router
	rts       *httptest.Server
	lanes     []*lane
	bodies    [][]uint64
	histories [][]byte
	flush     *flushModel // nil without a flush pad
	// twin, on cluster_durable, is the same cluster with unflushed journals:
	// the CPU cost is measured on it (cpuTwin).
	twin      *clusterInstance
	routerM   *obs.Metrics
	nodeM     []*obs.Metrics
	transport []*http.Transport
	systems   []*fisql.System
}

func (ci *clusterInstance) script() *script { return ci.sc }
func (ci *clusterInstance) clients() int    { return len(ci.lanes) }

func newClusterInstance(sc *script, corpora []corpus, dir string, opt clusterOptions) (*clusterInstance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ci := &clusterInstance{sc: sc, dir: dir,
		bodies: make([][]uint64, len(sc.sessions)), histories: make([][]byte, len(sc.sessions))}
	for _, c := range corpora {
		ci.systems = append(ci.systems, c.sys)
	}
	ok := false
	defer func() {
		if !ok {
			ci.close()
		}
	}()
	newTransport := func(wrap http.RoundTripper) http.RoundTripper {
		if wrap != nil {
			return wrap
		}
		t := &http.Transport{MaxIdleConnsPerHost: 8}
		ci.transport = append(ci.transport, t)
		return t
	}
	var hooks clusterHooks
	if opt.tracer != nil {
		hooks = *opt.tracer.clusterHooks()
	}
	handlers := make([]*lateHandler, opt.nodes)
	members := make([]cluster.Member, opt.nodes)
	for i := 0; i < opt.nodes; i++ {
		id := fmt.Sprintf("node-%d", i)
		handlers[i] = &lateHandler{}
		ts := httptest.NewServer(handlers[i])
		ci.members = append(ci.members, &clusterMember{id: id, ts: ts,
			jpath: filepath.Join(dir, id+".journal"), rpath: filepath.Join(dir, id+".replica")})
		members[i] = cluster.Member{ID: id, Addr: ts.URL}
	}
	// Auto-compaction is off: it is triggered by accumulated dead bytes, so
	// with two clients it would land on different turns in different runs.
	// Its cost is reported per layer (persist.checkpoint_ms).
	jopts := persist.Options{Fsync: opt.fsync, CompactMinBytes: -1, FsyncObserver: hooks.fsyncObserver}
	if opt.flushPad > 0 {
		ci.flush = &flushModel{pad: opt.flushPad, next: hooks.fsyncObserver}
		jopts.FsyncObserver = ci.flush.observe
	}
	for i, m := range ci.members {
		var err error
		if m.journal, err = persist.Open(m.jpath, jopts); err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		if m.replica, err = persist.Open(m.rpath, jopts); err != nil {
			return nil, fmt.Errorf("open replica journal: %w", err)
		}
		cfg := cluster.NodeConfig{
			ID: m.id, Members: members, Systems: opt.tracer.factories(corpora),
			Journal: m.journal, Replica: m.replica, AuthToken: clusterToken,
			Client: &http.Client{Timeout: 5 * time.Second, Transport: newTransport(hooks.nodeTransport)},
		}
		if opt.metrics {
			nm := obs.NewMetrics()
			for _, c := range corpora {
				c.sys.Observe(nm.Registry)
			}
			cfg.Metrics = nm
			ci.nodeM = append(ci.nodeM, nm)
		}
		m.node = cluster.NewNode(cfg)
		if ours := jopts.FsyncObserver; ours != nil && cfg.Metrics != nil {
			// A node with metrics replaces the owner journal's observer with
			// its fsync histogram; put the harness's back in front of it.
			hist := cfg.Metrics.Registry.Histogram("fisql_journal_fsync_seconds", nil).Observe
			m.journal.SetFsyncObserver(func(d time.Duration) { ours(d); hist(d) })
		}
		handlers[i].set(m.node)
	}
	rcfg := cluster.RouterConfig{
		Members: members, AuthToken: clusterToken,
		// No health loop: a ticker is time-triggered work, and the timed
		// phase has none. Failures would still be caught by failing forwards.
		HealthInterval: 0,
		Client:         &http.Client{Transport: newTransport(hooks.routerTransport)},
	}
	if opt.metrics {
		ci.routerM = obs.NewMetrics()
		rcfg.Metrics = ci.routerM
	}
	ci.router = cluster.NewRouter(rcfg)
	ci.rts = httptest.NewServer(ci.router)

	for k := 0; k < opt.clients; k++ {
		l := &lane{do: opt.tracer.tracedDo(newNetClient(ci.rts.URL, newTransport(nil)).do)}
		if ci.flush != nil {
			l.spiked = ci.flush.spiked
		}
		for i := k; i < len(sc.sessions); i += opt.clients {
			l.sessions = append(l.sessions, i)
		}
		ci.lanes = append(ci.lanes, l)
	}
	// Reference pass, the lanes side by side as in a timed pass (each owns
	// its sessions' slots in bodies and histories): checks every body
	// against the script and captures each session's /history for the
	// end-of-run gate. It also warms the memo and the plan caches.
	errs := make([]error, len(ci.lanes))
	var wg sync.WaitGroup
	for k, l := range ci.lanes {
		wg.Add(1)
		go func(k int, l *lane) {
			defer wg.Done()
			errs[k] = l.referencePass(sc, ci.bodies, func(i int, p turnPaths) error {
				code, body := l.do(http.MethodGet, p.self+"/history", nil)
				if code != http.StatusOK {
					return fmt.Errorf("reference pass: history of session %d: status %d", i, code)
				}
				ci.histories[i] = append([]byte(nil), body...)
				return nil
			})
		}(k, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ok = true
	return ci, nil
}

// pass runs every lane concurrently: cluster_durable is the only workload
// with two requests in flight.
func (ci *clusterInstance) pass(rec *recorder) {
	if len(ci.lanes) == 1 {
		ci.lanes[0].pass(ci.sc, ci.bodies, rec)
		return
	}
	recs := make([]recorder, len(ci.lanes))
	var wg sync.WaitGroup
	for k, l := range ci.lanes {
		wg.Add(1)
		go func(l *lane, r *recorder) {
			defer wg.Done()
			l.pass(ci.sc, ci.bodies, r)
		}(l, &recs[k])
	}
	wg.Wait()
	for k := range recs {
		rec.merge(&recs[k])
	}
}

// turnRecords counts the ask and feedback records in a journal file as it
// is on disk.
func turnRecords(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	recs, _, err := persist.ScanBytes(data)
	if err != nil {
		return 0, fmt.Errorf("scan %s: %w", path, err)
	}
	n := 0
	for _, r := range recs {
		if r.Type == persist.TAsk || r.Type == persist.TFeedback {
			n++
		}
	}
	return n, nil
}

// gates re-reads the journals from disk and requires one owner record and
// one replica record per acknowledged turn, then fetches every open
// session's history through the router and requires it byte-identical to
// the reference capture.
func (ci *clusterInstance) gates() []string {
	var out []string
	acked := 0
	for _, l := range ci.lanes {
		acked += l.acked
	}
	owner, replica := 0, 0
	for _, m := range ci.members {
		n, err := turnRecords(m.jpath)
		if err != nil {
			out = append(out, err.Error())
		}
		owner += n
		if n, err = turnRecords(m.rpath); err != nil {
			out = append(out, err.Error())
		}
		replica += n
	}
	if owner != acked {
		out = append(out, fmt.Sprintf("owner journals hold %d turn records for %d acknowledged turns", owner, acked))
	}
	if len(ci.members) > 1 && replica != acked {
		out = append(out, fmt.Sprintf("replica journals hold %d turn records for %d acknowledged turns", replica, acked))
	}
	for _, l := range ci.lanes {
		for k, p := range l.live {
			i := l.sessions[k]
			code, body := l.do(http.MethodGet, p.self+"/history", nil)
			if code != http.StatusOK || !bytes.Equal(body, ci.histories[i]) {
				out = append(out, fmt.Sprintf("history of session %d (%s) differs from the capture (status %d)", i, p.id, code))
			}
		}
	}
	return out
}

// cpuTwin is the instance cpu_us_per_turn is measured on. While a flush is
// in flight the Go runtime's monitor thread polls every 20 µs, idle
// processors spin for work and the guest kernel waits for the device, all on
// this process's account: under FsyncAlways two thirds of the CPU time was
// that waiting, and it doubled (815 → 1 261 µs a turn) when the sandbox's disk
// slowed by half (NOISE.md). What the commit path's own code costs — router,
// nodes, journal appends, replication, HTTP — is what a change to it moves,
// and it repeats only without the device in it: the same script on the same
// cluster shape with persist.FsyncOff.
func (ci *clusterInstance) cpuTwin() instance {
	if ci.twin == nil {
		return nil
	}
	return ci.twin
}

func (ci *clusterInstance) close() {
	if ci.twin != nil {
		ci.twin.close()
	}
	if ci.rts != nil {
		ci.rts.Close()
	}
	if ci.router != nil {
		ci.router.Close()
	}
	for _, t := range ci.transport {
		t.CloseIdleConnections()
	}
	for _, m := range ci.members {
		m.ts.Close()
		if m.journal != nil {
			_ = m.journal.Crash() // the files are scratch; no checkpoint needed
		}
		if m.replica != nil {
			_ = m.replica.Crash()
		}
	}
	_ = os.RemoveAll(ci.dir)
}

func setupClusterDurable(env *runEnv) (instance, error) {
	corpora, err := buildCorpora(1, true)
	if err != nil {
		return nil, err
	}
	sc, err := buildScript(corpora, env.seed, env.sessions())
	if err != nil {
		return nil, err
	}
	// Every record is appended and flushed (persist.FsyncAlways) on the
	// owner's journal and on the follower's before the turn is acknowledged.
	// The flush goes to the real disk and is then padded to flushPad, so the
	// turn contains its flushes at a latency that repeats (flushModel). What
	// a flush costs on this VM's disk is reported per layer
	// (persist.fsync_us, ladder.journal_always_us).
	opt := clusterOptions{nodes: clusterNodes, clients: clusterClients, fsync: persist.FsyncAlways,
		flushPad: flushPad, metrics: true}
	if env.tracer != nil {
		// One request in flight, so every span nests in exactly one turn.
		opt.clients = 1
		opt.tracer = env.tracer
	}
	// No separate warm-up pass: the reference pass already went through
	// the whole commit path, and a pass here costs two seconds of flushes.
	ci, err := newClusterInstance(sc, corpora, filepath.Join(env.dir, "cluster"), opt)
	if err != nil || env.tracer != nil {
		return ci, err
	}
	opt.fsync, opt.flushPad = persist.FsyncOff, 0
	if ci.twin, err = newClusterInstance(sc, corpora, filepath.Join(env.dir, "cluster-twin"), opt); err != nil {
		ci.close()
		return nil, err
	}
	return ci, nil
}

// replicatedRecords sums the nodes' replicated-record counters.
func (ci *clusterInstance) replicatedRecords() int64 {
	var n int64
	for _, m := range ci.nodeM {
		n += m.Registry.Snapshot().Counters["fisql_cluster_replicated_records_total"]
	}
	return n
}

// directInstance replays the script straight at a cluster's first node,
// skipping the router: the other side of cluster.router_hop_us.
type directInstance struct {
	ci   *clusterInstance
	lane lane
}

func (ci *clusterInstance) direct() instance {
	t := &http.Transport{MaxIdleConnsPerHost: 8}
	ci.transport = append(ci.transport, t)
	return &directInstance{ci: ci, lane: lane{
		do: newNetClient(ci.members[0].ts.URL, t).do, sessions: allSessions(ci.sc)}}
}

func (d *directInstance) script() *script    { return d.ci.sc }
func (d *directInstance) pass(rec *recorder) { d.lane.pass(d.ci.sc, d.ci.bodies, rec) }
func (d *directInstance) clients() int       { return 1 }
func (d *directInstance) gates() []string    { return nil }
func (d *directInstance) close()             {}
