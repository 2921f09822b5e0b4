// Command fisql-server exposes the Assistant over a REST API — the headless
// equivalent of the AEP Assistant panel (paper Figure 3). Sessions are
// created per client and hold the ask/feedback state.
//
//	POST   /v1/sessions                 {"corpus":"aep","db":"..."}    -> {"session_id":...}
//	POST   /v1/sessions/{id}/ask        {"question":"..."}             -> answer
//	POST   /v1/sessions/{id}/feedback   {"text":"...","highlight":"…"} -> answer
//	GET    /v1/sessions/{id}/history
//	GET    /v1/sessions/{id}/events     (SSE; resume with Last-Event-ID)
//	DELETE /v1/sessions/{id}
//	GET    /v1/databases?corpus=aep
//	GET    /v1/healthz
//	GET    /v1/metrics[?format=prometheus]
//
// Observability is on by default (-metrics=false disables it): every
// request is traced through the pipeline stages and /v1/metrics serves the
// per-stage latency histograms plus the plan-cache, answer-memo, render
// cache and session-store counters of both corpora. -pprof additionally
// mounts net/http/pprof under /debug/pprof/.
//
// The session store is capped (-max-sessions, true-LRU eviction) and can
// expire idle sessions (-session-ttl), so a long-running server does not
// grow without bound. On SIGINT/SIGTERM the server stops accepting
// connections and drains in-flight asks before exiting.
//
// With -journal the server is durable: every session lifecycle event is
// appended to a CRC-framed journal before the response is acknowledged,
// and a restart replays the journal through the normal ask/feedback
// pipeline — deterministic recovery, truncating any torn tail a crash left
// behind. -journal-fsync picks the sync policy (always/interval/off) and
// -journal-compact bounds the dead bytes deleted sessions leave in the
// file. Graceful shutdown checkpoints the journal down to the live
// sessions.
//
// Overload safety is opt-in and two-layered. -llm-batch coalesces
// concurrent model calls into deadline-bounded batches (-llm-batch-wait,
// -llm-batch-concurrency) in front of each corpus's client. -ask-limit and
// -feedback-limit bound pipeline concurrency per endpoint class with a
// small admission queue (-admission-queue, -queue-timeout); a request that
// finds the queue full is shed with 429 and a Retry-After hint
// (-retry-after) instead of degrading everyone's latency. Streaming
// clients send "Accept: text/event-stream" on ask and receive the answer
// stage by stage (see DESIGN.md, "Async serving").
//
// Every session also has a shared event stream: GET
// /v1/sessions/{id}/events fans out each acknowledged lifecycle event
// (open, sql, explanation, result, done, feedback, delete) to any number
// of concurrent SSE subscribers, each event carrying a monotonic id: for
// Last-Event-ID resume. -pubsub-ring sizes the per-session replay ring
// (see DESIGN.md, "Session-event fanout").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fisql"
	"fisql/internal/cluster"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/persist"
	"fisql/internal/server"
)

// sysAdapter adapts the public System to the server's SessionFactory,
// pinning the full FISQL configuration (routing + highlights).
type sysAdapter struct{ *fisql.System }

func (a sysAdapter) NewSession(db string) *fisql.Session {
	return a.Session(db, fisql.Options{Routing: true, Highlights: true})
}

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions,
		"max live sessions before LRU eviction (<= 0 for unlimited)")
	sessionTTL := flag.Duration("session-ttl", 0,
		"expire sessions idle for longer than this (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long shutdown waits for in-flight requests to finish")
	metrics := flag.Bool("metrics", true,
		"per-stage tracing, cache counters and the /v1/metrics endpoint")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	maxBody := flag.Int64("max-body-bytes", server.DefaultMaxBodyBytes,
		"largest accepted POST body; bigger requests answer 413")
	journalPath := flag.String("journal", "",
		"session journal file for crash-safe durability (empty disables)")
	journalFsync := flag.String("journal-fsync", "interval",
		"journal fsync policy: always, interval or off")
	journalCompact := flag.Int64("journal-compact", persist.DefaultCompactMinBytes,
		"compact the journal once this many dead bytes accumulate (<= 0 disables auto-compaction)")
	llmBatch := flag.Int("llm-batch", 0,
		"coalesce concurrent LLM calls into batches of up to this size (0 disables batching)")
	llmBatchWait := flag.Duration("llm-batch-wait", llm.DefaultMaxWait,
		"how long a collecting batch waits for company before flushing")
	llmBatchConc := flag.Int("llm-batch-concurrency", 0,
		"max LLM batches in flight at once (0 for unlimited)")
	askLimit := flag.Int("ask-limit", 0,
		"max concurrently running asks before admission queueing (0 for unlimited)")
	fbLimit := flag.Int("feedback-limit", 0,
		"max concurrently running feedback requests before admission queueing (0 for unlimited)")
	admissionQueue := flag.Int("admission-queue", 0,
		"bounded admission queue depth per endpoint class (0 defaults to the class's limit)")
	queueTimeout := flag.Duration("queue-timeout", server.DefaultQueueTimeout,
		"shed a queued request after waiting this long for a slot")
	retryAfter := flag.Duration("retry-after", server.DefaultRetryAfter,
		"Retry-After hint on load-shedding 429 responses (rounded up to whole seconds)")
	pubsubRing := flag.Int("pubsub-ring", 0,
		"per-session event-fanout ring capacity in events; a /v1/sessions/{id}/events subscriber can resume via Last-Event-ID from at most this far back before the gap is reported as dropped (0 for the default, 256)")
	ragFold := flag.Bool("rag-fold", false,
		"fold successful feedback corrections back into the retrieval store as new demonstrations")
	clusterNode := flag.String("cluster-node", "",
		"run as a cluster node under this member id (requires -cluster-members and -journal)")
	clusterMembers := flag.String("cluster-members", "",
		`bootstrap cluster membership as "id=http://host:port,id2=..."`)
	clusterReplica := flag.String("cluster-replica-journal", "",
		"replica journal path for -cluster-node (default: <journal>.replica)")
	clusterRouter := flag.Bool("cluster-router", false,
		"run as the cluster's client-facing router over -cluster-members instead of a corpus server")
	clusterHealthInterval := flag.Duration("cluster-health-interval", time.Second,
		"router health-probe period (-cluster-router; <= 0 disables the background probe)")
	clusterHealthTimeout := flag.Duration("cluster-health-timeout", cluster.DefaultHealthTimeout,
		"router health-probe timeout (-cluster-router)")
	clusterToken := flag.String("cluster-token", "",
		"shared secret gating every /internal/* cluster endpoint; must match across the router and all nodes (empty leaves them open — then keep the ports off client-reachable networks)")
	flag.Parse()

	if *clusterRouter {
		runRouter(*addr, *clusterMembers, *clusterToken, *clusterHealthInterval,
			*clusterHealthTimeout, *metrics, *drainTimeout)
		return
	}

	sp, err := fisql.NewSpiderSystem()
	if err != nil {
		log.Fatalf("build spider corpus: %v", err)
	}
	ae, err := fisql.NewExperiencePlatformSystem()
	if err != nil {
		log.Fatalf("build experience-platform corpus: %v", err)
	}
	for _, sys := range []*fisql.System{sp, ae} {
		sys.FoldFeedback = *ragFold
	}
	if *llmBatch > 0 {
		// Wrap before Observe so the batcher's counters register too. Every
		// consumer of the system's client (assistant, correctors) now batches.
		cfg := llm.BatcherConfig{MaxBatch: *llmBatch, MaxWait: *llmBatchWait,
			MaxConcurrent: *llmBatchConc}
		sp.Client = llm.NewBatcher(sp.Client, cfg)
		ae.Client = llm.NewBatcher(ae.Client, cfg)
	}
	opts := []server.Option{
		server.WithMaxSessions(*maxSessions),
		server.WithSessionTTL(*sessionTTL),
		server.WithMaxBodyBytes(*maxBody),
	}
	if *pubsubRing > 0 {
		opts = append(opts, server.WithPubSubRing(*pubsubRing))
	}
	var m *obs.Metrics
	if *metrics {
		m = obs.NewMetrics()
		// Both corpora report into one registry; duplicate-name sources sum.
		sp.Observe(m.Registry)
		ae.Observe(m.Registry)
		if *clusterNode == "" {
			// In cluster mode the node installs the metrics itself, adding
			// the fisql_cluster_* series.
			opts = append(opts, server.WithMetrics(m))
		}
	}
	if *pprofOn {
		opts = append(opts, server.WithPprof())
	}
	if *askLimit > 0 || *fbLimit > 0 {
		opts = append(opts, server.WithAdmission(server.AdmissionConfig{
			AskConcurrency:      *askLimit,
			FeedbackConcurrency: *fbLimit,
			Queue:               *admissionQueue,
			QueueTimeout:        *queueTimeout,
			RetryAfter:          *retryAfter,
		}))
	}
	var journal *persist.Journal
	if *journalPath != "" {
		policy, err := persist.ParseFsyncPolicy(*journalFsync)
		if err != nil {
			log.Fatalf("-journal-fsync: %v", err)
		}
		journal, err = persist.Open(*journalPath, persist.Options{
			Fsync:           policy,
			CompactMinBytes: *journalCompact,
		})
		if err != nil {
			log.Fatalf("open journal: %v", err)
		}
		if *clusterNode == "" {
			opts = append(opts, server.WithJournal(journal))
		}
	}
	factories := map[string]server.SessionFactory{
		"spider": sysAdapter{sp},
		"aep":    sysAdapter{ae},
	}
	var handler http.Handler
	var h *server.Server
	var replica *persist.Journal
	if *clusterNode != "" {
		// Cluster node: the embedded server journals its own sessions, the
		// replica journal holds follower copies, and /internal/* speaks the
		// inter-node protocol. The router pins clients here by session id.
		if journal == nil {
			log.Fatal("-cluster-node requires -journal: a node without local durability cannot honor promotion")
		}
		members, err := parseMembers(*clusterMembers)
		if err != nil {
			log.Fatalf("-cluster-members: %v", err)
		}
		found := false
		for _, mem := range members {
			found = found || mem.ID == *clusterNode
		}
		if !found {
			log.Fatalf("-cluster-node %q does not appear in -cluster-members", *clusterNode)
		}
		replicaPath := *clusterReplica
		if replicaPath == "" {
			replicaPath = *journalPath + ".replica"
		}
		policy, _ := persist.ParseFsyncPolicy(*journalFsync)
		replica, err = persist.Open(replicaPath, persist.Options{
			Fsync:           policy,
			CompactMinBytes: *journalCompact,
		})
		if err != nil {
			log.Fatalf("open replica journal: %v", err)
		}
		node := cluster.NewNode(cluster.NodeConfig{
			ID:            *clusterNode,
			Members:       members,
			Systems:       factories,
			Journal:       journal,
			Replica:       replica,
			Metrics:       m,
			AuthToken:     *clusterToken,
			ServerOptions: opts,
		})
		handler, h = node, node.Server()
	} else {
		h = server.New(factories, opts...)
		handler = h
	}
	if journal != nil {
		rec := h.Recovery()
		log.Printf("journal %s: recovered %d sessions from %d records in %s (skipped %d, truncated %d torn bytes)",
			*journalPath, rec.Sessions, rec.Records, rec.Duration.Round(time.Millisecond),
			rec.Skipped, rec.TruncatedBytes)
		if rec.CheckpointErr != nil {
			log.Printf("journal %s: post-recovery checkpoint failed: %v (next restart may replay evicted sessions)",
				*journalPath, rec.CheckpointErr)
		}
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("fisql-server listening on http://%s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// Listener failed before any signal (port in use, ...).
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("fisql-server shutting down, draining in-flight requests (up to %s)", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		if journal != nil {
			// Final checkpoint: compact to the live sessions and sync, so
			// the next start replays exactly the surviving state.
			if err := journal.Close(); err != nil {
				log.Printf("close journal: %v", err)
			}
		}
		if replica != nil {
			if err := replica.Close(); err != nil {
				log.Printf("close replica journal: %v", err)
			}
		}
	}
}

// parseMembers decodes the "id=url,id2=url2" -cluster-members form.
func parseMembers(s string) ([]cluster.Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty membership")
	}
	var members []cluster.Member
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad member %q (want id=http://host:port)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate member id %q", id)
		}
		seen[id] = true
		members = append(members, cluster.Member{ID: id, Addr: strings.TrimSuffix(addr, "/")})
	}
	if len(members) < 2 {
		return nil, fmt.Errorf("need at least 2 members, got %d", len(members))
	}
	return members, nil
}

// runRouter serves the cluster router: session-id issuance, rendezvous
// pinning, forwarding, health probing and failover driving. It builds no
// corpora — the nodes own those.
func runRouter(addr, membersSpec, token string, healthInterval, healthTimeout time.Duration,
	metricsOn bool, drainTimeout time.Duration) {
	members, err := parseMembers(membersSpec)
	if err != nil {
		log.Fatalf("-cluster-members: %v", err)
	}
	cfg := cluster.RouterConfig{
		Members:        members,
		HealthInterval: healthInterval,
		HealthTimeout:  healthTimeout,
		AuthToken:      token,
	}
	if metricsOn {
		cfg.Metrics = obs.NewMetrics()
	}
	rt := cluster.NewRouter(cfg)
	srv := &http.Server{Addr: addr, Handler: rt}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("fisql-server router over %d nodes listening on http://%s", len(members), addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("router shutting down, draining in-flight requests (up to %s)", drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		rt.Close()
	}
}
