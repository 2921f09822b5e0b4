// Command fisql-loadgen drives the REST server with concurrent mixed
// session traffic and reports throughput and latency percentiles, so
// serving-path changes have a measured trajectory.
//
// Each of -sessions workers owns one server session and loops over a
// weighted ask/feedback/history mix (-mix) until -duration elapses.
// Questions are drawn deterministically (-seed) from the corpus's own
// examples, so runs are comparable across machines and revisions.
//
// By default the target server is built in-process and served over a
// loopback listener (the whole stack, HTTP included, is measured without
// needing a separate process). Pass -addr to aim at a live fisql-server
// instead — e.g. a pre-change binary for paired A/B runs.
//
// With -metrics (the default) the in-process server runs with observability
// enabled; after the run the generator scrapes /v1/metrics, verifies both
// the JSON and Prometheus forms are well-formed, and folds the per-stage
// latency breakdown and cache counters into the report. Against -addr the
// scrape is attempted and skipped with a warning if the target was started
// without -metrics.
//
//	fisql-loadgen -corpus aep -sessions 32 -duration 5s
//	fisql-loadgen -addr 127.0.0.1:8321 -corpus spider -mix 6:2:2 -json out.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fisql"
	"fisql/internal/obs"
	"fisql/internal/server"
)

type sysAdapter struct{ *fisql.System }

func (a sysAdapter) NewSession(db string) *fisql.Session {
	return a.Session(db, fisql.Options{Routing: true, Highlights: true})
}

// feedbackTexts is the pool of generic feedback lines workers send; the
// pipeline handles arbitrary text, these just exercise the repair path.
var feedbackTexts = []string{
	"we are in 2024",
	"only show the top 5",
	"sort the results by the first column",
	"remove the limit",
	"count them instead",
}

type opKind int

const (
	opAsk opKind = iota
	opFeedback
	opHistory
	numOps
)

type workerStats struct {
	latencies []time.Duration
	opCounts  [numOps]int64
	errors    int64
}

type report struct {
	Corpus   string  `json:"corpus"`
	Sessions int     `json:"sessions"`
	Duration string  `json:"duration"`
	Mix      string  `json:"mix"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	RPS      float64 `json:"rps"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
	Maxms    float64 `json:"max_ms"`
	Asks     int64   `json:"asks"`
	Feedback int64   `json:"feedback"`
	History  int64   `json:"history"`
	// Stages and Counters come from the target's /v1/metrics scrape; empty
	// when metrics are disabled or the target does not expose them.
	Stages   []stageJSON      `json:"stages,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// stageJSON is one pipeline stage's server-side latency summary.
type stageJSON struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

func main() {
	log.SetFlags(0)
	corpus := flag.String("corpus", "aep", "corpus to drive: aep or spider")
	ragFold := flag.Bool("rag-fold", false,
		"fold successful feedback corrections back into the in-process server's retrieval store")
	sessions := flag.Int("sessions", 32, "concurrent sessions (one worker each)")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	mix := flag.String("mix", "5:3:2", "ask:feedback:history request weights")
	addr := flag.String("addr", "", "target a live fisql-server (host:port); empty runs one in-process")
	seed := flag.Int64("seed", 1, "question-selection seed")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file (- for stdout)")
	metricsOn := flag.Bool("metrics", true,
		"enable server metrics (in-process) and report the per-stage breakdown")
	flag.Parse()

	weights, err := parseMix(*mix)
	if err != nil {
		log.Fatal(err)
	}

	// The corpus is built locally even in -addr mode: it is deterministic,
	// and it supplies the question pool for the workers.
	var sys *fisql.System
	switch *corpus {
	case "aep":
		sys, err = fisql.NewExperiencePlatformSystem()
	case "spider":
		sys, err = fisql.NewSpiderSystem()
	default:
		log.Fatalf("unknown corpus %q (want aep or spider)", *corpus)
	}
	if err != nil {
		log.Fatalf("build corpus: %v", err)
	}
	sys.FoldFeedback = *ragFold
	questionsByDB := map[string][]string{}
	for _, e := range sys.DS.Examples {
		questionsByDB[e.DB] = append(questionsByDB[e.DB], e.Question)
	}
	dbs := sys.Databases()

	base := "http://" + *addr
	inProcess := *addr == ""
	if inProcess {
		var opts []server.Option
		if *metricsOn {
			m := obs.NewMetrics()
			sys.Observe(m.Registry)
			opts = append(opts, server.WithMetrics(m))
		}
		ts := httptest.NewServer(server.New(map[string]server.SessionFactory{
			*corpus: sysAdapter{sys},
		}, opts...))
		defer ts.Close()
		base = ts.URL
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *sessions * 2,
		MaxIdleConnsPerHost: *sessions * 2,
	}}

	stats := make([]workerStats, *sessions)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			db := dbs[w%len(dbs)]
			questions := questionsByDB[db]
			if len(questions) == 0 {
				return
			}
			st := &stats[w]
			sid, err := createSession(client, base, *corpus, db)
			if err != nil {
				st.errors++
				return
			}
			sessURL := base + "/v1/sessions/" + sid
			asked := false
			for time.Now().Before(deadline) {
				op := pickOp(rng, weights)
				// Feedback and history need a query/turns to be meaningful;
				// the first request of every session is always an ask.
				if !asked {
					op = opAsk
				}
				var reqErr error
				t0 := time.Now()
				switch op {
				case opAsk:
					q := questions[rng.Intn(len(questions))]
					reqErr = post(client, sessURL+"/ask", map[string]string{"question": q})
					if reqErr == nil {
						asked = true
					}
				case opFeedback:
					fb := feedbackTexts[rng.Intn(len(feedbackTexts))]
					reqErr = post(client, sessURL+"/feedback", map[string]string{"text": fb})
				case opHistory:
					reqErr = get(client, sessURL+"/history")
				}
				st.latencies = append(st.latencies, time.Since(t0))
				st.opCounts[op]++
				if reqErr != nil {
					st.errors++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge and summarize.
	var all []time.Duration
	rep := report{Corpus: *corpus, Sessions: *sessions, Duration: duration.String(), Mix: *mix}
	for i := range stats {
		all = append(all, stats[i].latencies...)
		rep.Errors += stats[i].errors
		rep.Asks += stats[i].opCounts[opAsk]
		rep.Feedback += stats[i].opCounts[opFeedback]
		rep.History += stats[i].opCounts[opHistory]
	}
	rep.Requests = int64(len(all))
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.RPS = float64(len(all)) / elapsed.Seconds()
	rep.P50ms = ms(percentile(all, 50))
	rep.P95ms = ms(percentile(all, 95))
	rep.P99ms = ms(percentile(all, 99))
	if len(all) > 0 {
		rep.Maxms = ms(all[len(all)-1])
	}

	if *metricsOn {
		scrapeMetrics(client, base, inProcess, &rep)
	}

	fmt.Printf("fisql-loadgen: corpus=%s sessions=%d duration=%s mix=%s target=%s\n",
		rep.Corpus, rep.Sessions, rep.Duration, rep.Mix, targetName(*addr))
	fmt.Printf("requests=%d (ask=%d feedback=%d history=%d) errors=%d\n",
		rep.Requests, rep.Asks, rep.Feedback, rep.History, rep.Errors)
	fmt.Printf("rps=%.1f latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		rep.RPS, rep.P50ms, rep.P95ms, rep.P99ms, rep.Maxms)
	printStageBreakdown(&rep)

	if *jsonOut != "" {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		buf = append(buf, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

func targetName(addr string) string {
	if addr == "" {
		return "in-process"
	}
	return addr
}

// scrapeMetrics pulls /v1/metrics in both forms, checks they are
// well-formed, and folds the per-stage histograms and the cache counters
// into the report. Malformed output from the in-process server is a bug in
// this repo and fatal; a -addr target may simply run without -metrics, so
// absence there only warns.
func scrapeMetrics(client *http.Client, base string, inProcess bool, rep *report) {
	fail := func(format string, args ...any) {
		if inProcess {
			log.Fatalf("metrics scrape: "+format, args...)
		}
		log.Printf("warning: metrics scrape skipped: "+format, args...)
	}
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		fail("%v", err)
		return
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		fail("status %d (target started without -metrics?)", resp.StatusCode)
		return
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		fail("JSON body did not decode: %v", err)
		return
	}
	if len(snap.Histograms) == 0 {
		fail("snapshot has no histograms")
		return
	}
	for name, h := range snap.Histograms {
		if h.Count < 0 || len(h.Buckets) == 0 {
			fail("histogram %s malformed: count=%d buckets=%d", name, h.Count, len(h.Buckets))
			return
		}
		if last := h.Buckets[len(h.Buckets)-1]; last.LE != "+Inf" || last.Count != h.Count {
			fail("histogram %s: last bucket %s=%d, want +Inf=%d", name, last.LE, last.Count, h.Count)
			return
		}
	}

	// The Prometheus text form must expose the same families.
	presp, err := client.Get(base + "/v1/metrics?format=prometheus")
	if err != nil {
		fail("prometheus form: %v", err)
		return
	}
	defer drain(presp)
	ptext, err := io.ReadAll(presp.Body)
	if err != nil || presp.StatusCode != http.StatusOK {
		fail("prometheus form: status %d err %v", presp.StatusCode, err)
		return
	}
	for _, want := range []string{"# TYPE ", "_bucket{le=\"+Inf\"}", "_count"} {
		if !strings.Contains(string(ptext), want) {
			fail("prometheus text missing %q", want)
			return
		}
	}

	var stageNames []string
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "fisql_stage_") {
			stageNames = append(stageNames, name)
		}
	}
	sort.Strings(stageNames)
	for _, name := range stageNames {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(name, "fisql_stage_"), "_seconds")
		rep.Stages = append(rep.Stages, stageJSON{
			Stage: stage, Count: h.Count, P50ms: h.P50ms, P95ms: h.P95ms, P99ms: h.P99ms,
		})
	}
	rep.Counters = snap.Counters
}

// printStageBreakdown renders the scraped per-stage summary under the
// client-side numbers.
func printStageBreakdown(rep *report) {
	if len(rep.Stages) == 0 {
		return
	}
	fmt.Println("server-side stage breakdown:")
	fmt.Printf("  %-10s %10s %10s %10s %10s\n", "stage", "count", "p50_ms", "p95_ms", "p99_ms")
	for _, s := range rep.Stages {
		fmt.Printf("  %-10s %10d %10.3f %10.3f %10.3f\n", s.Stage, s.Count, s.P50ms, s.P95ms, s.P99ms)
	}
	var names []string
	for name := range rep.Counters {
		if strings.Contains(name, "_cache_") || strings.Contains(name, "_memo_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %s=%d\n", name, rep.Counters[name])
	}
}

func parseMix(s string) ([numOps]int, error) {
	var w [numOps]int
	parts := strings.Split(s, ":")
	if len(parts) != int(numOps) {
		return w, fmt.Errorf("bad -mix %q: want ask:feedback:history", s)
	}
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return w, fmt.Errorf("bad -mix weight %q", p)
		}
		w[i] = n
		total += n
	}
	if total == 0 {
		return w, fmt.Errorf("bad -mix %q: all weights zero", s)
	}
	return w, nil
}

func pickOp(rng *rand.Rand, w [numOps]int) opKind {
	total := 0
	for _, n := range w {
		total += n
	}
	r := rng.Intn(total)
	for op, n := range w {
		if r < n {
			return opKind(op)
		}
		r -= n
	}
	return opAsk
}

func createSession(client *http.Client, base, corpus, db string) (string, error) {
	body, _ := json.Marshal(map[string]string{"corpus": corpus, "db": db})
	resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("create session: status %d", resp.StatusCode)
	}
	var out struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.SessionID == "" {
		return "", fmt.Errorf("create session: bad body (%v)", err)
	}
	return out.SessionID, nil
}

func post(client *http.Client, url string, payload map[string]string) error {
	body, _ := json.Marshal(payload)
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return nil
}

func get(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return nil
}

// drain consumes the body so the transport can reuse the connection.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
