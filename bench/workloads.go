package main

import (
	"context"
	"fmt"
	"time"

	"fisql"
	"fisql/internal/assistant"
	"fisql/internal/engine"
)

// workloadSpec names a workload, says why it exists (BENCHMARK.json carries
// the same line) and sizes its timed phase.
type workloadSpec struct {
	name string
	why  string
	// passesPer10s is the number of script passes that take about ten
	// seconds on the reference box (2 vCPU). The timed phase is a fixed
	// number of passes derived from -seconds and this constant — never a
	// timer — so every count repeats exactly from run to run.
	passesPer10s float64
	// probeEvery is how many sessions a single client works through between
	// two samples of the speed probe: about an eighth of a second of work.
	probeEvery int
	// deviceBound marks a workload whose turn is mostly a wait for the
	// (modelled) disk: its wall-clock metrics are reported as measured, not
	// at the speed probe's nominal speed.
	deviceBound bool
	setup       func(env *runEnv) (instance, error)
}

// runEnv is what a set-up receives: the seed, a scratch directory inside
// the checkout for journals, and the tracer (nil on the end-to-end run).
type runEnv struct {
	seed   int64
	dir    string
	tracer *tracer
	// short shrinks the script to a few sessions (harness tests only).
	short bool
}

// sessions is the script size cap buildScript gets: none, or six sessions
// for the harness tests.
func (e *runEnv) sessions() int {
	if e.short {
		return 6
	}
	return 0
}

// instance is one built workload: a system under test plus the script that
// drives it.
type instance interface {
	script() *script
	// pass replays the script once as a closed loop, recording one latency
	// sample per turn and verifying every answer after its clock stopped.
	pass(rec *recorder)
	// clients is the number of closed-loop clients a pass runs side by side.
	clients() int
	// gates runs the workload's end-of-run correctness checks and returns
	// one line per violation.
	gates() []string
	// close releases what set-up opened (servers, journals, files).
	close()
}

// recorder collects one client's samples for the timed phase.
type recorder struct {
	askNs []int64
	fbNs  []int64
	// ref, when set, is sampled every probeEvery calls of between.
	ref        *speedRef
	probeEvery int
	sinceProbe int
	// spiked counts turns left out of the latency samples because the
	// modelled device misbehaved under them (cluster_durable only).
	spiked    int
	attempted int
	failed    int
	failure   string // first failure, for the report
}

func (r *recorder) sample(t *turn, d time.Duration) {
	if t.feedback {
		r.fbNs = append(r.fbNs, int64(d))
	} else {
		r.askNs = append(r.askNs, int64(d))
	}
}

// between is called by a single client after each session, outside every
// stopwatch but the pass's: the place the speed probe runs.
func (r *recorder) between() {
	if r.ref == nil {
		return
	}
	if r.sinceProbe++; r.sinceProbe >= r.probeEvery {
		r.sinceProbe = 0
		r.ref.sample()
	}
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}

func (r *recorder) merge(o *recorder) {
	r.askNs = append(r.askNs, o.askNs...)
	r.fbNs = append(r.fbNs, o.fbNs...)
	r.attempted += o.attempted
	r.spiked += o.spiked
	r.failed += o.failed
	if r.failure == "" {
		r.failure = o.failure
	}
}

var workloads = []workloadSpec{
	{
		name: "paper_loop",
		why: "the paper's own traffic with caches cold: every question and every SQL is a first touch, " +
			"so rag, prompt, llm, core, sqlparse, engine and assistant do all the work",
		passesPer10s: 57,
		probeEvery:   324,
		setup:        setupPaperLoop,
	},
	{
		name: "scan_heavy",
		why: "same questions on SPIDER at 10x rows with plans cached: engine execution is nearly all of the turn, " +
			"parse, plan and retrieval are noise",
		passesPer10s: 3.4,
		probeEvery:   8,
		setup:        setupScanHeavy,
	},
	{
		name: "serve_hot",
		why: "single node driven in-process with memo and plan cache warm: asks are memo hits, " +
			"so server, obs, pubsub and the memo are the turn; feedback still runs core.Correct",
		passesPer10s: 220,
		probeEvery:   1296,
		setup:        setupServeHot,
	},
	{
		name: "cluster_durable",
		why: "router + 3 nodes over loopback HTTP, every record journaled and flushed on owner and follower " +
			"before the ack, 2 clients: the commit path (cluster, persist, net/http) is the turn",
		passesPer10s: 2.9,
		deviceBound:  true,
		setup:        setupClusterDurable,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// buildCorpora builds the named corpora at the given SPIDER row multiplier.
func buildCorpora(spiderRows int, withAEP bool) ([]corpus, error) {
	sp, err := fisql.NewSpiderSystemRows(spiderRows)
	if err != nil {
		return nil, fmt.Errorf("build spider x%d: %w", spiderRows, err)
	}
	out := []corpus{{name: "spider", sys: sp}}
	if withAEP {
		ae, err := fisql.NewExperiencePlatformSystem()
		if err != nil {
			return nil, fmt.Errorf("build aep: %w", err)
		}
		out = append(out, corpus{name: "aep", sys: ae})
	}
	return out, nil
}

// ----------------------------------------------------------------------------
// Library-path workloads: paper_loop and scan_heavy.

// libInstance drives fisql.System.Session → Ask/Feedback directly.
type libInstance struct {
	sc      *script
	corpora map[string]*fisql.System
	// cold replaces every system's memo and plan cache before each pass.
	cold bool
	// keep holds the current pass's sessions so they are live when the
	// heap is measured; the next pass drops them.
	keep []*fisql.Session
	// expected, when set, is what the script's tallies must equal.
	expected map[string]tally
	tracer   *tracer
	// requireColumnar gates the run on the columnar counters: hits must
	// have grown and fallbacks must not have since the end of set-up
	// (colHits0, colFalls0).
	requireColumnar bool
	colHits0        int64
	colFalls0       int64
}

func (li *libInstance) script() *script { return li.sc }

func (li *libInstance) pass(rec *recorder) {
	ctx := context.Background()
	if li.cold {
		for _, sys := range li.corpora {
			sys.Memo = assistant.NewAnswerMemo(0)
			sys.Cache = engine.NewCache(0)
		}
	}
	for i := range li.keep {
		li.keep[i] = nil
	}
	li.keep = li.keep[:0]
	for si := range li.sc.sessions {
		ss := &li.sc.sessions[si]
		sess := li.tracer.session(li.corpora[ss.corpus].Session(ss.db, sessionOpts))
		li.keep = append(li.keep, sess)
		for ti := range ss.turns {
			t := &ss.turns[ti]
			var ans *fisql.Answer
			var err error
			t0 := time.Now()
			sp := li.tracer.beginLibTurn(t.feedback)
			if t.feedback {
				ans, err = sess.Feedback(ctx, t.text, t.hl)
			} else {
				ans, err = sess.Ask(ctx, t.question)
			}
			li.tracer.endLibTurn(sp)
			d := time.Since(t0)
			rec.sample(t, d)
			rec.attempted++
			switch {
			case err != nil:
				rec.fail("session %d turn %d: %v", si, ti, err)
			case ans.SQL != t.sql:
				rec.fail("session %d turn %d: sql %q, script has %q", si, ti, ans.SQL, t.sql)
			case hashAnswer(ans) != t.rows:
				rec.fail("session %d turn %d: result rows differ from the script's", si, ti)
			}
		}
		rec.between()
	}
}

func (li *libInstance) clients() int { return 1 }

func (li *libInstance) columnar() (hits, falls int64) {
	for _, sys := range li.corpora {
		for _, db := range sys.DS.DBs {
			h, f := db.ColumnarStats()
			hits += h
			falls += f
		}
	}
	return hits, falls
}

func (li *libInstance) gates() []string {
	var out []string
	for name, want := range li.expected {
		got := li.sc.tallies[name]
		if got == nil || *got != want {
			out = append(out, fmt.Sprintf("%s tallies %+v differ from expected.json %+v", name, got, want))
		}
	}
	if li.requireColumnar {
		h, f := li.columnar()
		if h-li.colHits0 <= 0 {
			out = append(out, "scan_heavy: the columnar path served no query in the timed phase")
		}
		if f-li.colFalls0 != 0 {
			out = append(out, fmt.Sprintf("scan_heavy: %d columnar fallbacks (want 0)", f-li.colFalls0))
		}
	}
	return out
}

func (li *libInstance) close() {}

func setupPaperLoop(env *runEnv) (instance, error) {
	corpora, err := buildCorpora(1, true)
	if err != nil {
		return nil, err
	}
	sc, err := buildScript(corpora, env.seed, env.sessions())
	if err != nil {
		return nil, err
	}
	li := &libInstance{sc: sc, cold: true, corpora: map[string]*fisql.System{}, tracer: env.tracer}
	for _, c := range corpora {
		li.corpora[c.name] = c.sys
	}
	env.tracer.instrument(li.corpora)
	if !env.short {
		// Only the whole loop carries the paper's tallies.
		li.expected, err = loadExpected()
		if err != nil {
			return nil, err
		}
	}
	// Warm-up pass: grows the heap and fills the per-database scan caches
	// (data caches, not query caches) so the first timed pass is like the
	// rest.
	if err := warm(li); err != nil {
		return nil, err
	}
	return li, nil
}

// scanRows is scan_heavy's row multiplier. At x100 a single pass does not
// finish in ten minutes on the reference box; x10 gives ~3 ms per turn.
const scanRows = 10

func setupScanHeavy(env *runEnv) (instance, error) {
	// The script's structure (which answers get feedback, and what the
	// repaired SQL is) comes from the standard corpus: SQL and feedback
	// text do not depend on the row count. The expected row hashes are
	// then retaken at x10 by a reference pass.
	base, err := buildCorpora(1, false)
	if err != nil {
		return nil, err
	}
	sc, err := buildScript(base, env.seed, env.sessions())
	if err != nil {
		return nil, err
	}
	big, err := buildCorpora(scanRows, false)
	if err != nil {
		return nil, err
	}
	sys := big[0].sys
	sys.Memo = nil
	li := &libInstance{sc: sc, corpora: map[string]*fisql.System{"spider": sys},
		requireColumnar: true, tracer: env.tracer}
	env.tracer.instrument(li.corpora)
	if err := li.rehash(); err != nil {
		return nil, err
	}
	sc.hash = sc.computeHash()
	li.colHits0, li.colFalls0 = li.columnar()
	return li, nil
}

// rehash replays the script once and replaces each turn's expected row
// hash with what this instance's system answers; the SQL must already
// agree. It doubles as the warm-up pass (plan cache, columnar caches).
func (li *libInstance) rehash() error {
	ctx := context.Background()
	for si := range li.sc.sessions {
		ss := &li.sc.sessions[si]
		sess := li.corpora[ss.corpus].Session(ss.db, sessionOpts)
		for ti := range ss.turns {
			t := &ss.turns[ti]
			var ans *fisql.Answer
			var err error
			if t.feedback {
				ans, err = sess.Feedback(ctx, t.text, t.hl)
			} else {
				ans, err = sess.Ask(ctx, t.question)
			}
			if err != nil {
				return fmt.Errorf("reference pass: session %d turn %d: %w", si, ti, err)
			}
			if ans.SQL != t.sql {
				return fmt.Errorf("reference pass: session %d turn %d: sql %q, script has %q", si, ti, ans.SQL, t.sql)
			}
			t.rows = hashAnswer(ans)
		}
	}
	return nil
}
