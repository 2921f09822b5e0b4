// Command bench is the repository's turn-cost benchmark: it builds the
// system, replays a seeded paper-loop script (ask → explanation → feedback
// → repaired query) as a closed loop of fixed work, verifies every answer,
// and prints every metric by name with its unit as one JSON object on the
// last line of standard output. See README.md in this directory.
//
//	bash bench/run.sh --workload paper_loop --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve_hot --trace 1      # per-layer run
//	bash bench/run.sh --workload serve_hot --selfcheck 10 # noise table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a workload is set up per run; setup_s is the
// median. Set-ups of a second or two are repeated because single readings
// of them scatter widely between runs of the same program; scan_heavy's
// takes five seconds (a whole x10 pass) and is a long enough measurement on
// its own.
var setupReps = map[string]int{"paper_loop": 3, "scan_heavy": 1, "serve_hot": 3, "cluster_durable": 3}

func main() {
	workload := flag.String("workload", "", "workload: paper_loop, scan_heavy, serve_hot or cluster_durable")
	seed := flag.Int64("seed", 1, "script seed: the same seed gives the same turns in the same order")
	seconds := flag.Int("seconds", 20, "nominal length of the timed phase; it fixes the pass count, never a timer")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	traceOut := flag.String("trace-out", "", "where the traced run writes its spans (default .bench_build/trace-<workload>.json)")
	selfcheck := flag.Int("selfcheck", 0, "run the workload 2N times as two interleaved sets and report whether they agree")
	flag.Parse()

	spec, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; workloads:\n", *workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	if *seconds < 1 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want -seconds >= 1, -trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(spec, *selfcheck, *seed, *seconds, os.Stdout))
	}
	// Scratch files (journals, the trace) live under .bench_build in the
	// working directory, which is the checkout: nothing is written outside.
	scratch, err := filepath.Abs(".bench_build")
	if err != nil {
		fatal(err)
	}
	dir := filepath.Join(scratch, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	env := &runEnv{seed: *seed, dir: dir}
	var res *result
	if *trace == 1 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(scratch, "trace-"+spec.name+".json")
		}
		res, err = runTraced(spec, env, *seconds, out, os.Stderr)
	} else {
		res, err = runEndToEnd(spec, env, *seconds, os.Stderr)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// setUp builds the workload reps times and returns the last instance with
// the median set-up time. Each repetition is a full set-up — corpora,
// retrieval store, server or cluster, script generation, reference pass,
// warm-up pass — and earlier instances are closed and dropped.
func setUp(spec workloadSpec, env *runEnv, reps int) (instance, float64, error) {
	var inst instance
	var secs []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		t0 := time.Now()
		var err error
		inst, err = spec.setup(env)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up of %s: %w", spec.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, median(secs), nil
}

// runEndToEnd is the untraced run: set-up, the timed phase, the gates.
func runEndToEnd(spec workloadSpec, env *runEnv, seconds int, log io.Writer) (*result, error) {
	ref := newSpeedRef()
	inst, setupS, err := setUp(spec, env, setupReps[spec.name])
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ph := phaseFor(spec, seconds, setupS, ref)
	e := timedPhase(inst, ph)
	if want := ph.passes - ph.passes%ph.block; e.passes < want {
		fmt.Fprintf(log, "timed phase cut short after %d of %d passes: this box is much slower than the reference\n",
			e.passes, want)
	}
	violations := inst.gates()
	var fm *flushModel
	if ci, ok := inst.(*clusterInstance); ok {
		fm = ci.flush
	}
	report(log, spec, inst.script(), e, violations, fm)
	return &result{
		Correct:   e.failed == 0 && len(violations) == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   e.metrics,
	}, nil
}

// report prints the human-readable side of a run: sizes, sample counts,
// tallies, pass times, failures.
func report(w io.Writer, spec workloadSpec, sc *script, e *endToEnd, violations []string, fm *flushModel) {
	fmt.Fprintf(w, "workload %s  go %s  GOMAXPROCS %d\n", spec.name, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "script %016x: %d sessions, %d asks + %d feedback turns per pass\n",
		sc.hash, len(sc.sessions), sc.asks, sc.feedbacks)
	for _, name := range []string{"spider", "aep"} {
		if t := sc.tallies[name]; t != nil {
			fmt.Fprintf(w, "  %-6s one-shot errors %d/%d, annotated %d, corrected by round 1: %d, by round 2: %d\n",
				name, t.OneShotErrors, t.Examples, t.Annotated, t.CorrectedByR1, t.CorrectedByR2)
		}
	}
	ps := sortedCopy(e.passSec)
	fmt.Fprintf(w, "timed phase: %d passes, pass time min %.3fs median %.3fs max %.3fs, total %.1fs\n",
		e.passes, ps[0], median(ps), ps[len(ps)-1], sum(ps))
	fmt.Fprintf(w, "latency percentiles over %d asks and %d feedback turns pooled; attempted %d, failed %d\n",
		len(e.askMs), len(e.fbMs), e.attempted, e.failed)
	fmt.Fprintf(w, "memory speed: the run took %.3f of what it takes at the probe's nominal speed; clock-read metrics are reported at nominal speed, measured values on the right\n", e.speed)
	if fm != nil && fm.n.Load() > 0 {
		n := fm.n.Load()
		fmt.Fprintf(w, "flush model: %d flushes since set-up began, each padded to %v; mean real flush %.0f us; %d (%.2f%%) took longer than the pad on their own, and the %d turns (%.2f%%) in flight during one are left out of the latency percentiles\n",
			n, fm.pad, float64(fm.realN.Load())/float64(n)/1e3, fm.over.Load(), 100*float64(fm.over.Load())/float64(n),
			e.spiked, 100*float64(e.spiked)/float64(max(e.attempted, 1)))
	}
	if e.failure != "" {
		fmt.Fprintf(w, "first failure: %s\n", e.failure)
	}
	for _, v := range violations {
		fmt.Fprintf(w, "gate violated: %s\n", v)
	}
	for _, name := range endToEndNames {
		m := e.metrics[name]
		if raw, ok := e.raw[name]; ok {
			fmt.Fprintf(w, "  %-18s %14.4f %-6s %14.4f\n", name, m.Value, m.Unit, raw)
		} else {
			fmt.Fprintf(w, "  %-18s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}
