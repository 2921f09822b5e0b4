// Command fisql-eval regenerates the paper's experiments: Figure 2
// (zero-shot accuracy), the §4.1 error-collection statistics, Table 2
// (feedback correction), Figure 8 (multi-round correction), and Table 3
// (highlight grounding).
//
// Usage:
//
//	fisql-eval -exp all
//	fisql-eval -exp table2
//	fisql-eval -exp figure8 -rounds 3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"fisql"
	"fisql/internal/eval"
	"fisql/internal/obs"
)

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "experiment: figure2, errors, table2, figure8, table3, analysis, router, breakdown, cost, all")
	rounds := flag.Int("rounds", 2, "feedback rounds for figure8")
	workers := flag.Int("workers", 0, "evaluation worker goroutines (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
	jsonOut := flag.String("json", "", "also write machine-readable results to this file ('-' for stdout)")
	metrics := flag.Bool("metrics", false,
		"collect per-stage latency histograms across all experiments and print the summary")
	rows := flag.Int("rows", 1,
		"row-count multiplier: scale every database to N times its base rows (questions and gold SQL are unchanged and runs stay deterministic; execution-match accuracy can shift slightly because results are computed over the scaled data)")
	requireColumnar := flag.Bool("require-columnar", false,
		"fail unless the engine's vectorized columnar path served queries and none fell back to the row executor (CI guard)")
	flag.Parse()

	if *rows < 1 {
		log.Fatal("-rows must be >= 1")
	}
	sp, err := fisql.NewSpiderSystemRows(*rows)
	if err != nil {
		log.Fatalf("build spider corpus: %v", err)
	}
	ae, err := fisql.NewExperiencePlatformSystemRows(*rows)
	if err != nil {
		log.Fatalf("build experience-platform corpus: %v", err)
	}
	r := runner{sp: sp, ae: ae, ctx: context.Background(), export: eval.NewExport(), workers: *workers}
	if *metrics {
		r.obs = obs.NewMetrics()
	}

	switch *exp {
	case "figure2":
		r.figure2()
	case "errors":
		r.errors()
	case "table2":
		r.table2()
	case "figure8":
		r.figure8(*rounds)
	case "table3":
		r.table3()
	case "analysis":
		r.analysis()
	case "router":
		r.router()
	case "breakdown":
		r.breakdown()
	case "cost":
		r.cost()
	case "all":
		r.figure2()
		fmt.Println()
		r.errors()
		fmt.Println()
		r.table2()
		fmt.Println()
		r.figure8(*rounds)
		fmt.Println()
		r.table3()
		fmt.Println()
		r.analysis()
		fmt.Println()
		r.router()
		fmt.Println()
		r.breakdown()
		fmt.Println()
		r.cost()
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}

	if r.obs != nil {
		fmt.Println()
		fmt.Println("Pipeline stage timings (aggregate across experiments)")
		r.obs.WriteStageSummary(os.Stdout)
	}

	if *requireColumnar {
		var hits, falls int64
		for _, sys := range []*fisql.System{sp, ae} {
			for _, db := range sys.DS.DBs {
				h, f := db.ColumnarStats()
				hits += h
				falls += f
			}
		}
		fmt.Printf("\ncolumnar execution: %d hits, %d fallbacks\n", hits, falls)
		if hits == 0 || falls != 0 {
			log.Fatalf("-require-columnar: want columnar hits and no fallback, got %d hits, %d fallbacks", hits, falls)
		}
	}

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := r.export.Write(out); err != nil {
			log.Fatal(err)
		}
	}
}

type runner struct {
	sp, ae  *fisql.System
	ctx     context.Context
	export  *eval.Export
	workers int
	// obs aggregates per-stage latency histograms across every experiment
	// the run executes; nil (the default) disables tracing entirely.
	obs *obs.Metrics

	spErrs, aeErrs []eval.GenResult
}

func (r *runner) mustGenerate(sys *fisql.System, k int) ([]eval.GenResult, eval.Accuracy) {
	res, acc, err := eval.RunGenerationOpts(r.ctx, sys.Client, sys.DS, k,
		eval.RunOptions{Workers: r.workers, Obs: r.obs, Store: sys.Store})
	if err != nil {
		log.Fatalf("generation: %v", err)
	}
	return res, acc
}

func (r *runner) ensureErrors() {
	if r.spErrs == nil {
		res, _ := r.mustGenerate(r.sp, r.sp.K)
		r.spErrs = eval.Errors(res)
	}
	if r.aeErrs == nil {
		res, _ := r.mustGenerate(r.ae, r.ae.K)
		r.aeErrs = eval.Errors(res)
	}
}

func (r *runner) correct(sys *fisql.System, method fisql.Corrector, errs []eval.GenResult, rounds int, hl bool) eval.CorrectionResult {
	out, err := eval.RunCorrection(r.ctx, method, sys.DS, errs,
		eval.CorrectionOptions{Rounds: rounds, Highlights: hl, Workers: r.workers, Obs: r.obs})
	if err != nil {
		log.Fatalf("correction: %v", err)
	}
	r.export.AddCorrection(sys.DS.Name, out)
	return out
}

func (r *runner) figure2() {
	_, spAcc := r.mustGenerate(r.sp, 0)
	_, aeAcc := r.mustGenerate(r.ae, 0)
	r.export.Figure2["spider"] = eval.AccJSON(spAcc)
	r.export.Figure2["experience_platform"] = eval.AccJSON(aeAcc)
	eval.PrintFigure2(os.Stdout, spAcc, aeAcc)
}

func (r *runner) errors() {
	spRes, spAcc := r.mustGenerate(r.sp, r.sp.K)
	r.spErrs = eval.Errors(spRes)
	annotated := 0
	for _, e := range r.spErrs {
		if e.Example.Annotatable {
			annotated++
		}
	}
	r.export.Errors["spider"] = eval.ErrorStatsJSON{
		OneShotAccuracy: eval.AccJSON(spAcc), Errors: len(r.spErrs), Annotated: annotated,
	}
	eval.PrintSection41(os.Stdout, "SPIDER", spAcc, len(r.spErrs), annotated)
	fmt.Println()
	aeRes, aeAcc := r.mustGenerate(r.ae, r.ae.K)
	r.aeErrs = eval.Errors(aeRes)
	annotated = 0
	for _, e := range r.aeErrs {
		if e.Example.Annotatable {
			annotated++
		}
	}
	r.export.Errors["experience_platform"] = eval.ErrorStatsJSON{
		OneShotAccuracy: eval.AccJSON(aeAcc), Errors: len(r.aeErrs), Annotated: annotated,
	}
	eval.PrintSection41(os.Stdout, "Experience Platform", aeAcc, len(r.aeErrs), annotated)
}

func (r *runner) table2() {
	r.ensureErrors()
	qrAEP := r.correct(r.ae, r.ae.QueryRewrite(), r.aeErrs, 1, false)
	qrSP := r.correct(r.sp, r.sp.QueryRewrite(), r.spErrs, 1, false)
	nrSP := r.correct(r.sp, r.sp.FISQL(fisql.Options{Routing: false}), r.spErrs, 1, false)
	fAEP := r.correct(r.ae, r.ae.FISQL(fisql.Options{Routing: true}), r.aeErrs, 1, false)
	fSP := r.correct(r.sp, r.sp.FISQL(fisql.Options{Routing: true}), r.spErrs, 1, false)
	eval.PrintTable2(os.Stdout, "Table 2 — % instances corrected with natural-language feedback", []eval.Table2Row{
		{Method: "Query Rewrite", AEP: qrAEP.Pct(1), Spider: qrSP.Pct(1)},
		{Method: "FISQL (- Routing)", AEP: -1, Spider: nrSP.Pct(1)},
		{Method: "FISQL", AEP: fAEP.Pct(1), Spider: fSP.Pct(1)},
	})
}

func (r *runner) figure8(rounds int) {
	r.ensureErrors()
	f := r.correct(r.sp, r.sp.FISQL(fisql.Options{Routing: true}), r.spErrs, rounds, false)
	n := r.correct(r.sp, r.sp.FISQL(fisql.Options{Routing: false}), r.spErrs, rounds, false)
	eval.PrintFigure8(os.Stdout, []eval.CorrectionResult{f, n})
}

func (r *runner) analysis() {
	r.ensureErrors()
	a, err := eval.AnalyzeCorrection(r.ctx, r.sp.FISQL(fisql.Options{Routing: true}), r.sp.DS, r.spErrs)
	if err != nil {
		log.Fatalf("analysis: %v", err)
	}
	eval.PrintAnalysis(os.Stdout, a)
	fmt.Println()
	a, err = eval.AnalyzeCorrection(r.ctx, r.ae.FISQL(fisql.Options{Routing: true}), r.ae.DS, r.aeErrs)
	if err != nil {
		log.Fatalf("analysis: %v", err)
	}
	eval.PrintAnalysis(os.Stdout, a)
}

func (r *runner) router() {
	eval.PrintRouterReport(os.Stdout, "few-shot router", eval.RunRouterReport(r.sp.DS, eval.ClassifierRouted))
	fmt.Println()
	eval.PrintRouterReport(os.Stdout, "naive keyword heuristic", eval.RunRouterReport(r.sp.DS, eval.ClassifierNaive))
}

func (r *runner) breakdown() {
	r.ensureErrors()
	b, err := eval.RunKindBreakdown(r.ctx, r.sp.FISQL(fisql.Options{Routing: true}), r.sp.DS, r.spErrs)
	if err != nil {
		log.Fatalf("breakdown: %v", err)
	}
	eval.PrintKindBreakdown(os.Stdout, b)
}

func (r *runner) cost() {
	r.ensureErrors()
	var costs []eval.Cost
	builders := []func(c fisql.Client) fisql.Corrector{
		func(c fisql.Client) fisql.Corrector {
			return &fisql.QueryRewrite{Client: c, DS: r.sp.DS, Store: r.sp.Store, K: r.sp.K}
		},
		func(c fisql.Client) fisql.Corrector {
			return &fisql.FISQL{Client: c, DS: r.sp.DS, Store: r.sp.Store, K: r.sp.K}
		},
		func(c fisql.Client) fisql.Corrector {
			return &fisql.FISQL{Client: c, DS: r.sp.DS, Store: r.sp.Store, K: r.sp.K, Routing: true}
		},
	}
	for _, build := range builders {
		cost, _, err := eval.MeasureCost(r.ctx, r.sp.Client, r.sp.DS, r.spErrs, build)
		if err != nil {
			log.Fatalf("cost: %v", err)
		}
		costs = append(costs, cost)
	}
	eval.PrintCosts(os.Stdout, costs)
}

func (r *runner) table3() {
	r.ensureErrors()
	fAEP := r.correct(r.ae, r.ae.FISQL(fisql.Options{Routing: true}), r.aeErrs, 1, false)
	fSP := r.correct(r.sp, r.sp.FISQL(fisql.Options{Routing: true}), r.spErrs, 1, false)
	hAEP := r.correct(r.ae, r.ae.FISQL(fisql.Options{Routing: true, Highlights: true}), r.aeErrs, 1, true)
	hSP := r.correct(r.sp, r.sp.FISQL(fisql.Options{Routing: true, Highlights: true}), r.spErrs, 1, true)
	eval.PrintTable2(os.Stdout, "Table 3 — % instances corrected with highlights", []eval.Table2Row{
		{Method: "FISQL", AEP: fAEP.Pct(1), Spider: fSP.Pct(1)},
		{Method: "FISQL (+ Highlighting)", AEP: hAEP.Pct(1), Spider: hSP.Pct(1)},
	})
}
