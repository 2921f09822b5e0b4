// Package eval is the evaluation harness: execution-accuracy measurement,
// the Assistant error-collection protocol of §4.1, and the multi-round
// feedback-correction protocol behind Tables 2-3 and Figure 8.
package eval

import (
	"context"
	"fmt"
	"sort"

	"fisql/internal/assistant"
	"fisql/internal/core"
	"fisql/internal/dataset"
	"fisql/internal/engine"
	"fisql/internal/feedback"
	"fisql/internal/llm"
	"fisql/internal/obs"
	"fisql/internal/rag"
	"fisql/internal/schema"
)

// Accuracy is a correct/total tally.
type Accuracy struct {
	Correct, Total int
}

// Pct returns the percentage (0 for an empty tally).
func (a Accuracy) Pct() float64 {
	if a.Total == 0 {
		return 0
	}
	return 100 * float64(a.Correct) / float64(a.Total)
}

func (a Accuracy) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%)", a.Correct, a.Total, a.Pct())
}

// planCache is shared by every run in the process: correction experiments
// re-execute the same gold and candidate queries across rounds and methods,
// so each distinct (database, SQL) pair is parsed and planned exactly once.
// Plans are immutable and executed on per-call Executors, so concurrent
// workers can share entries freely.
var planCache = engine.NewCache(0)

// Match reports execution-accuracy: both queries run and produce equal
// results. A prediction that fails to parse or execute is wrong.
func Match(db *engine.Database, goldSQL, predSQL string) bool {
	gold, err := planCache.Query(db, goldSQL)
	if err != nil {
		return false
	}
	pred, err := planCache.Query(db, predSQL)
	if err != nil {
		return false
	}
	return engine.EqualResults(gold, pred)
}

// GenResult is one example's generation outcome.
type GenResult struct {
	Example *dataset.Example
	SQL     string
	Correct bool
}

// RunOptions configures how an evaluation run executes. The zero value
// shards examples across runtime.GOMAXPROCS(0) workers.
type RunOptions struct {
	// Workers bounds the worker pool that shards examples across
	// goroutines; 0 means runtime.GOMAXPROCS(0) and 1 forces the serial
	// path. Every value produces byte-identical, identically ordered
	// results and identical accuracy tallies — examples are independent
	// and the whole substrate (llm.Sim, rag.Store, schema, engine) is
	// deterministic and safe for concurrent reads.
	Workers int
	// Obs, when non-nil, records a per-example trace into its per-stage
	// latency histograms (retrieve/prompt/llm/plan/execute). Histograms are
	// atomic, so concurrent workers fold observations in without locking.
	Obs *obs.Metrics
	// Store overrides the retrieval store used for demonstration selection
	// (for example one grown by folded feedback); nil builds a store over
	// ds.Demos. Ignored when k == 0 — zero-shot runs retrieve nothing.
	Store *rag.Store
}

// RunGeneration evaluates the NL2SQL pipeline over the whole corpus with k
// retrieved demonstrations (k=0 reproduces the zero-shot setting of
// Figure 2; k>0 the Assistant pipeline of §4.1). It runs with default
// RunOptions; use RunGenerationOpts to bound the worker pool.
func RunGeneration(ctx context.Context, client llm.Client, ds *dataset.Dataset, k int) ([]GenResult, Accuracy, error) {
	return RunGenerationOpts(ctx, client, ds, k, RunOptions{})
}

// RunGenerationOpts is RunGeneration with an explicit worker-pool bound.
// The Client must be safe for concurrent use when opt.Workers != 1
// (llm.Sim and Metered are).
func RunGenerationOpts(ctx context.Context, client llm.Client, ds *dataset.Dataset, k int, opt RunOptions) ([]GenResult, Accuracy, error) {
	var store *rag.Store
	if k > 0 {
		store = opt.Store
		if store == nil {
			store = rag.NewStore(ds.Demos)
		}
	}
	asst := &assistant.Assistant{Client: client, DS: ds, Store: store, K: k, Cache: planCache}
	results := make([]GenResult, len(ds.Examples))
	gold := newGoldCache()
	err := forEach(len(ds.Examples), opt.Workers, func(i int) error {
		e := ds.Examples[i]
		tr := opt.Obs.StartTrace()
		defer tr.Finish()
		ctx := obs.WithTrace(ctx, tr)
		sql, err := asst.GenerateSQL(ctx, e.DB, e.Question)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		results[i] = GenResult{Example: e, SQL: sql, Correct: gold.match(ds.DBs[e.DB], e, sql)}
		return nil
	})
	if err != nil {
		return nil, Accuracy{}, err
	}
	acc := Accuracy{Total: len(ds.Examples)}
	for _, r := range results {
		if r.Correct {
			acc.Correct++
		}
	}
	return results, acc, nil
}

// Errors filters generation results down to the failures — the §4.1 error
// sets that feedback correction is evaluated on.
func Errors(results []GenResult) []GenResult {
	var out []GenResult
	for _, r := range results {
		if !r.Correct {
			out = append(out, r)
		}
	}
	return out
}

// NewAnnotator builds the simulated annotator for a corpus, rendering
// column and table names with the schemas' NL phrases. Schemas are
// consulted in sorted name order: map iteration order varies call to call,
// which would make phrase choice — and thus feedback text — nondeterministic
// whenever more than one schema can render a name.
func NewAnnotator(ds *dataset.Dataset) *feedback.Annotator {
	names := make([]string, 0, len(ds.Schemas))
	for name := range ds.Schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	schemas := make([]*schema.Schema, len(names))
	for i, name := range names {
		schemas[i] = ds.Schemas[name]
	}
	return &feedback.Annotator{
		ColumnPhrase: func(table, column string) string {
			lookup := func(s *schema.Schema) string {
				for ti := range s.Tables {
					t := &s.Tables[ti]
					if table != "" && t.Name != table {
						continue
					}
					if c := t.Column(column); c != nil && len(c.NL) > 0 {
						return c.NL[0]
					}
				}
				return ""
			}
			for _, s := range schemas {
				if p := lookup(s); p != "" {
					return p
				}
			}
			return ""
		},
		TablePhrase: func(table string) string {
			for _, s := range schemas {
				if t := s.Table(table); t != nil {
					return t.Phrase()
				}
			}
			return ""
		},
	}
}

// CorrectionResult reports a method's multi-round correction outcome.
type CorrectionResult struct {
	Method string
	// N is the number of errors with annotatable feedback (the paper's
	// denominators: 101 for SPIDER, 53 for Experience Platform).
	N int
	// CumCorrected[r-1] is the number of instances corrected by the end
	// of round r.
	CumCorrected []int
	// Skipped counts errors the annotator could not express feedback for.
	Skipped int
}

// Pct returns the % instances corrected by the end of round r (1-based).
func (c CorrectionResult) Pct(round int) float64 {
	if c.N == 0 || round < 1 || round > len(c.CumCorrected) {
		return 0
	}
	return 100 * float64(c.CumCorrected[round-1]) / float64(c.N)
}

// CorrectionOptions configures the protocol.
type CorrectionOptions struct {
	// Rounds is the number of feedback rounds (the paper uses 1 for
	// Tables 2-3 and 2 for Figure 8).
	Rounds int
	// Highlights lets the annotator attach highlight spans (Table 3).
	Highlights bool
	// Workers bounds the worker pool that shards error instances across
	// goroutines; 0 means runtime.GOMAXPROCS(0) and 1 forces the serial
	// path. Tallies are identical for every value. The Corrector must be
	// safe for concurrent use when Workers != 1 (core.FISQL and
	// core.QueryRewrite are: they hold only read-only configuration).
	Workers int
	// Obs, when non-nil, records a per-instance trace of the correction
	// path (route/retrieve/prompt/repair) into its stage histograms.
	Obs *obs.Metrics
}

// correctionOutcome is one error instance's verdict, folded into the
// CorrectionResult in input order so tallies never depend on scheduling.
type correctionOutcome struct {
	skipped bool
	// fixedAt is the 1-based round whose repair first matched gold; 0 when
	// no round fixed the instance.
	fixedAt int
}

// RunCorrection executes the feedback-correction protocol: for every
// Assistant error with annotatable feedback, iterate annotate→correct up to
// Rounds times, scoring execution accuracy after each round.
func RunCorrection(ctx context.Context, corrector core.Corrector, ds *dataset.Dataset,
	errs []GenResult, opt CorrectionOptions) (CorrectionResult, error) {
	if opt.Rounds < 1 {
		opt.Rounds = 1
	}
	annot := NewAnnotator(ds)
	gold := newGoldCache()
	outcomes := make([]correctionOutcome, len(errs))
	err := forEach(len(errs), opt.Workers, func(i int) error {
		ge := errs[i]
		e := ge.Example
		tr := opt.Obs.StartTrace()
		defer tr.Finish()
		ctx := obs.WithTrace(ctx, tr)
		fb, ok := annot.Annotate(e, ge.SQL, 1, opt.Highlights)
		if !ok {
			outcomes[i].skipped = true
			return nil
		}
		cur := ge.SQL
		for round := 1; round <= opt.Rounds; round++ {
			if round > 1 {
				fb, ok = annot.Annotate(e, cur, round, opt.Highlights)
				if !ok {
					break
				}
			}
			next, err := corrector.Correct(ctx, e.DB, e.Question, cur, fb)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", e.ID, round, err)
			}
			cur = next
			if gold.match(ds.DBs[e.DB], e, cur) {
				outcomes[i].fixedAt = round
				break
			}
		}
		return nil
	})
	if err != nil {
		return CorrectionResult{}, err
	}
	res := CorrectionResult{Method: corrector.Name(), CumCorrected: make([]int, opt.Rounds)}
	for _, out := range outcomes {
		if out.skipped {
			res.Skipped++
			continue
		}
		res.N++
		if out.fixedAt > 0 {
			for r := out.fixedAt; r <= opt.Rounds; r++ {
				res.CumCorrected[r-1]++
			}
		}
	}
	return res, nil
}
