package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"fisql/internal/engine"
	"fisql/internal/schema"
	"fisql/internal/sqlast"
)

// Quotas fixes the composition of a benchmark: how many examples are
// trapped, how traps are covered by demonstrations, and how the simulated
// annotator behaves on the resulting errors. The numbers are dealt exactly,
// so headline statistics (one-shot accuracy, error counts, annotated-error
// counts) are reproducible; everything *downstream* of the quotas — whether
// a given method actually corrects a given error — is mechanical.
type Quotas struct {
	// Total examples in the benchmark.
	Total int
	// Covered: single-trap examples whose trap phrase gets a covering
	// demonstration (fixed by retrieval-augmented prompting).
	Covered int
	// TwoTrap: uncovered examples carrying two traps; TwoTrapGood of them
	// have a correctable second trap (fixed in feedback round 2).
	TwoTrap, TwoTrapGood int
	// SingleGood: uncovered single-trap examples with aligned,
	// interpretable feedback — corrected in round 1.
	SingleGood int
	// GoodAmbiguous of the SingleGood use op-ambiguous feedback phrasing
	// (requires MissingDistinct traps); GoodRewrite of them are fixable by
	// the Query-Rewrite baseline. The two subsets are disjoint.
	GoodAmbiguous, GoodRewrite int
	// GroundingHard: uncovered single-trap examples whose feedback is
	// aligned but un-grounded (two plausible edit sites); corrected only
	// with a highlight. Requires grounding-hard candidates (FilterTwo).
	GroundingHard int
	// Misaligned / Vague: uncovered single-trap examples whose feedback
	// does not help (paper causes (c) and (b)).
	Misaligned, Vague int
	// Unannotated: uncovered trapped examples without feedback.
	Unannotated int
	// GenericDemosPerDB adds up to this many non-covering demonstrations
	// per database for retrieval realism.
	GenericDemosPerDB int
}

// Trapped returns the number of trapped (zero-shot-error) examples implied
// by the quotas.
func (q Quotas) Trapped() int {
	return q.Covered + q.TwoTrap + q.SingleGood + q.GroundingHard + q.Misaligned + q.Vague + q.Unannotated
}

// Errors returns the number of RAG-time errors implied by the quotas.
func (q Quotas) Errors() int { return q.Trapped() - q.Covered }

// slotKind enumerates what role an example is dealt into.
type slotKind int

const (
	slotCover slotKind = iota
	slotTwoTrapGood
	slotTwoTrapBad
	slotGoodAmbiguous
	slotGoodRewrite
	slotGoodPlain
	slotGroundingHard
	slotMisaligned
	slotVague
	slotUnannotated
	slotClean
)

// Assembler deals candidates into quota slots and realizes them as
// examples.
type Assembler struct {
	DS   *Dataset
	Gens map[string]*Gen // by database name
	Rng  *rand.Rand

	// coverSafe reports whether a candidate's paraphrase can serve as a
	// covering demonstration without leaking another candidate's trap
	// phrase; installed by Assemble.
	coverSafe func(*Candidate) bool
}

// Assemble builds the dataset's examples and demonstration pool from the
// candidate list according to the quotas. Candidates that fail verification
// for a slot are retried for later slots; left-over candidates become clean
// (untrapped) examples.
func (a *Assembler) Assemble(candidates []*Candidate, q Quotas) error {
	a.Rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	// Deduplicate question texts.
	seen := map[string]bool{}
	uniq := candidates[:0]
	for _, c := range candidates {
		key := schema.Normalize(c.Question)
		if seen[key] {
			continue
		}
		seen[key] = true
		uniq = append(uniq, c)
	}
	candidates = uniq

	// Pre-compute every candidate's trap phrases (normalized). A covering
	// demonstration must not contain any *other* candidate's phrase, or it
	// could silently disambiguate an example that is meant to stay an
	// error; checking against all candidates up-front keeps the choice
	// independent of placement order (and of the seed).
	phrasesByCandidate := make([][]string, len(candidates))
	candidateIndex := make(map[*Candidate]int, len(candidates))
	var allPhrases []string
	for i, c := range candidates {
		candidateIndex[c] = i
		for _, p := range c.Perturbs {
			np := schema.Normalize(p.Trap.Phrase)
			phrasesByCandidate[i] = append(phrasesByCandidate[i], np)
			allPhrases = append(allPhrases, np)
		}
	}
	a.coverSafe = func(c *Candidate) bool {
		para := schema.Normalize(c.Paraphrase)
		own := map[string]bool{}
		for _, p := range phrasesByCandidate[candidateIndex[c]] {
			own[p] = true
		}
		for _, p := range allPhrases {
			if own[p] || p == "" {
				continue
			}
			if strings.Contains(para, p) {
				return false
			}
		}
		return true
	}

	// Remaining slot counts, consumed as candidates fill them.
	remaining := map[slotKind]int{
		slotCover:         q.Covered,
		slotTwoTrapGood:   q.TwoTrapGood,
		slotTwoTrapBad:    q.TwoTrap - q.TwoTrapGood,
		slotGoodAmbiguous: q.GoodAmbiguous,
		slotGoodRewrite:   q.GoodRewrite,
		slotGoodPlain:     q.SingleGood - q.GoodAmbiguous - q.GoodRewrite,
		slotGroundingHard: q.GroundingHard,
		slotMisaligned:    q.Misaligned,
		slotVague:         q.Vague,
		slotUnannotated:   q.Unannotated,
	}
	for k, n := range remaining {
		if n < 0 {
			return fmt.Errorf("inconsistent quotas: slot %d has negative count %d", k, n)
		}
	}
	// Scarcer slots first so generic candidates don't exhaust them.
	order := []slotKind{
		slotGroundingHard, slotGoodAmbiguous, slotTwoTrapGood, slotTwoTrapBad,
		slotGoodRewrite, slotGoodPlain, slotMisaligned, slotVague,
		slotCover, slotUnannotated,
	}

	var demos []Demo
	total := 0
	var clean []*Candidate
	for _, c := range candidates {
		if total >= q.Total {
			break
		}
		placed := false
		for _, k := range order {
			if remaining[k] == 0 {
				continue
			}
			e := a.realizeFor(c, k)
			if e == nil {
				continue
			}
			e.ID = fmt.Sprintf("%s-%04d", a.DS.Name, len(a.DS.Examples))
			a.DS.AddExample(e)
			if k == slotCover {
				demos = append(demos, CoverDemo(e, c.Paraphrase))
			}
			remaining[k]--
			total++
			placed = true
			break
		}
		if !placed {
			clean = append(clean, c)
		}
	}
	for k, n := range remaining {
		if n > 0 {
			return fmt.Errorf("quota unfilled: slot %d needs %d more candidates", k, n)
		}
	}
	// Fill the remainder with clean examples.
	for _, c := range clean {
		if total >= q.Total {
			break
		}
		e := a.Gens[c.DB].Realize(c, nil)
		if e == nil {
			continue
		}
		e.ID = fmt.Sprintf("%s-%04d", a.DS.Name, len(a.DS.Examples))
		a.DS.AddExample(e)
		total++
	}
	if total < q.Total {
		return fmt.Errorf("not enough candidates: built %d of %d examples", total, q.Total)
	}

	// Phrase-conflict pass: no demonstration may contain the phrase of a
	// trap that must remain uncovered, or retrieval would silently fix it.
	uncovered := a.uncoveredPhrases()
	for _, d := range demos {
		norm := schema.Normalize(d.Question)
		for _, p := range uncovered {
			if strings.Contains(norm, p) {
				return fmt.Errorf("covering demo %q leaks uncovered trap phrase %q", d.Question, p)
			}
		}
	}
	// Generic demonstrations from clean examples, conflict-checked.
	perDB := map[string]int{}
	for _, e := range a.DS.Examples {
		if len(e.Traps) > 0 || perDB[e.DB] >= q.GenericDemosPerDB {
			continue
		}
		norm := schema.Normalize(e.Question)
		if slices.ContainsFunc(uncovered, func(p string) bool { return strings.Contains(norm, p) }) {
			continue
		}
		demos = append(demos, Demo{DB: e.DB, Question: e.Question, SQL: e.Gold})
		perDB[e.DB]++
	}
	a.DS.Demos = demos
	// Verification ran on the serving engine; its counts are not the
	// product's, so the returned databases start from zero.
	for _, g := range a.Gens {
		g.DB.ResetStats()
	}
	return nil
}

// uncoveredPhrases returns the normalized phrase of every trap that must
// stay uncovered. A normalized question contains one exactly when
// ContainsPhrase holds, so each side is normalized once: an empty phrase
// never matches and is left out, while a phrase that normalizes to "" stays
// in and matches everything.
func (a *Assembler) uncoveredPhrases() []string {
	var out []string
	for _, e := range a.DS.Examples {
		for _, t := range e.Traps {
			if !t.DemoCovered && t.Phrase != "" {
				out = append(out, schema.Normalize(t.Phrase))
			}
		}
	}
	return out
}

// realizeFor tries to realize the candidate for a slot, returning nil if the
// candidate can't support it.
func (a *Assembler) realizeFor(c *Candidate, k slotKind) *Example {
	g := a.Gens[c.DB]
	switch k {
	case slotCover, slotGoodPlain, slotGoodRewrite, slotUnannotated, slotMisaligned, slotVague:
		// Start from a rotating offset so the corpus mixes trap kinds
		// instead of always planting each template's first perturbation.
		offset := 0
		if len(c.Perturbs) > 1 {
			offset = a.Rng.Intn(len(c.Perturbs))
		}
		for n := range c.Perturbs {
			i := (offset + n) % len(c.Perturbs)
			p := c.Perturbs[i]
			if p.Trap.Kind == MissingDistinct {
				continue // reserved for op-ambiguity slots
			}
			if k == slotCover {
				if !ContainsPhrase(c.Paraphrase, p.Trap.Phrase) {
					continue // the covering demo must carry the trap phrase
				}
				if a.coverSafe != nil && !a.coverSafe(c) {
					continue // the demo would leak another trap's phrase
				}
			}
			if e := g.Realize(c, []Perturb{p}); e != nil {
				t := &e.Traps[0]
				switch k {
				case slotCover:
					t.DemoCovered = true
				case slotGoodPlain:
					e.Annotatable = true
				case slotGoodRewrite:
					e.Annotatable = true
					t.RewriteFixable = true
				case slotMisaligned:
					if !a.decoyFor(g, e, t) {
						return nil
					}
					e.Annotatable = true
					t.Misaligned = true
				case slotVague:
					e.Annotatable = true
					t.Vague = true
				}
				return e
			}
		}
		return nil
	case slotGoodAmbiguous:
		for i := range c.Perturbs {
			p := c.Perturbs[i]
			if p.Trap.Kind != MissingDistinct {
				continue
			}
			if e := g.Realize(c, []Perturb{p}); e != nil {
				e.Annotatable = true
				e.Traps[0].AmbiguousOp = true
				return e
			}
		}
		return nil
	case slotGroundingHard:
		if c.Hint != HintGroundingHard {
			return nil
		}
		if e := g.Realize(c, []Perturb{c.Perturbs[0]}); e != nil {
			e.Annotatable = true
			e.Traps[0].GroundingHard = true
			return e
		}
		return nil
	case slotTwoTrapGood, slotTwoTrapBad:
		// Try ordered pairs of distinct perturbations until a verified,
		// repair-compatible combination is found. Compatibility matters:
		// fixing the first trap must neither mask nor corrupt the second
		// (e.g. a dropped WHERE clause leaves a wrong-literal edit with
		// nothing to edit), so only independent-clause pairs qualify.
		for i := range c.Perturbs {
			for j := range c.Perturbs {
				if i == j {
					continue
				}
				p0, p1 := c.Perturbs[i], c.Perturbs[j]
				if !compatibleTraps(p0.Trap.Kind, p1.Trap.Kind) {
					continue
				}
				e := g.Realize(c, []Perturb{p0, p1})
				if e == nil {
					continue
				}
				e.Annotatable = true
				if k == slotTwoTrapBad {
					// Second trap's feedback never helps: alternate
					// between vague and misaligned for variety.
					if len(a.DS.Examples)%2 == 0 {
						e.Traps[1].Vague = true
					} else {
						if !a.decoyFor(g, e, &e.Traps[1]) {
							e.Traps[1].Vague = true
						} else {
							e.Traps[1].Misaligned = true
						}
					}
				}
				return e
			}
		}
		return nil
	}
	return nil
}

// compatibleTraps reports whether two traps can coexist on one example such
// that sequentially repairing them (first then second) reconstructs the
// gold query. The pairs are conservative: both traps live in the WHERE
// clause but touch different conjuncts.
func compatibleTraps(a, b TrapKind) bool {
	return (a == WrongLiteral && b == ExtraFilter) || (a == ExtraFilter && b == WrongLiteral)
}

// decoyFor picks a decoy column+value for misaligned feedback: any column
// of the gold query's first table that is not the trap's own column.
func (a *Assembler) decoyFor(g *Gen, e *Example, t *Trap) bool {
	sel := mustParse(e.Gold)
	if sel == nil || sel.From == nil || sel.From.First.Name == "" {
		return false
	}
	st := g.Schema.Table(sel.From.First.Name)
	if st == nil {
		return false
	}
	// Realize already ran this gold. Should its reparse fail anyway, every
	// column is rejected but still sampled, so the Rng stream is unchanged.
	gold, goldErr := g.run(sel)
	for _, col := range st.Columns {
		if strings.EqualFold(col.Name, t.Column) || strings.EqualFold(col.Name, t.Old) || strings.EqualFold(col.Name, t.New) {
			continue
		}
		_, v, ok := g.SampleValue(st.Name, col.Name)
		if !ok {
			continue
		}
		// The decoy must really change execution when applied to the gold
		// query, or "misaligned" feedback would coincidentally correct.
		withDecoy := sqlast.CloneSelect(sel)
		lit := &sqlast.Literal{Kind: sqlast.LitString, Text: v.String()}
		if v.T == engine.TypeInt || v.T == engine.TypeFloat {
			lit.Kind = sqlast.LitNumber
		}
		cond := &sqlast.Binary{Op: sqlast.OpEq,
			L: &sqlast.ColumnRef{Column: col.Name}, R: lit}
		if withDecoy.Where == nil {
			withDecoy.Where = cond
		} else {
			withDecoy.Where = &sqlast.Binary{Op: sqlast.OpAnd, L: withDecoy.Where, R: cond}
		}
		if goldErr != nil || !g.differs(gold, withDecoy) {
			continue
		}
		t.DecoyColumn = col.Name
		t.DecoyValue = v.String()
		return true
	}
	return false
}
