package llm

import (
	"context"
	"strings"
	"sync"
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
	"fisql/internal/prompt"
)

var (
	simOnce sync.Once
	simDS   *dataset.Dataset
	simAep  *dataset.Dataset
	sim     *Sim
	simErr  error
)

func getSim(t testing.TB) (*Sim, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	simOnce.Do(func() {
		simDS, simErr = spider.Build()
		if simErr != nil {
			return
		}
		simAep, simErr = aep.Build()
		if simErr != nil {
			return
		}
		sim = NewSim(simDS, simAep)
	})
	if simErr != nil {
		t.Fatal(simErr)
	}
	return sim, simDS, simAep
}

// promptFor builds a zero-shot NL2SQL prompt for an example.
func promptFor(ds *dataset.Dataset, e *dataset.Example) string {
	return prompt.NL2SQL(ds.Schemas[e.DB], nil, e.Question)
}

func complete(t *testing.T, s *Sim, p string) string {
	t.Helper()
	resp, err := s.Complete(context.Background(), Request{Prompt: p})
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	return resp.Text
}

func TestSimZeroShotFallsIntoTrap(t *testing.T) {
	s, ds, _ := getSim(t)
	for _, e := range ds.Errors()[:5] {
		p := prompt.NL2SQL(ds.Schemas[e.DB], nil, e.Question)
		got := complete(t, s, p)
		if got != e.WrongSQL() {
			t.Errorf("%s: zero-shot should produce the naive misreading\n got %q\nwant %q", e.ID, got, e.WrongSQL())
		}
	}
}

func TestSimCleanExampleCorrect(t *testing.T) {
	s, ds, _ := getSim(t)
	n := 0
	for _, e := range ds.Examples {
		if len(e.Traps) > 0 {
			continue
		}
		p := prompt.NL2SQL(ds.Schemas[e.DB], nil, e.Question)
		if got := complete(t, s, p); got != e.Gold {
			t.Errorf("%s: clean example answered wrongly: %q", e.ID, got)
		}
		if n++; n >= 5 {
			break
		}
	}
}

func TestSimDemoDisambiguates(t *testing.T) {
	s, ds, _ := getSim(t)
	var e *dataset.Example
	for _, cand := range ds.Errors() {
		if len(cand.Traps) == 1 && cand.Traps[0].DemoCovered {
			e = cand
			break
		}
	}
	// Covered traps were consumed by RAG; find any single-trap error and
	// hand-build the covering demo instead.
	if e == nil {
		for _, cand := range ds.Errors() {
			if len(cand.Traps) == 1 {
				e = cand
				break
			}
		}
	}
	if e == nil {
		t.Skip("no single-trap errors")
	}
	demo := prompt.Demo{Question: "context: " + e.Traps[0].Phrase + ", resolved", SQL: e.Gold}
	p := prompt.NL2SQL(ds.Schemas[e.DB], []prompt.Demo{demo}, e.Question)
	if got := complete(t, s, p); got != e.Gold {
		t.Errorf("demo containing the trap phrase should disambiguate\n got %q\nwant %q", got, e.Gold)
	}
	// An unrelated demo must not.
	p = prompt.NL2SQL(ds.Schemas[e.DB], []prompt.Demo{{Question: "something unrelated entirely", SQL: "SELECT 1"}}, e.Question)
	if got := complete(t, s, p); got != e.WrongSQL() {
		t.Errorf("unrelated demo should not disambiguate, got %q", got)
	}
}

func TestSimRoutingPrompt(t *testing.T) {
	s, _, _ := getSim(t)
	got := complete(t, s, prompt.Routing("we are in 2024"))
	if got != "Edit" {
		t.Errorf("routing: %q", got)
	}
	got = complete(t, s, prompt.Routing("remove the duplicate entries"))
	if got != "Add" {
		t.Errorf("router should resolve dedup idiom to Add: %q", got)
	}
}

func TestSimRewritePrompt(t *testing.T) {
	s, _, _ := getSim(t)
	got := complete(t, s, prompt.Rewrite("How many singers are there?", "we are in 2024"))
	if !strings.Contains(got, "How many singers are there") || !strings.Contains(got, "we are in 2024") {
		t.Errorf("rewrite: %q", got)
	}
}

func TestSimRepairPrompt(t *testing.T) {
	s, _, ae := getSim(t)
	var e *dataset.Example
	for _, cand := range ae.AnnotatedErrors() {
		if len(cand.Traps) == 1 && cand.Traps[0].Kind == dataset.WrongLiteral &&
			!cand.Traps[0].Misaligned && !cand.Traps[0].Vague && !cand.Traps[0].GroundingHard &&
			strings.Contains(strings.ToLower(cand.Traps[0].Column), "time") {
			e = cand
			break
		}
	}
	if e == nil {
		t.Skip("no year-trap example")
	}
	op := dataset.OpEdit
	p := prompt.Repair(ae.Schemas[e.DB], nil, nil, &op, e.Question, e.WrongSQL(), "we are in 2024", nil)
	got := complete(t, s, p)
	if got != e.Gold {
		t.Errorf("repair:\n got %q\nwant %q", got, e.Gold)
	}
}

func TestSimUnknownQuestionFallback(t *testing.T) {
	s, ds, _ := getSim(t)
	p := prompt.NL2SQL(ds.Schemas["concert_singer"], nil, "How many singers are there right now??")
	got := complete(t, s, p)
	// Falls back to heuristic linking (or the not-understood marker); it
	// must still be non-empty deterministic text.
	if got == "" {
		t.Error("empty fallback response")
	}
}

func TestSimEmptyPrompt(t *testing.T) {
	s, _, _ := getSim(t)
	if _, err := s.Complete(context.Background(), Request{Prompt: "  "}); err == nil {
		t.Error("empty prompt should error")
	}
}

func TestSimTokenAccounting(t *testing.T) {
	s, ds, _ := getSim(t)
	p := prompt.NL2SQL(ds.Schemas["concert_singer"], nil, ds.Examples[0].Question)
	resp, err := s.Complete(context.Background(), Request{Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PromptTokens == 0 || resp.CompletionTokens == 0 {
		t.Errorf("token counts missing: %+v", resp)
	}
}

func TestMetered(t *testing.T) {
	s, ds, _ := getSim(t)
	stats := &Stats{}
	m := &Metered{Inner: s, Stats: stats}
	p := prompt.NL2SQL(ds.Schemas["concert_singer"], nil, ds.Examples[0].Question)
	if _, err := m.Complete(context.Background(), Request{Prompt: p}); err != nil {
		t.Fatal(err)
	}
	if stats.Calls() != 1 {
		t.Errorf("calls: %d", stats.Calls())
	}
	pt, ct := stats.Tokens()
	if pt == 0 || ct == 0 {
		t.Errorf("tokens: %d, %d", pt, ct)
	}
}

func TestCountTokens(t *testing.T) {
	if CountTokens("one two  three") != 3 {
		t.Error("token count")
	}
	if CountTokens("") != 0 {
		t.Error("empty token count")
	}
}

func TestSimRepairFallbackLexicon(t *testing.T) {
	// A repair prompt whose question is outside the corpus still repairs,
	// using the schema-derived lexicon of the announced database.
	s, ds, _ := getSim(t)
	op := dataset.OpEdit
	p := prompt.Repair(ds.Schemas["concert_singer"], nil, nil, &op,
		"A question nobody ever asked before??",
		"SELECT name FROM singer WHERE country = 'Spain'",
		"the country should be 'France'", nil)
	got := complete(t, s, p)
	if got != "SELECT name FROM singer WHERE country = 'France'" {
		t.Errorf("fallback repair: %q", got)
	}
}

func TestSimRewriteKeepsQuestionMarkTrim(t *testing.T) {
	s, _, _ := getSim(t)
	got := complete(t, s, prompt.Rewrite("How many?", "fb"))
	if got != "How many (fb)" {
		t.Errorf("rewrite: %q", got)
	}
}
