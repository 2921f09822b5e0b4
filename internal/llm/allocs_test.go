//go:build !race

package llm

import (
	"context"
	"testing"

	"fisql/internal/prompt"
)

func TestCountTokensAllocs(t *testing.T) {
	_, ds, _ := getSim(t)
	text := promptFor(ds, ds.Examples[0])
	if got := testing.AllocsPerRun(100, func() { CountTokens(text) }); got != 0 {
		t.Errorf("CountTokens: %v allocations, want 0", got)
	}
}

// The Sim reads a prompt in one pass and normalizes only text it has not
// seen, so the demonstrations of a prompt cost no allocation each.
func TestSimCompleteAllocs(t *testing.T) {
	s, ds, _ := getSim(t)
	e := trappedExample(t, ds)
	ctx := context.Background()
	allocs := func(n int) float64 {
		req := Request{Prompt: prompt.NL2SQL(ds.Schemas[e.DB], poolDemos(ds, n), e.Question)}
		return testing.AllocsPerRun(50, func() {
			if _, err := s.Complete(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a4, a16 := allocs(4), allocs(16); a4 != a16 {
		t.Errorf("Sim.Complete: %v allocations with 4 demos, %v with 16", a4, a16)
	}
}
