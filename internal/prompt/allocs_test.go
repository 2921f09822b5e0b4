//go:build !race

package prompt

import (
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/feedback"
)

// Each builder sizes its prompt before writing it: one allocation whatever
// the number of demonstrations.
func TestPromptAllocs(t *testing.T) {
	s := testSchema()
	op := dataset.OpEdit
	routed := feedback.Demos(op)
	hl := &feedback.Highlight{Text: "age > 20"}
	for _, n := range []int{0, 16} {
		demos := testDemos(n)
		if got := testing.AllocsPerRun(100, func() { NL2SQL(s, demos, "How many singers are there?") }); got != 1 {
			t.Errorf("NL2SQL with %d demos: %v allocations, want 1", n, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			Repair(s, demos, routed, &op, "How many singers are there?", "SELECT COUNT(*) FROM singer", "we are in 2024", hl)
		}); got != 1 {
			t.Errorf("Repair with %d demos: %v allocations, want 1", n, got)
		}
	}
}
