package fisql

import (
	"context"
	"testing"
)

// TestSessionFoldsFeedback drives the quickstart correction flow on a
// FoldFeedback system and checks the successful correction lands in the
// retrieval store as a new, retrievable demonstration — and that a second
// session converging on the same fix is deduplicated.
func TestSessionFoldsFeedback(t *testing.T) {
	sys, err := NewExperiencePlatformSystem()
	if err != nil {
		t.Fatal(err)
	}
	sys.FoldFeedback = true
	ctx := context.Background()
	const question = "How many audiences were created in January?"

	before := sys.Store.Len()
	run := func() {
		sess := sys.Session("experience_platform", Options{Routing: true})
		if _, err := sess.Ask(ctx, question); err != nil {
			t.Fatal(err)
		}
		ans, err := sess.Feedback(ctx, "we are in 2024", nil)
		if err != nil {
			t.Fatal(err)
		}
		if ans.ExecErr != nil {
			t.Fatalf("correction did not execute: %v", ans.ExecErr)
		}
	}
	run()
	st := sys.Store.Stats()
	if st.Inserts != 1 || sys.Store.Len() != before+1 {
		t.Fatalf("correction not folded: inserts=%d len %d->%d", st.Inserts, before, sys.Store.Len())
	}
	run() // same correction again: dedup, not growth
	st = sys.Store.Stats()
	if st.Inserts != 1 || st.DupSkips != 1 || sys.Store.Len() != before+1 {
		t.Fatalf("duplicate fold not skipped: %+v", st)
	}
	hits := sys.Store.Search(question, "experience_platform", 1)
	if len(hits) == 0 || hits[0].Demo.Question != question {
		t.Fatalf("folded demonstration not retrievable: %+v", hits)
	}
}
