package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fisql/internal/assistant"
	"fisql/internal/llm"
	"fisql/internal/rag"
)

var updateGolden = flag.Bool("update", false, "rewrite golden transcript files")

// recorder keeps the transcript of a client's calls.
type recorder struct {
	inner llm.Client
	calls []recordedCall
}

// recordedCall is one prompt/response pair.
type recordedCall struct {
	Prompt, Response string
}

func (r *recorder) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := r.inner.Complete(ctx, req)
	r.calls = append(r.calls, recordedCall{Prompt: req.Prompt, Response: resp.Text})
	return resp, err
}

// TestGoldenTranscript pins the exact prompt/response exchange of the
// Figure 4 conversation. Any change to prompt layout, retrieval, routing or
// repair shows up as a readable diff in testdata/figure4_transcript.txt.
// Regenerate intentionally with: go test ./internal/core -run Golden -update
func TestGoldenTranscript(t *testing.T) {
	ds, sim := world(t)
	rec := &recorder{inner: sim}
	store := rag.NewStore(ds.Demos)
	asst := &assistant.Assistant{Client: rec, DS: ds, Store: store, K: 4}
	method := &FISQL{Client: rec, DS: ds, Store: store, K: 4, Routing: true}
	sess := NewSession(asst, method, "experience_platform")
	ctx := context.Background()

	if _, err := sess.Ask(ctx, "How many audiences were created in January?"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feedback(ctx, "we are in 2024", nil); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	for i, call := range rec.calls {
		fmt.Fprintf(&sb, "=== call %d ===\n--- prompt ---\n%s\n--- response ---\n%s\n\n",
			i+1, call.Prompt, call.Response)
	}
	got := sb.String()

	path := filepath.Join("testdata", "figure4_transcript.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("transcript diverged from golden file %s;\nre-run with -update if the change is intentional.\n--- got ---\n%s", path, got)
	}
}

// TestGoldenTranscriptShape sanity-checks structural facts independent of
// the golden bytes, so the test still means something right after -update.
func TestGoldenTranscriptShape(t *testing.T) {
	ds, sim := world(t)
	rec := &recorder{inner: sim}
	store := rag.NewStore(ds.Demos)
	asst := &assistant.Assistant{Client: rec, DS: ds, Store: store, K: 4}
	method := &FISQL{Client: rec, DS: ds, Store: store, K: 4, Routing: true}
	sess := NewSession(asst, method, "experience_platform")
	ctx := context.Background()

	if _, err := sess.Ask(ctx, "How many audiences were created in January?"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feedback(ctx, "we are in 2024", nil); err != nil {
		t.Fatal(err)
	}
	// Exactly three LLM calls: generation, routing, repair.
	if len(rec.calls) != 3 {
		t.Fatalf("calls: %d", len(rec.calls))
	}
	if !strings.Contains(rec.calls[0].Prompt, "Question: How many audiences were created in January?") {
		t.Error("call 1 should be the generation prompt")
	}
	if !strings.HasPrefix(rec.calls[1].Prompt, "Classify the user feedback") {
		t.Error("call 2 should be the routing prompt")
	}
	if rec.calls[1].Response != "Edit" {
		t.Errorf("router said %q", rec.calls[1].Response)
	}
	if !strings.Contains(rec.calls[2].Prompt, "received the following feedback") ||
		!strings.Contains(rec.calls[2].Prompt, "Edit updates") {
		t.Error("call 3 should be the repair prompt with routed Edit demos")
	}
}
