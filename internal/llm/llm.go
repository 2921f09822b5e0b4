// Package llm defines the chat-completion client interface the FISQL
// pipeline talks to, and provides a deterministic simulated model.
//
// The paper's system calls gpt-3.5-turbo over the OpenAI API. That
// dependency is substituted (per DESIGN.md) by Sim: a model that sees only
// prompt text — exactly like a real API — parses the prompt layouts of
// internal/prompt, and behaves like a competent-but-fallible NL2SQL model:
// it falls into the corpus's planted ambiguity traps unless the prompt
// contains disambiguating demonstrations, and it repairs queries from
// feedback with the rule engine of internal/nl2sql. Any OpenAI-compatible
// client can be dropped in behind the same interface.
package llm

import (
	"context"
	"errors"
	"sync"
	"unicode"
	"unicode/utf8"

	"fisql/internal/schema"
)

// Request is one chat-completion call.
type Request struct {
	Prompt      string
	Temperature float64
	MaxTokens   int
}

// Response is the model's completion.
type Response struct {
	Text             string
	PromptTokens     int
	CompletionTokens int
}

// Client is the minimal chat-completion interface the pipeline depends on.
type Client interface {
	Complete(ctx context.Context, req Request) (Response, error)
}

// ErrEmptyPrompt is returned for requests without a prompt.
var ErrEmptyPrompt = errors.New("llm: empty prompt")

// CountTokens approximates token usage as whitespace-separated words; it
// only needs to be monotone in text length for the accounting benchmarks.
func CountTokens(text string) int {
	// Counts exactly what len(strings.Fields(text)) would, without
	// materializing the field slice for every prompt: a byte loop while the
	// text is ASCII, and at the first byte that is not, the rune loop over
	// the rest, carrying whether a field is open.
	n := 0
	inField := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			return n + countTokensRunes(text[i:], inField)
		}
		space := schema.IsASCIISpace(c)
		if !space && !inField {
			n++
		}
		inField = !space
	}
	return n
}

// countTokensRunes counts the fields of text that start in it, given
// whether a field was already open where it begins.
func countTokensRunes(text string, inField bool) int {
	n := 0
	for _, r := range text {
		if unicode.IsSpace(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
	}
	return n
}

// ----------------------------------------------------------------------------
// Middleware

// Stats counts calls and token usage across a Client. Safe for concurrent
// use.
type Stats struct {
	mu               sync.Mutex
	calls            int
	promptTokens     int
	completionTokens int
}

// Calls returns the number of completed calls.
func (s *Stats) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Tokens returns cumulative (prompt, completion) token counts.
func (s *Stats) Tokens() (prompt, completion int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promptTokens, s.completionTokens
}

func (s *Stats) record(resp Response) {
	s.mu.Lock()
	s.calls++
	s.promptTokens += resp.PromptTokens
	s.completionTokens += resp.CompletionTokens
	s.mu.Unlock()
}

// Metered wraps a client with call/token accounting.
type Metered struct {
	Inner Client
	Stats *Stats
}

// Complete forwards to the inner client and records usage.
func (m *Metered) Complete(ctx context.Context, req Request) (Response, error) {
	resp, err := m.Inner.Complete(ctx, req)
	if err == nil && m.Stats != nil {
		m.Stats.record(resp)
	}
	return resp, err
}

// Recorder keeps a transcript of calls, for debugging and golden tests.
type Recorder struct {
	Inner Client

	mu    sync.Mutex
	Calls []RecordedCall
}

// RecordedCall is one prompt/response pair.
type RecordedCall struct {
	Prompt   string
	Response string
	Err      error
}

// Complete forwards to the inner client and records the exchange.
func (r *Recorder) Complete(ctx context.Context, req Request) (Response, error) {
	resp, err := r.Inner.Complete(ctx, req)
	r.mu.Lock()
	r.Calls = append(r.Calls, RecordedCall{Prompt: req.Prompt, Response: resp.Text, Err: err})
	r.mu.Unlock()
	return resp, err
}
