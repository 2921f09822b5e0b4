package core

import (
	"context"
	"fmt"

	"fisql/internal/assistant"
	"fisql/internal/dataset"
	"fisql/internal/feedback"
	"fisql/internal/rag"
)

// Session is one interactive conversation with the Assistant on a single
// database: ask a question, inspect the four outputs, then iterate with
// natural-language feedback (optionally grounded by a highlight) until the
// query matches intent — the Figure 4 loop.
type Session struct {
	Assistant *assistant.Assistant
	Corrector Corrector
	DB        string

	// FoldStore, when set, receives every successful correction — feedback
	// that produced a query which parsed and executed — as a new
	// (question, corrected SQL) demonstration, so the retrieval library
	// learns from live sessions ("Speak to your Parser": user feedback is
	// the best source of new demonstrations). The store deduplicates, so
	// many sessions converging on the same fix insert it once.
	FoldStore *rag.Store

	question string
	sql      string
	history  []Turn
}

// Turn records one exchange in the session.
type Turn struct {
	Role   string // "user", "feedback" or "assistant"
	Text   string
	Answer *assistant.Answer // set on assistant turns
}

// NewSession starts a session against one database.
func NewSession(a *assistant.Assistant, c Corrector, db string) *Session {
	return &Session{Assistant: a, Corrector: c, DB: db}
}

// History returns a copy of the conversation so far. Returning the internal
// slice would let callers mutate session state (or observe appends aliasing
// their snapshot).
func (s *Session) History() []Turn {
	return s.HistorySince(0)
}

// HistorySince returns a copy of the turns from index n on. History is
// append-only, so callers that already consumed the first n turns (the
// server's incremental history rendering) receive exactly the new suffix.
func (s *Session) HistorySince(n int) []Turn {
	if n < 0 {
		n = 0
	}
	if n > len(s.history) {
		n = len(s.history)
	}
	out := make([]Turn, len(s.history)-n)
	copy(out, s.history[n:])
	return out
}

// SQL returns the current query, empty before the first question.
func (s *Session) SQL() string { return s.sql }

// Ask poses a fresh question, replacing any previous query context.
func (s *Session) Ask(ctx context.Context, question string) (*assistant.Answer, error) {
	ans, err := s.Assistant.Ask(ctx, s.DB, question)
	if err != nil {
		return nil, err
	}
	s.question = question
	s.sql = ans.SQL
	s.history = append(s.history,
		Turn{Role: "user", Text: question},
		Turn{Role: "assistant", Text: ans.SQL, Answer: ans})
	return ans, nil
}

// Feedback applies user feedback to the current query and re-answers.
func (s *Session) Feedback(ctx context.Context, text string, hl *feedback.Highlight) (*assistant.Answer, error) {
	if s.sql == "" {
		return nil, fmt.Errorf("no query to give feedback on; ask a question first")
	}
	fb := feedback.Feedback{Text: text, Highlight: hl}
	sql, err := s.Corrector.Correct(ctx, s.DB, s.question, s.sql, fb)
	if err != nil {
		return nil, err
	}
	s.sql = sql
	ans := s.Assistant.Answer(ctx, s.DB, sql)
	s.history = append(s.history,
		Turn{Role: "feedback", Text: text},
		Turn{Role: "assistant", Text: ans.SQL, Answer: ans})
	// Fold the correction into the demonstration library only once it
	// actually executed: a correction whose SQL fails to run would teach
	// future retrievals a broken demonstration.
	if s.FoldStore != nil && ans.ExecErr == nil {
		s.FoldStore.Add(dataset.Demo{DB: s.DB, Question: s.question, SQL: sql})
	}
	return ans, nil
}
