// Answer memoization: the serving-path cache above the plan cache.
//
// Assistant.Ask is a pure function of (db, question): the retrieval store,
// schema and client configuration are immutable, the session history does
// not feed into a fresh question, and the shipped clients (llm.Sim) are
// deterministic. Thousands of sessions asking the same first-turn question
// therefore recompute the identical Answer through the full RAG → prompt →
// LLM → parse → execute pipeline. AnswerMemo caches the finished *Answer
// per (db, question) in a bounded LRU under one mutex and collapses
// concurrent identical misses into one pipeline execution (singleflight).
//
// Feedback turns are never memoized: a repair depends on the session's
// current SQL and feedback text, which vary per session, and Session
// routes them through Corrector.Correct + Assistant.Answer, not Ask.
//
// Cached *Answer values are shared across sessions and must be treated as
// immutable — every consumer in the repo (history, JSON rendering) only
// reads them. A non-deterministic Client (a real sampled LLM) should run
// with a nil memo.
package assistant

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// DefaultMemoCapacity bounds an AnswerMemo built with NewAnswerMemo(0).
// Sized like the engine's plan cache: holds a full corpus working set
// (every distinct question of both shipped corpora) with room to spare.
const DefaultMemoCapacity = 4096

// AnswerMemo is a bounded LRU of finished Answers keyed by (db, question),
// with singleflight collapsing of concurrent misses. One mutex guards the
// list, its index and the in-flight table, like engine.Cache. Safe for
// concurrent use. The zero value is not usable; build with NewAnswerMemo.
type AnswerMemo struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight
	hits     atomic.Int64
	misses   atomic.Int64
}

type memoEntry struct {
	key string
	ans *Answer
}

// flight is one in-progress pipeline execution that concurrent identical
// asks wait on instead of recomputing.
type flight struct {
	done chan struct{}
	ans  *Answer
	err  error
	// handoff marks a flight whose leader was torn down by its own context
	// (client disconnect) rather than by a pipeline failure: the error is
	// private to the leader, so waiters must not inherit it — they loop and
	// one of them re-runs the computation with its own fn and context.
	// Written before done closes, read only after it.
	handoff bool
	waiters atomic.Int64 // callers blocked on done, for tests/metrics
}

// NewAnswerMemo builds an empty memo holding at most capacity answers;
// capacity <= 0 means DefaultMemoCapacity.
func NewAnswerMemo(capacity int) *AnswerMemo {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	return &AnswerMemo{
		capacity: capacity,
		ll:       list.New(),
		// Sized for capacity up front: growing one map past a few hundred
		// keys rehashes them all inside one Do, tens of microseconds that
		// land in the ask tail while a memo fills.
		entries:  make(map[string]*list.Element, capacity),
		inflight: make(map[string]*flight),
	}
}

// Key namespaces: a question and a SQL text could collide as strings, so
// each kind gets its own prefix. db and payload are joined with NUL, which
// occurs in neither.
func askKey(db, question string) string { return "q\x00" + db + "\x00" + question }
func sqlKey(db, sql string) string      { return "s\x00" + db + "\x00" + sql }

// Do returns the memoized Answer for a fresh question on (db, question),
// computing it with fn on a miss. Concurrent calls for the same key while
// fn runs block until the one execution finishes and share its result (or
// its error; errors are not cached, so the next call retries). A waiter
// whose ctx is canceled unblocks with ctx.Err() without disturbing the
// computation.
func (m *AnswerMemo) Do(ctx context.Context, db, question string, fn func() (*Answer, error)) (*Answer, error) {
	return m.do(ctx, askKey(db, question), fn)
}

// DoSQL returns the memoized executed Answer for (db, sql). Answer
// assembly — plan, execute, reformulate, explain — is pure in (db, sql)
// (databases are immutable), so it is shared across sessions even for
// feedback turns: the correction step that *produced* the SQL depends on
// session history and always runs live, but two sessions whose corrections
// converge on the same SQL share one execution.
func (m *AnswerMemo) DoSQL(ctx context.Context, db, sql string, fn func() (*Answer, error)) (*Answer, error) {
	return m.do(ctx, sqlKey(db, sql), fn)
}

func (m *AnswerMemo) do(ctx context.Context, key string, fn func() (*Answer, error)) (*Answer, error) {
	for {
		m.mu.Lock()
		if el, ok := m.entries[key]; ok {
			m.ll.MoveToFront(el)
			ans := el.Value.(*memoEntry).ans
			m.mu.Unlock()
			m.hits.Add(1)
			return ans, nil
		}
		if fl, ok := m.inflight[key]; ok {
			fl.waiters.Add(1)
			m.mu.Unlock()
			select {
			case <-fl.done:
				if fl.handoff {
					// The leader's context died mid-computation; its
					// context.Canceled is not this caller's error. Loop: the
					// first waiter back wins the leadership race and re-runs
					// fn — its own closure over its own live context.
					continue
				}
				m.hits.Add(1)
				return fl.ans, fl.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		fl := &flight{done: make(chan struct{})}
		m.inflight[key] = fl
		m.mu.Unlock()
		m.misses.Add(1)

		fl.ans, fl.err = fn()
		// Distinguish "the pipeline failed" (shared with waiters; they see
		// the same backend the next retry would) from "this caller was
		// canceled" (private; surviving waiters re-run instead).
		if fl.err != nil && ctx.Err() != nil && errors.Is(fl.err, ctx.Err()) {
			fl.handoff = true
		}

		m.mu.Lock()
		delete(m.inflight, key)
		if fl.err == nil {
			m.entries[key] = m.ll.PushFront(&memoEntry{key: key, ans: fl.ans})
			for m.ll.Len() > m.capacity {
				old := m.ll.Back()
				m.ll.Remove(old)
				delete(m.entries, old.Value.(*memoEntry).key)
			}
		}
		m.mu.Unlock()
		close(fl.done)
		return fl.ans, fl.err
	}
}

// Len reports the number of memoized answers.
func (m *AnswerMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// Stats reports cumulative (hits, misses); collapsed singleflight waiters
// count as hits.
func (m *AnswerMemo) Stats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}
