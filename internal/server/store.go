package server

import (
	"sync"
	"sync/atomic"
	"time"

	"fisql/internal/core"
)

// session is one live server session plus its store bookkeeping. The
// request mutex serializes the ask/feedback/history pipeline per session;
// the intrusive prev/next links live in the store's LRU list and are
// guarded by the store's lock, never by s.mu.
type session struct {
	mu   sync.Mutex
	sess *core.Session
	db   string

	// Incremental history rendering, guarded by mu. History is append-only,
	// so each turn is JSON-encoded exactly once into histBuf (fragments
	// joined by commas); histTurns counts the turns rendered so far. Without
	// this, every /history request re-escaped the whole conversation —
	// O(session age) encoding work that dominated the serving profile.
	histBuf   []byte
	histTurns int

	// gone flips to true when the session is evicted or deleted while a
	// handler may still hold a pointer to it (looked up before the removal,
	// waiting on mu). Handlers re-check it after acquiring mu and answer
	// 410 Gone instead of silently operating on a zombie session.
	gone atomic.Bool

	// Store bookkeeping, guarded by the store's lock.
	id         string
	prev, next *session
	// lastAccess is the wall-clock time of the last touch, driving idle-TTL
	// expiry.
	lastAccess time.Time
}

// sessionStore is the session registry: one mutex over a map for O(1) id
// lookup and an intrusive doubly-linked list ordered most- to
// least-recently used, with true-LRU capacity eviction and optional
// idle-TTL expiry. All list surgery is O(1), and the links live in the
// session, so a put allocates nothing beyond its map slot.
//
// Every touch (create, ask, feedback, history) promotes the session to the
// list head. A put that takes the store over maxSessions pops the list's
// tail under the same lock, so the store holds at most maxSessions
// sessions once a put returns.
type sessionStore struct {
	maxSessions int
	ttl         time.Duration
	// now is the clock, swappable by tests.
	now func() time.Time
	// onEvict, when set, observes every removal the store starts itself —
	// capacity eviction or idle-TTL expiry — outside the lock, so the
	// server can end the session. An explicit remove does not call it: its
	// caller ends the session itself.
	onEvict func(*session)

	mu   sync.Mutex
	m    map[string]*session
	head *session // most recently used
	tail *session // least recently used
	// evicted and expired tally capacity evictions and idle-TTL expiries
	// for observability (see stats).
	evicted, expired int64
}

func newSessionStore(maxSessions int, ttl time.Duration) *sessionStore {
	return &sessionStore{maxSessions: maxSessions, ttl: ttl, now: time.Now, m: make(map[string]*session)}
}

// ---------------------------------------------------------------------------
// Intrusive list surgery. Callers hold st.mu.

func (st *sessionStore) pushFront(s *session) {
	s.prev = nil
	s.next = st.head
	if st.head != nil {
		st.head.prev = s
	}
	st.head = s
	if st.tail == nil {
		st.tail = s
	}
}

func (st *sessionStore) unlink(s *session) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		st.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		st.tail = s.prev
	}
	s.prev, s.next = nil, nil
}

// ---------------------------------------------------------------------------

// put registers a new session: it first expires the idle tail of the list,
// then evicts least-recently-used sessions while the store is over
// capacity, and reports every removed session to onEvict after unlocking.
func (st *sessionStore) put(id string, s *session) {
	s.id = id
	// One slot covers the usual put, which evicts at most one session,
	// without a heap allocation.
	var buf [1]*session
	removed := buf[:0]
	st.mu.Lock()
	now := st.now()
	for st.ttl > 0 && st.tail != nil && now.Sub(st.tail.lastAccess) > st.ttl {
		removed = append(removed, st.tail)
		st.removeLocked(st.tail)
		st.expired++
	}
	st.m[id] = s
	st.pushFront(s)
	s.lastAccess = now
	for st.maxSessions > 0 && len(st.m) > st.maxSessions {
		removed = append(removed, st.tail)
		st.removeLocked(st.tail)
		st.evicted++
	}
	st.mu.Unlock()
	st.notifyEvicted(removed...)
}

// notifyEvicted runs the eviction hook for each session. Callers must have
// released st.mu first — the hook may do I/O (journal append).
func (st *sessionStore) notifyEvicted(victims ...*session) {
	if st.onEvict == nil {
		return
	}
	for _, s := range victims {
		st.onEvict(s)
	}
}

// get returns the live session for id, promoting it to most-recently-used.
// An idle-TTL-expired session is removed and reported as absent.
func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	s, ok := st.m[id]
	if !ok {
		st.mu.Unlock()
		return nil, false
	}
	now := st.now()
	if st.ttl > 0 && now.Sub(s.lastAccess) > st.ttl {
		st.removeLocked(s)
		st.expired++
		st.mu.Unlock()
		st.notifyEvicted(s)
		return nil, false
	}
	if st.head != s {
		st.unlink(s)
		st.pushFront(s)
	}
	s.lastAccess = now
	st.mu.Unlock()
	return s, true
}

// has reports whether id is live, without promoting it in the LRU order or
// resetting its idle clock — a read-only existence probe.
func (st *sessionStore) has(id string) bool {
	st.mu.Lock()
	_, ok := st.m[id]
	st.mu.Unlock()
	return ok
}

// remove deletes id, returning the removed session. It does not call the
// eviction hook.
func (st *sessionStore) remove(id string) (*session, bool) {
	st.mu.Lock()
	s, ok := st.m[id]
	if ok {
		st.removeLocked(s)
	}
	st.mu.Unlock()
	return s, ok
}

// removeLocked unlinks and forgets s. Caller holds st.mu.
func (st *sessionStore) removeLocked(s *session) {
	st.unlink(s)
	delete(st.m, s.id)
	s.gone.Store(true)
}

// len reports the live session count.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// ids snapshots the live session ids.
func (st *sessionStore) ids() map[string]bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]bool, len(st.m))
	for id := range st.m {
		out[id] = true
	}
	return out
}

// stats reports cumulative (capacity evictions, idle-TTL expiries).
func (st *sessionStore) stats() (evicted, expired int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evicted, st.expired
}
