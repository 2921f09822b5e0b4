package server

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"fisql/internal/core"
)

// sessionShards is the lock-striping factor of the session store. Session
// ids hash uniformly (FNV-1a), so contention on any single shard is roughly
// 1/sessionShards of what the former global mutex saw. A power of two keeps
// the shard index a mask instead of a modulo.
const sessionShards = 16

// session is one live server session plus its store bookkeeping. The
// request mutex serializes the ask/feedback/history pipeline per session;
// the intrusive prev/next links live in the owning shard's LRU list and are
// guarded by that shard's lock, never by s.mu.
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

	// Store bookkeeping, guarded by the owning shard's lock.
	id         string
	prev, next *session
	// lruSeq is the store-wide access clock value of the last touch; the
	// globally least-recently-used session is the shard tail with the
	// smallest lruSeq.
	lruSeq uint64
	// lastAccess is the wall-clock time of the last touch, driving idle-TTL
	// expiry.
	lastAccess time.Time
}

// sessionShard is one stripe: a map for O(1) id lookup plus an intrusive
// doubly-linked list ordered most- to least-recently used. All list
// surgery is O(1).
type sessionShard struct {
	mu   sync.RWMutex
	m    map[string]*session
	head *session // most recently used
	tail *session // least recently used
}

// sessionStore is a sharded, lock-striped session registry with true-LRU
// capacity eviction and optional idle-TTL expiry.
//
// Capacity semantics: the store holds at most maxSessions sessions once a
// put returns; concurrent puts may transiently overshoot by the number of
// in-flight creators, and each one evicts until the count is back under the
// cap. Eviction removes the globally least-recently-used session: every
// touch (create, ask, feedback, history) stamps a store-wide monotonic
// sequence and promotes the session to its shard's list head, so the global
// LRU victim is the shard tail with the minimum stamp — found by peeking
// sessionShards tails, O(1) for a fixed shard count.
type sessionStore struct {
	maxSessions int
	ttl         time.Duration
	// now is the clock, swappable by tests.
	now func() time.Time
	// onEvict, when set, observes every removal the store starts itself —
	// capacity eviction or idle-TTL expiry — outside the shard locks, so the
	// server can end the session. An explicit remove does not call it: its
	// caller ends the session itself.
	onEvict func(*session)
	// clock is the store-wide access counter behind lruSeq stamps.
	clock atomic.Uint64
	// count tracks the live session total across shards.
	count atomic.Int64
	// evicted and expired tally capacity evictions and idle-TTL expiries
	// for observability (see stats); always-on atomic adds, no lock cost.
	evicted atomic.Int64
	expired atomic.Int64
	shards  [sessionShards]sessionShard
}

func newSessionStore(maxSessions int, ttl time.Duration) *sessionStore {
	st := &sessionStore{maxSessions: maxSessions, ttl: ttl, now: time.Now}
	for i := range st.shards {
		st.shards[i].m = make(map[string]*session)
	}
	return st
}

func (st *sessionStore) shardFor(id string) *sessionShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &st.shards[h.Sum32()&(sessionShards-1)]
}

// ---------------------------------------------------------------------------
// Intrusive list surgery. Callers hold the shard's write lock.

func (sh *sessionShard) pushFront(s *session) {
	s.prev = nil
	s.next = sh.head
	if sh.head != nil {
		sh.head.prev = s
	}
	sh.head = s
	if sh.tail == nil {
		sh.tail = s
	}
}

func (sh *sessionShard) unlink(s *session) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		sh.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		sh.tail = s.prev
	}
	s.prev, s.next = nil, nil
}

func (sh *sessionShard) moveToFront(s *session) {
	if sh.head == s {
		return
	}
	sh.unlink(s)
	sh.pushFront(s)
}

// ---------------------------------------------------------------------------

// touch stamps the access clock on s. Caller holds the shard write lock.
func (st *sessionStore) touch(s *session) {
	s.lruSeq = st.clock.Add(1)
	s.lastAccess = st.now()
}

// put registers a new session, evicting least-recently-used sessions while
// the store is over capacity and expiring idle tails of the target shard.
func (st *sessionStore) put(id string, s *session) {
	s.id = id
	sh := st.shardFor(id)
	sh.mu.Lock()
	var expired []*session
	if st.ttl > 0 {
		expired = st.expireTailLocked(sh)
	}
	sh.m[id] = s
	sh.pushFront(s)
	st.touch(s)
	sh.mu.Unlock()
	st.notifyEvicted(expired...)
	st.count.Add(1)
	for st.maxSessions > 0 && st.count.Load() > int64(st.maxSessions) {
		victim := st.evictOldest()
		if victim == nil {
			return
		}
		st.notifyEvicted(victim)
	}
}

// notifyEvicted runs the eviction hook for each session. Callers must have
// released every shard lock first — the hook may do I/O (journal append).
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
	sh := st.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	if st.ttl > 0 && st.now().Sub(s.lastAccess) > st.ttl {
		st.removeLocked(sh, s)
		st.expired.Add(1)
		sh.mu.Unlock()
		st.notifyEvicted(s)
		return nil, false
	}
	sh.moveToFront(s)
	st.touch(s)
	sh.mu.Unlock()
	return s, true
}

// has reports whether id is live, without promoting it in the LRU order or
// resetting its idle clock — a read-only existence probe.
func (st *sessionStore) has(id string) bool {
	sh := st.shardFor(id)
	sh.mu.RLock()
	_, ok := sh.m[id]
	sh.mu.RUnlock()
	return ok
}

// remove deletes id, returning the removed session. It does not call the
// eviction hook.
func (st *sessionStore) remove(id string) (*session, bool) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	if ok {
		st.removeLocked(sh, s)
	}
	sh.mu.Unlock()
	return s, ok
}

// removeLocked unlinks and forgets s. Caller holds the shard write lock.
func (st *sessionStore) removeLocked(sh *sessionShard, s *session) {
	sh.unlink(s)
	delete(sh.m, s.id)
	s.gone.Store(true)
	st.count.Add(-1)
}

// expireTailLocked drops idle-expired sessions off the least-recent end of
// one shard, returning them so the caller can fire the eviction hook after
// releasing the lock. Caller holds the shard write lock.
func (st *sessionStore) expireTailLocked(sh *sessionShard) []*session {
	now := st.now()
	var expired []*session
	for sh.tail != nil && now.Sub(sh.tail.lastAccess) > st.ttl {
		expired = append(expired, sh.tail)
		st.removeLocked(sh, sh.tail)
		st.expired.Add(1)
	}
	return expired
}

// evictOldest removes and returns the globally least-recently-used session
// (nil when none could be taken): peek every shard's tail stamp under a read lock, then confirm and
// remove the winner under its write lock. A tail promoted between peek and
// confirm makes the snapshot stale; retry a bounded number of times
// (progress is still guaranteed by the caller's count check — another
// creator may have evicted on our behalf).
func (st *sessionStore) evictOldest() *session {
	for attempt := 0; attempt < 4; attempt++ {
		var victim *sessionShard
		var victimSeq uint64
		for i := range st.shards {
			sh := &st.shards[i]
			sh.mu.RLock()
			if sh.tail != nil && (victim == nil || sh.tail.lruSeq < victimSeq) {
				victim = sh
				victimSeq = sh.tail.lruSeq
			}
			sh.mu.RUnlock()
		}
		if victim == nil {
			return nil
		}
		victim.mu.Lock()
		if s := victim.tail; s != nil && s.lruSeq == victimSeq {
			st.removeLocked(victim, s)
			st.evicted.Add(1)
			victim.mu.Unlock()
			return s
		}
		victim.mu.Unlock()
	}
	return nil
}

// len reports the live session count.
func (st *sessionStore) len() int { return int(st.count.Load()) }

// ids snapshots the live session ids across all shards.
func (st *sessionStore) ids() map[string]bool {
	out := make(map[string]bool, st.len())
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			out[id] = true
		}
		sh.mu.RUnlock()
	}
	return out
}

// stats reports cumulative (capacity evictions, idle-TTL expiries).
func (st *sessionStore) stats() (evicted, expired int64) {
	return st.evicted.Load(), st.expired.Load()
}
