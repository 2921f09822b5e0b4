package server

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestStore(max int, ttl time.Duration) (*sessionStore, *time.Time) {
	st := newSessionStore(max, ttl)
	now := time.Unix(1700000000, 0)
	st.now = func() time.Time { return now }
	return st, &now
}

func putN(st *sessionStore, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
		st.put(ids[i], &session{})
	}
	return ids
}

func TestStoreGetPromotesLRU(t *testing.T) {
	st, _ := newTestStore(2, 0)
	ids := putN(st, 2)
	// Touch s0 so s1 becomes the global LRU victim of the next put.
	if _, ok := st.get(ids[0]); !ok {
		t.Fatal("s0 should be present")
	}
	st.put("s2", &session{})
	if _, ok := st.get(ids[1]); ok {
		t.Error("s1 was the least recently used and should be evicted")
	}
	if _, ok := st.get(ids[0]); !ok {
		t.Error("s0 was promoted by get and should survive")
	}
	if st.len() != 2 {
		t.Errorf("len = %d, want 2", st.len())
	}
}

func TestStoreCapHoldsUnderBulkInsert(t *testing.T) {
	st, _ := newTestStore(8, 0)
	ids := putN(st, 50)
	if st.len() != 8 {
		t.Fatalf("len = %d, want 8", st.len())
	}
	// Exactly the 8 most recent creations survive.
	for i, id := range ids {
		_, ok := st.get(id)
		if want := i >= len(ids)-8; ok != want {
			t.Errorf("session %s present=%v, want %v", id, ok, want)
		}
	}
}

func TestStoreEvictionSetsGone(t *testing.T) {
	st, _ := newTestStore(1, 0)
	s0 := &session{}
	st.put("s0", s0)
	st.put("s1", &session{})
	if !s0.gone.Load() {
		t.Error("evicted session must be flagged gone for in-flight handlers")
	}
}

func TestStoreRemove(t *testing.T) {
	st, _ := newTestStore(0, 0)
	s := &session{}
	st.put("a", s)
	got, ok := st.remove("a")
	if !ok || got != s {
		t.Fatalf("remove = (%v, %v), want the stored session", got, ok)
	}
	if !s.gone.Load() {
		t.Error("removed session must be flagged gone")
	}
	if st.len() != 0 {
		t.Errorf("len = %d after remove, want 0", st.len())
	}
	if _, ok := st.remove("a"); ok {
		t.Error("double remove should report absent")
	}
	if _, ok := st.get("a"); ok {
		t.Error("removed session should be gone from get")
	}
}

func TestStoreTTLExpiresIdleSessions(t *testing.T) {
	st, now := newTestStore(0, time.Minute)
	s := &session{}
	st.put("a", s)
	*now = now.Add(30 * time.Second)
	if _, ok := st.get("a"); !ok {
		t.Fatal("session should survive within the TTL")
	}
	// The get above refreshed lastAccess; expiry counts from the last touch.
	*now = now.Add(59 * time.Second)
	if _, ok := st.get("a"); !ok {
		t.Fatal("session touched 59s ago should survive a 60s TTL")
	}
	*now = now.Add(61 * time.Second)
	if _, ok := st.get("a"); ok {
		t.Error("session idle past the TTL should be expired on lookup")
	}
	if !s.gone.Load() {
		t.Error("expired session must be flagged gone")
	}
	if st.len() != 0 {
		t.Errorf("len = %d after expiry, want 0", st.len())
	}
}

// TestStoreCapHoldsUnderConcurrentPut checks that the cap is exact once a
// put returns, however many creators race: every put over the cap evicts
// one session.
func TestStoreCapHoldsUnderConcurrentPut(t *testing.T) {
	const limit, goroutines, puts = 8, 8, 500
	st, _ := newTestStore(limit, 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				st.put(fmt.Sprintf("g%d-%d", g, i), &session{})
				if n := st.len(); n > limit {
					t.Errorf("len = %d right after a put, cap is %d", n, limit)
					return
				}
			}
		}()
	}
	wg.Wait()
	if evicted, _ := st.stats(); evicted != goroutines*puts-limit {
		t.Errorf("evicted = %d, want %d", evicted, goroutines*puts-limit)
	}
	if st.len() != limit {
		t.Errorf("len = %d, want %d", st.len(), limit)
	}
}

// TestStoreTTLSweepOnPut checks that a create sweeps every idle session,
// without anyone ever looking them up again.
func TestStoreTTLSweepOnPut(t *testing.T) {
	st, now := newTestStore(0, time.Minute)
	old := make([]*session, 4)
	for i := range old {
		old[i] = &session{}
		st.put(fmt.Sprintf("old%d", i), old[i])
	}
	*now = now.Add(2 * time.Minute)
	st.put("fresh", &session{})
	for i, s := range old {
		if !s.gone.Load() {
			t.Errorf("idle session old%d should be swept by a create", i)
		}
	}
	if st.len() != 1 {
		t.Errorf("len = %d, want 1", st.len())
	}
	if _, expired := st.stats(); expired != int64(len(old)) {
		t.Errorf("expired = %d, want %d", expired, len(old))
	}
}
