package assistant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemoDoCachesAndPromotes(t *testing.T) {
	m := NewAnswerMemo(64)
	var calls atomic.Int64
	fn := func() (*Answer, error) {
		calls.Add(1)
		return &Answer{SQL: "SELECT 1"}, nil
	}
	a1, err := m.Do(context.Background(), "db", "q", fn)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Do(context.Background(), "db", "q", fn)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("second Do should return the cached *Answer")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if hits, misses := m.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if got, ok := resident(m, "db", "q"); !ok || got != a1 {
		t.Errorf("resident = (%v, %v), want the cached answer", got, ok)
	}
	if _, ok := resident(m, "db", "other"); ok {
		t.Error("an unknown question should miss")
	}
}

var errNotResident = errors.New("not resident")

// resident reports whether the memo holds an answer for (db, question),
// promoting it as a hit does. It probes through Do with a fn that returns
// errNotResident instead of computing, and errors are not cached, so a
// miss leaves the memo's entries as they were.
func resident(m *AnswerMemo, db, question string) (*Answer, bool) {
	ans, err := m.Do(context.Background(), db, question, func() (*Answer, error) {
		return nil, errNotResident
	})
	return ans, err == nil
}

// TestMemoSingleflight proves the exactly-once contract: N concurrent asks
// of the same (db, question) run the pipeline function exactly once, and
// every caller receives the one shared *Answer.
func TestMemoSingleflight(t *testing.T) {
	const waiters = 8
	m := NewAnswerMemo(64)
	var calls atomic.Int64
	release := make(chan struct{})
	entered := make(chan struct{})
	fn := func() (*Answer, error) {
		calls.Add(1)
		close(entered)
		<-release // hold the flight open so the others must join it
		return &Answer{SQL: "SELECT 42"}, nil
	}

	results := make(chan *Answer, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a, err := m.Do(context.Background(), "db", "q", fn)
		if err != nil {
			t.Error(err)
		}
		results <- a
	}()
	<-entered // the leader is inside fn; its flight is registered

	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := m.Do(context.Background(), "db", "q", fn)
			if err != nil {
				t.Error(err)
			}
			results <- a
		}()
	}
	// Wait until all followers are parked on the flight before releasing it,
	// so this test genuinely exercises the waiter path.
	fl := func() *flight {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.inflight[askKey("db", "q")]
	}()
	if fl == nil {
		t.Fatal("no inflight entry while fn is blocked")
	}
	deadline := time.Now().Add(5 * time.Second)
	for fl.waiters.Load() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters joined the flight", fl.waiters.Load(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	if n := calls.Load(); n != 1 {
		t.Fatalf("pipeline ran %d times for %d concurrent asks, want exactly 1", n, waiters+1)
	}
	var first *Answer
	for a := range results {
		if first == nil {
			first = a
		}
		if a != first {
			t.Fatal("concurrent asks returned different Answer pointers")
		}
	}
	if first == nil || first.SQL != "SELECT 42" {
		t.Fatalf("unexpected answer %+v", first)
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	m := NewAnswerMemo(64)
	var calls atomic.Int64
	boom := errors.New("boom")
	fn := func() (*Answer, error) {
		calls.Add(1)
		return nil, boom
	}
	if _, err := m.Do(context.Background(), "db", "q", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := m.Do(context.Background(), "db", "q", fn); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want boom (errors must not be cached)", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("fn ran %d times, want 2 — a failed flight must retry", n)
	}
	if m.Len() != 0 {
		t.Errorf("memo holds %d entries after failures, want 0", m.Len())
	}
}

func TestMemoWaiterHonorsContext(t *testing.T) {
	m := NewAnswerMemo(64)
	release := make(chan struct{})
	entered := make(chan struct{})
	go m.Do(context.Background(), "db", "q", func() (*Answer, error) {
		close(entered)
		<-release
		return &Answer{}, nil
	})
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Do(ctx, "db", "q", func() (*Answer, error) {
		t.Error("canceled waiter must not start its own flight")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestMemoKeyNamespaces checks that an ask for question X and an executed
// SQL that happens to equal X do not collide in the cache.
func TestMemoKeyNamespaces(t *testing.T) {
	m := NewAnswerMemo(64)
	text := "SELECT * FROM t"
	askAns := &Answer{SQL: "ask"}
	sqlAns := &Answer{SQL: "sql"}
	m.Do(context.Background(), "db", text, func() (*Answer, error) { return askAns, nil })
	got, err := m.DoSQL(context.Background(), "db", text, func() (*Answer, error) { return sqlAns, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != sqlAns {
		t.Error("DoSQL hit the ask-namespace entry; namespaces must be disjoint")
	}
	if m.Len() != 2 {
		t.Errorf("memo holds %d entries, want 2", m.Len())
	}
}

// TestMemoHoldsCapacity checks that a memo of capacity n keeps n distinct
// answers: none is evicted before the memo is full.
func TestMemoHoldsCapacity(t *testing.T) {
	const capacity = 16
	m := NewAnswerMemo(capacity)
	for i := 0; i < capacity; i++ {
		q := fmt.Sprintf("question %d", i)
		m.Do(context.Background(), "db", q, func() (*Answer, error) {
			return &Answer{SQL: q}, nil
		})
	}
	if got := m.Len(); got != capacity {
		t.Errorf("memo holds %d entries, want %d", got, capacity)
	}
	for i := 0; i < capacity; i++ {
		q := fmt.Sprintf("question %d", i)
		if got, ok := resident(m, "db", q); !ok || got.SQL != q {
			t.Errorf("%q: resident = (%v, %v), want its answer", q, got, ok)
		}
	}
}

// TestMemoEvictsLRU checks strict LRU order: after more inserts than the
// capacity and one promoting hit, exactly the capacity most recently used
// keys are resident.
func TestMemoEvictsLRU(t *testing.T) {
	const capacity, n, more = 16, 64, 4
	m := NewAnswerMemo(capacity)
	put := func(i int) {
		q := fmt.Sprintf("question %d", i)
		m.Do(context.Background(), "db", q, func() (*Answer, error) {
			return &Answer{SQL: q}, nil
		})
	}
	for i := 0; i < n; i++ {
		put(i)
	}
	// Promote the least recently used key, then insert more: the keys after
	// it go first, and it stays.
	promoted := n - capacity
	if _, ok := resident(m, "db", fmt.Sprintf("question %d", promoted)); !ok {
		t.Fatalf("question %d was evicted before the memo was over capacity", promoted)
	}
	for i := n; i < n+more; i++ {
		put(i)
	}
	if got := m.Len(); got != capacity {
		t.Errorf("memo holds %d entries, want %d", got, capacity)
	}
	for i := 0; i < n+more; i++ {
		want := i == promoted || i > promoted+more
		if _, ok := resident(m, "db", fmt.Sprintf("question %d", i)); ok != want {
			t.Errorf("question %d resident=%v, want %v", i, ok, want)
		}
	}
}

// TestMemoCanceledLeaderHandsOffToWaiters pins the disconnect-vs-dedup
// contract: when the singleflight leader's own context is canceled mid
// computation, surviving waiters must not inherit its context.Canceled —
// one of them re-runs the computation under its own context and every
// survivor gets the real Answer.
func TestMemoCanceledLeaderHandsOffToWaiters(t *testing.T) {
	m := NewAnswerMemo(64)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{}) // leader's fn has started
	leaderGo := make(chan struct{}) // release the leader's fn

	var runs atomic.Int64
	leaderFn := func() (*Answer, error) {
		runs.Add(1)
		close(leaderIn)
		<-leaderGo
		// The pipeline observes the canceled context, as a real ask would.
		return nil, fmt.Errorf("generate sql: %w", leaderCtx.Err())
	}
	waiterFn := func() (*Answer, error) {
		runs.Add(1)
		return &Answer{SQL: "SELECT 42"}, nil
	}

	var leaderErr error
	var wgLeader sync.WaitGroup
	wgLeader.Add(1)
	go func() {
		defer wgLeader.Done()
		_, leaderErr = m.Do(leaderCtx, "db", "q", leaderFn)
	}()
	<-leaderIn

	const waiters = 4
	results := make([]*Answer, waiters)
	errs := make([]error, waiters)
	var wgWaiters sync.WaitGroup
	started := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wgWaiters.Add(1)
		go func(i int) {
			defer wgWaiters.Done()
			started <- struct{}{}
			results[i], errs[i] = m.Do(context.Background(), "db", "q", waiterFn)
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	time.Sleep(10 * time.Millisecond) // let the waiters block on the flight

	cancelLeader()
	close(leaderGo)
	wgWaiters.Wait()
	wgLeader.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Errorf("leader: err=%v, want its own context.Canceled", leaderErr)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Errorf("waiter %d poisoned by the leader's cancellation: %v", i, errs[i])
			continue
		}
		if results[i] == nil || results[i].SQL != "SELECT 42" {
			t.Errorf("waiter %d: answer %+v", i, results[i])
		}
	}
	// Exactly one waiter re-ran; the rest shared its result, now cached.
	if n := runs.Load(); n != 2 {
		t.Errorf("fn ran %d times, want 2 (canceled leader + one re-run)", n)
	}
	if got, ok := resident(m, "db", "q"); !ok || got.SQL != "SELECT 42" {
		t.Errorf("re-run result not cached: (%v, %v)", got, ok)
	}
}

// TestMemoRealErrorStillSharedWithWaiters guards the other side of the
// handoff rule: a genuine pipeline failure (leader's ctx still live) is
// shared with every waiter — no retry stampede on a down backend.
func TestMemoRealErrorStillSharedWithWaiters(t *testing.T) {
	m := NewAnswerMemo(64)
	boom := errors.New("backend down")
	in := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int64
	fn := func() (*Answer, error) {
		runs.Add(1)
		close(in)
		<-release
		return nil, boom
	}
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = m.Do(context.Background(), "db", "q", fn)
	}()
	<-in
	const waiters = 3
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Do(context.Background(), "db", "q", fn)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if !errors.Is(leaderErr, boom) {
		t.Errorf("leader: %v", leaderErr)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("waiter %d: err=%v, want the shared pipeline error", i, err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1 — real errors must stay singleflight", n)
	}
}
