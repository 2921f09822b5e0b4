package pubsub

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func pay(i int) Payload {
	return Payload{Type: "ev", Data: []byte(fmt.Sprintf(`{"n":%d}`, i))}
}

// collect drains up to n events (returning early on stream end) along with
// the total missed count reported across the deliveries.
func collect(t *testing.T, sub *Subscription, n int) ([]Event, uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out []Event
	var missed uint64
	for len(out) < n {
		ev, m, ok := sub.Next(ctx)
		if !ok {
			break
		}
		missed += m
		out = append(out, ev)
	}
	return out, missed
}

func TestPublishSubscribeOrder(t *testing.T) {
	h := NewHub(64)
	h.Open("s1")
	sub, err := h.Subscribe("s1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Cancel()
	for i := 1; i <= 10; i++ {
		if last := h.Publish("s1", pay(i)); last != uint64(i) {
			t.Fatalf("publish %d returned seq %d", i, last)
		}
	}
	evs, missed := collect(t, sub, 10)
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if want := fmt.Sprintf(`{"n":%d}`, i+1); string(ev.Data) != want {
			t.Errorf("event %d data = %s, want %s", i, ev.Data, want)
		}
	}
	if missed != 0 {
		t.Errorf("missed = %d, want 0", missed)
	}
}

func TestBatchPublishIsAtomic(t *testing.T) {
	h := NewHub(64)
	h.Open("s1")
	last := h.Publish("s1", pay(1), pay(2), pay(3))
	if last != 3 {
		t.Fatalf("batch publish returned %d, want 3", last)
	}
	sub, err := h.Subscribe("s1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Cancel()
	evs, _ := collect(t, sub, 3)
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq %d at index %d", ev.Seq, i)
		}
	}
}

func TestPublishWithoutTopicIsNoop(t *testing.T) {
	h := NewHub(64)
	if last := h.Publish("ghost", pay(1)); last != 0 {
		t.Fatalf("publish to missing topic returned %d, want 0", last)
	}
	if _, err := h.Subscribe("ghost", 0); err != ErrNoTopic {
		t.Fatalf("subscribe to missing topic: err = %v, want ErrNoTopic", err)
	}
	if got := h.Stats().Published; got != 0 {
		t.Fatalf("published = %d, want 0", got)
	}
}

func TestSlowSubscriberDropAndMark(t *testing.T) {
	h := NewHub(4)
	h.Open("s1")
	sub, err := h.Subscribe("s1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Cancel()
	// 10 events through a 4-slot ring with a reader that never ran: the
	// ring retains 7..10, so 1..6 are lapped past the cursor.
	for i := 1; i <= 10; i++ {
		h.Publish("s1", pay(i))
	}
	evs, missed := collect(t, sub, 4)
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("events = %+v, want seqs 7..10", evs)
	}
	if missed != 6 {
		t.Errorf("missed = %d, want 6", missed)
	}
	if d := h.Stats().Dropped; d != 6 {
		t.Errorf("hub dropped = %d, want 6", d)
	}
}

func TestResumeFromSeq(t *testing.T) {
	h := NewHub(64)
	h.Open("s1")
	for i := 1; i <= 8; i++ {
		h.Publish("s1", pay(i))
	}
	sub, err := h.Subscribe("s1", 5)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Cancel()
	evs, missed := collect(t, sub, 3)
	if len(evs) != 3 || evs[0].Seq != 6 || evs[2].Seq != 8 {
		t.Fatalf("resume from 5: events %+v, want seqs 6..8", evs)
	}
	if missed != 0 {
		t.Errorf("missed = %d, want 0", missed)
	}
	if r := h.Stats().Replays; r != 1 {
		t.Errorf("replays = %d, want 1", r)
	}
}

func TestResumePastRingMarksGap(t *testing.T) {
	h := NewHub(4)
	h.Open("s1")
	for i := 1; i <= 10; i++ {
		h.Publish("s1", pay(i))
	}
	// Resume point 2 left the ring long ago (ring holds 7..10): the first
	// delivery must carry the 4-event gap (seqs 3..6).
	sub, err := h.Subscribe("s1", 2)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Cancel()
	evs, missed := collect(t, sub, 4)
	if len(evs) != 4 || evs[0].Seq != 7 {
		t.Fatalf("events %+v, want seqs 7..10", evs)
	}
	if missed != 4 {
		t.Errorf("missed = %d, want 4 (seqs 3..6)", missed)
	}
}

func TestResumeFromFutureClampsToLive(t *testing.T) {
	h := NewHub(16)
	h.Open("s1")
	h.Publish("s1", pay(1))
	sub, err := h.Subscribe("s1", 99)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Cancel()
	h.Publish("s1", pay(2))
	evs, _ := collect(t, sub, 1)
	if len(evs) != 1 || evs[0].Seq != 2 {
		t.Fatalf("future resume delivered %+v, want just seq 2", evs)
	}
}

func TestCloseTopicDrainsThenEnds(t *testing.T) {
	h := NewHub(16)
	h.Open("s1")
	h.Publish("s1", pay(1), pay(2))
	sub, err := h.Subscribe("s1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	h.CloseTopic("s1")
	ctx := context.Background()
	var seqs []uint64
	for {
		ev, _, ok := sub.Next(ctx)
		if !ok {
			break
		}
		seqs = append(seqs, ev.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("drained seqs = %v, want [1 2]", seqs)
	}
	if h.Topics() != 0 {
		t.Errorf("topics = %d after close, want 0", h.Topics())
	}
	if last := h.Publish("s1", pay(3)); last != 0 {
		t.Errorf("publish after close returned %d, want 0", last)
	}
}

func TestCancelWakesBlockedNext(t *testing.T) {
	h := NewHub(16)
	h.Open("s1")
	sub, err := h.Subscribe("s1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	done := make(chan bool, 1)
	go func() {
		_, _, ok := sub.Next(context.Background())
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	sub.Cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned ok=true after Cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not wake after Cancel")
	}
	if got := h.Stats().Subscribers; got != 0 {
		t.Errorf("subscribers = %d, want 0", got)
	}
	sub.Cancel() // idempotent
	if got := h.Stats().Subscribers; got != 0 {
		t.Errorf("subscribers after double cancel = %d, want 0", got)
	}
}

func TestLagObserver(t *testing.T) {
	h := NewHub(16)
	var maxLag atomic.Int64
	h.SetLagObserver(func(lag int64) {
		for {
			cur := maxLag.Load()
			if lag <= cur || maxLag.CompareAndSwap(cur, lag) {
				return
			}
		}
	})
	h.Open("s1")
	sub, _ := h.Subscribe("s1", 0)
	defer sub.Cancel()
	h.Publish("s1", pay(1), pay(2), pay(3))
	collect(t, sub, 3)
	// First delivery left 2 newer events buffered.
	if got := maxLag.Load(); got != 2 {
		t.Errorf("max observed lag = %d, want 2", got)
	}
}

// TestConcurrentHammer exercises subscribe/publish/unsubscribe races under
// -race: per-subscriber delivered sequences must be strictly increasing and
// contiguous except across reported gaps.
func TestConcurrentHammer(t *testing.T) {
	const (
		sessions    = 8
		publishers  = 4
		perPub      = 200
		subscribers = 16
	)
	h := NewHub(32)
	for i := 0; i < sessions; i++ {
		h.Open(fmt.Sprintf("s%d", i))
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	// Churning subscribers: subscribe, read a while, cancel, resubscribe
	// from the last seen position.
	var violations atomic.Int64
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := fmt.Sprintf("s%d", i%sessions)
			var last uint64
			for ctx.Err() == nil {
				sub, err := h.Subscribe(sess, last)
				if err != nil {
					return
				}
				for j := 0; j < 50; j++ {
					ev, missed, ok := sub.Next(ctx)
					if !ok {
						break
					}
					if ev.Seq != last+missed+1 {
						violations.Add(1)
					}
					last = ev.Seq
				}
				sub.Cancel()
			}
		}(i)
	}

	var pwg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perPub; i++ {
				sess := fmt.Sprintf("s%d", (p+i)%sessions)
				h.Publish(sess, pay(i), pay(i))
			}
		}(p)
	}
	pwg.Wait()
	for i := 0; i < sessions; i++ {
		h.CloseTopic(fmt.Sprintf("s%d", i))
	}
	cancel()
	wg.Wait()

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d sequence violations (non-monotonic or unreported gap)", v)
	}
	st := h.Stats()
	if want := int64(publishers * perPub * 2); st.Published != want {
		t.Errorf("published = %d, want %d", st.Published, want)
	}
	if st.Subscribers != 0 {
		t.Errorf("subscribers = %d after shutdown, want 0", st.Subscribers)
	}
}

func TestRingGrowsLazily(t *testing.T) {
	h := NewHub(1024)
	h.Open("s1")
	// A single publish must not allocate the full ring up front.
	h.Publish("s1", pay(1))
	h.mu.RLock()
	tp := h.topics["s1"]
	h.mu.RUnlock()
	tp.mu.Lock()
	n := len(tp.buf)
	tp.mu.Unlock()
	if n >= 1024 {
		t.Fatalf("ring allocated %d slots for one event", n)
	}
	for i := 2; i <= 1500; i++ {
		h.Publish("s1", pay(i))
	}
	sub, _ := h.Subscribe("s1", 0)
	defer sub.Cancel()
	evs, _ := collect(t, sub, 1024)
	if len(evs) != 1024 || evs[0].Seq != 477 || evs[1023].Seq != 1500 {
		t.Fatalf("ring retained %d events, first %d last %d; want 1024, 477, 1500",
			len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

// Topics reports the number of open topics.
func (h *Hub) Topics() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.topics)
}
