// Package pubsub is the session-event fanout hub: one topic per live
// session, each a bounded ring of sequenced events that any number of
// subscribers follow concurrently.
//
// The design point is that a subscriber can never slow down a publisher.
// Publish appends to the ring and pokes each subscriber's capacity-1 notify
// channel with a non-blocking send — O(subscribers) pointer work under one
// topic lock, no per-subscriber queue, no blocking sends. Subscribers pull
// at their own pace through a cursor into the shared ring; one that stalls
// long enough for the ring to lap its cursor does not stop the world — its
// cursor is jumped forward to the oldest retained event and the number of
// events it missed is recorded on the subscription (drop-and-mark), so the
// reader learns its view has a gap instead of silently losing turns.
//
// Sequence numbers start at 1 and increase by exactly 1 per event within a
// topic, which makes resumption trivial: a client that saw sequence N
// subscribes with after=N and receives N+1, N+2, ... — replayed from the
// ring if still retained, marked as missed if not. The hub itself assigns
// no meaning to event types or payloads; internal/server publishes exactly
// the lifecycle events it journals, which is what makes a rebuilt topic
// (crash recovery, cluster failover) reproduce the same sequence numbers
// for the same turns.
package pubsub

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// DefaultRingSize is the per-session ring capacity when the caller does not
// choose one. A turn publishes ~5 events, so the default retains roughly
// the last 50 turns for Last-Event-ID resumption — far past the point
// where a client should re-fetch /history instead.
const DefaultRingSize = 256

// ErrNoTopic reports a Subscribe against a session with no open topic
// (never created here, or already closed by delete/handoff).
var ErrNoTopic = errors.New("pubsub: no such topic")

// Payload is one event to publish: a type tag plus its wire bytes. Data
// must not be mutated after publishing — subscribers read it unsynchronized.
type Payload struct {
	Type string
	Data []byte
}

// Event is one sequenced event delivered to a subscriber.
type Event struct {
	Seq  uint64
	Type string
	Data []byte
}

// Stats is a snapshot of the hub's cumulative counters.
type Stats struct {
	// Published counts events appended across all topics.
	Published int64
	// Dropped counts events subscribers missed because the ring lapped
	// their cursor (summed over subscribers: one lapped event missed by two
	// subscribers counts twice).
	Dropped int64
	// Replays counts subscriptions that resumed from a prior position
	// (Subscribe with after > 0).
	Replays int64
	// Subscribers is the number of currently attached subscriptions.
	Subscribers int64
}

// Hub owns the per-session topics. The zero value is not usable; create
// with NewHub.
type Hub struct {
	ring int

	mu     sync.RWMutex
	topics map[string]*topic

	published   atomic.Int64
	dropped     atomic.Int64
	replays     atomic.Int64
	subscribers atomic.Int64

	// lagObs, when set, observes how many newer events remained buffered
	// after each delivery — the subscriber's backlog in events.
	lagObs atomic.Pointer[func(eventsBehind int64)]
}

// NewHub builds a hub whose topics retain up to ringSize events each
// (DefaultRingSize when ringSize <= 0).
func NewHub(ringSize int) *Hub {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Hub{ring: ringSize, topics: make(map[string]*topic)}
}

// SetLagObserver installs fn to observe each delivery's backlog (how many
// newer events the subscriber still has buffered). Safe to call
// concurrently with publishes.
func (h *Hub) SetLagObserver(fn func(eventsBehind int64)) {
	h.lagObs.Store(&fn)
}

// Stats snapshots the cumulative counters.
func (h *Hub) Stats() Stats {
	return Stats{
		Published:   h.published.Load(),
		Dropped:     h.dropped.Load(),
		Replays:     h.replays.Load(),
		Subscribers: h.subscribers.Load(),
	}
}

// Open ensures a topic exists for the session. Reopening an existing topic
// is a no-op; reopening a closed one starts a fresh topic at sequence 1
// (the server only does this when the session id itself is being reused,
// which the id watermark prevents for journaled serving).
func (h *Hub) Open(session string) {
	h.mu.Lock()
	if _, ok := h.topics[session]; !ok {
		h.topics[session] = &topic{ring: h.ring, nextSeq: 1}
	}
	h.mu.Unlock()
}

// Publish appends the payloads to the session's topic as one atomic batch —
// subscribers never observe a gap inside the batch, and no other publisher
// (a concurrent delete) can interleave into it. Returns the sequence number
// of the last event published, or 0 when the topic does not exist (already
// closed, or never opened): publishing to a dead session is a deliberate
// no-op so a turn racing a delete cannot resurrect its event stream.
func (h *Hub) Publish(session string, events ...Payload) uint64 {
	if len(events) == 0 {
		return 0
	}
	h.mu.RLock()
	t := h.topics[session]
	h.mu.RUnlock()
	if t == nil {
		return 0
	}
	last := t.publish(events)
	if last > 0 {
		h.published.Add(int64(len(events)))
	}
	return last
}

// Subscribe attaches a subscriber to the session's topic, positioned just
// after sequence number `after` (0 subscribes from the oldest retained
// event). A position the ring no longer retains is clamped forward and the
// gap is reported through the subscription's Missed accounting, exactly as
// a live lap would be.
func (h *Hub) Subscribe(session string, after uint64) (*Subscription, error) {
	h.mu.RLock()
	t := h.topics[session]
	h.mu.RUnlock()
	if t == nil {
		return nil, ErrNoTopic
	}
	sub, ok := t.subscribe(h, after)
	if !ok {
		return nil, ErrNoTopic
	}
	h.subscribers.Add(1)
	if after > 0 {
		h.replays.Add(1)
	}
	return sub, nil
}

// CloseTopic ends the session's topic: subscribers drain whatever the ring
// still holds, then their Next returns ok=false. Publishing to a closed
// topic is a no-op. Closing an absent topic is a no-op.
func (h *Hub) CloseTopic(session string) {
	h.mu.Lock()
	t := h.topics[session]
	delete(h.topics, session)
	h.mu.Unlock()
	if t != nil {
		t.close()
	}
}

// ---------------------------------------------------------------------------

// topic is one session's event ring plus its subscribers. buf is a circular
// buffer: head indexes the oldest retained event, count is the number
// retained, and the event at sequence q (firstSeq <= q < nextSeq, where
// firstSeq = nextSeq-count) lives at buf[(head + q - firstSeq) % len(buf)].
type topic struct {
	ring int

	mu      sync.Mutex
	buf     []Event
	head    int
	count   int
	nextSeq uint64
	subs    map[*Subscription]struct{}
	closed  bool
}

func (t *topic) publish(events []Payload) (last uint64) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0
	}
	if t.buf == nil {
		n := len(events)
		if n < 8 {
			n = 8
		}
		if n > t.ring {
			n = t.ring
		}
		t.buf = make([]Event, n)
	}
	for _, ev := range events {
		if t.count == len(t.buf) && t.count < t.ring {
			t.grow()
		}
		if t.count == len(t.buf) {
			// Ring full: overwrite the oldest. Subscribers still behind it
			// discover the lap in Next and take the miss there.
			t.head = (t.head + 1) % len(t.buf)
			t.count--
		}
		t.buf[(t.head+t.count)%len(t.buf)] = Event{Seq: t.nextSeq, Type: ev.Type, Data: ev.Data}
		t.nextSeq++
		t.count++
	}
	last = t.nextSeq - 1
	for sub := range t.subs {
		sub.notifyLocked()
	}
	t.mu.Unlock()
	return last
}

// grow doubles the circular buffer up to the ring cap, relinearizing so
// head restarts at 0. Caller holds t.mu.
func (t *topic) grow() {
	n := 2 * len(t.buf)
	if n > t.ring {
		n = t.ring
	}
	nb := make([]Event, n)
	for i := 0; i < t.count; i++ {
		nb[i] = t.buf[(t.head+i)%len(t.buf)]
	}
	t.buf, t.head = nb, 0
}

func (t *topic) subscribe(h *Hub, after uint64) (*Subscription, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, false
	}
	sub := &Subscription{
		h:      h,
		t:      t,
		next:   after + 1,
		notify: make(chan struct{}, 1),
	}
	firstSeq := t.nextSeq - uint64(t.count)
	if sub.next < firstSeq {
		// The requested resume point has already left the ring: clamp
		// forward and mark the gap, same as a live lap.
		gap := firstSeq - sub.next
		sub.missed += gap
		h.dropped.Add(int64(gap))
		sub.next = firstSeq
	}
	if sub.next > t.nextSeq {
		// A position from the future (a client replaying a stale id against
		// a rebuilt topic) delivers only what actually gets published.
		sub.next = t.nextSeq
	}
	if t.subs == nil {
		t.subs = make(map[*Subscription]struct{})
	}
	t.subs[sub] = struct{}{}
	return sub, true
}

func (t *topic) close() {
	t.mu.Lock()
	t.closed = true
	for sub := range t.subs {
		sub.notifyLocked()
	}
	t.mu.Unlock()
}

// ---------------------------------------------------------------------------

// Subscription is one subscriber's cursor into a topic. Next is not safe
// for concurrent use by multiple goroutines; everything else is.
type Subscription struct {
	h *Hub
	t *topic

	// Guarded by t.mu.
	next     uint64 // sequence number of the next event to deliver
	missed   uint64 // events lapped past this cursor, not yet taken
	canceled bool

	// notify has capacity 1: a publisher's non-blocking send either parks a
	// token or finds one already parked — either way Next wakes and re-reads
	// the ring, so no publish is ever lost and no publisher ever blocks.
	notify chan struct{}
}

// notifyLocked pokes the subscriber. Caller holds t.mu.
func (s *Subscription) notifyLocked() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until an event is available, the topic closes, the context is
// done, or the subscription is canceled. missed is the number of events
// lapped past this cursor since the previous delivery — captured atomically
// with the delivered event, so ev.Seq always equals (previous ev.Seq) +
// missed + 1. ok=false means no more events will ever be delivered
// (closed/done/canceled); the ring's remaining events are always drained
// before a close is reported.
func (s *Subscription) Next(ctx context.Context) (ev Event, missed uint64, ok bool) {
	t := s.t
	for {
		t.mu.Lock()
		if s.canceled {
			t.mu.Unlock()
			return Event{}, 0, false
		}
		firstSeq := t.nextSeq - uint64(t.count)
		if s.next < firstSeq {
			gap := firstSeq - s.next
			s.missed += gap
			s.h.dropped.Add(int64(gap))
			s.next = firstSeq
		}
		if s.next < t.nextSeq {
			ev = t.buf[(t.head+int(s.next-firstSeq))%len(t.buf)]
			missed, s.missed = s.missed, 0
			s.next++
			lag := int64(t.nextSeq - s.next)
			t.mu.Unlock()
			if fn := s.h.lagObs.Load(); fn != nil {
				(*fn)(lag)
			}
			return ev, missed, true
		}
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return Event{}, 0, false
		}
		select {
		case <-ctx.Done():
			return Event{}, 0, false
		case <-s.notify:
		}
	}
}

// Cancel detaches the subscription; a concurrent or later Next returns
// ok=false. Idempotent.
func (s *Subscription) Cancel() {
	t := s.t
	t.mu.Lock()
	if s.canceled {
		t.mu.Unlock()
		return
	}
	s.canceled = true
	delete(t.subs, s)
	s.notifyLocked()
	t.mu.Unlock()
	s.h.subscribers.Add(-1)
}
