// Batching dispatcher: the async serving layer in front of Client.
//
// Real LLM backends reward batching — one batched call amortizes network
// round-trips, scheduling and prefill work across requests — and punish
// convoy effects, where a burst of independent callers serializes into a
// queue of single-prompt calls. Batcher sits in front of any Client and
// collects concurrent Complete calls into deadline-bounded batches: a call
// joins the currently collecting batch, and the batch flushes when it
// reaches MaxBatch requests or when its oldest call has waited MaxWait,
// whichever comes first.
//
// The dispatcher is singleflight-aware on two levels. Upstream, the
// assistant's AnswerMemo already collapses identical (db, question) asks
// into one pipeline run, so the batcher mostly sees distinct prompts;
// within a batch, identical Requests are additionally deduplicated into one
// slot whose response every duplicate caller shares.
//
// Cancellation composes with the serving path's context threading: a caller
// whose ctx is canceled abandons its slot immediately (the batch keeps
// running for the survivors), and a batch whose every caller has abandoned
// cancels its backend call, so work nobody is waiting for stops consuming
// the LLM.
package llm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BatchResult is one request's outcome within a batched completion.
type BatchResult struct {
	Response Response
	Err      error
}

// BatchCompleter is the optional batched surface of a backend. A Batcher
// whose inner client implements it issues one CompleteBatch call per flush;
// otherwise it falls back to concurrent per-request Complete calls (the
// batch still bounds and aligns them, so admission and dedup semantics are
// identical). The returned slice must have one entry per request; a
// non-nil error poisons every entry of the batch.
type BatchCompleter interface {
	CompleteBatch(ctx context.Context, reqs []Request) ([]BatchResult, error)
}

// BatcherConfig tunes a Batcher.
type BatcherConfig struct {
	// MaxBatch is the largest batch; a batch reaching it flushes
	// immediately. <= 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxWait bounds how long the first call of a batch waits for company
	// before the batch flushes anyway. <= 0 means DefaultMaxWait.
	MaxWait time.Duration
	// MaxConcurrent caps the number of batches in flight against the
	// backend at once — the LLM stage's concurrency limit. Excess batches
	// queue (their callers keep waiting). <= 0 means unlimited.
	MaxConcurrent int
}

// DefaultMaxBatch is the batch-size cap of a Batcher configured with zero
// MaxBatch.
const DefaultMaxBatch = 8

// DefaultMaxWait is the collection deadline of a Batcher configured with
// zero MaxWait: long enough for a concurrent burst to coalesce, short
// enough to be invisible next to a real model's inference time.
const DefaultMaxWait = 2 * time.Millisecond

// BatcherStats is a point-in-time snapshot of a Batcher's counters.
type BatcherStats struct {
	// Calls counts requests entering Complete (duplicates included).
	Calls int64
	// Batched counts distinct requests sent to the backend.
	Batched int64
	// Batches counts flushes that reached the backend.
	Batches int64
	// Deduped counts calls that shared an identical in-batch request's slot.
	Deduped int64
	// FullFlushes counts batches flushed by reaching MaxBatch.
	FullFlushes int64
	// DeadlineFlushes counts batches flushed by the MaxWait deadline.
	DeadlineFlushes int64
	// AbandonedBatches counts batches canceled because every caller's
	// context was done before the flush completed.
	AbandonedBatches int64
}

// Batcher collects concurrent Complete calls into bounded batches. Safe for
// concurrent use. Build with NewBatcher.
type Batcher struct {
	inner    Client
	binner   BatchCompleter // non-nil when inner implements BatchCompleter
	maxBatch int
	maxWait  time.Duration
	sem      chan struct{} // nil = unlimited concurrent flushes

	// flushObs, when set via SetFlushObserver, sees every flush that
	// reached the backend.
	flushObs atomic.Value // func(size int, wait time.Duration)

	mu  sync.Mutex
	cur *batch

	calls, batched, batches, deduped atomic.Int64
	fullFlushes, deadlineFlushes     atomic.Int64
	abandonedBatches                 atomic.Int64
}

// batch is one collecting/in-flight group of requests. Requests append
// under the Batcher mutex until the batch detaches (reaches MaxBatch, hits
// its deadline, or loses its last caller); results become readable when
// done closes.
type batch struct {
	start   time.Time
	reqs    []Request
	index   map[Request]int // dedup: identical Request -> one slot
	results []BatchResult

	full chan struct{} // closed (under b.mu) when the batch reaches MaxBatch
	done chan struct{} // closed when results are ready

	// live counts callers still waiting, guarded by the Batcher mutex.
	// When it reaches zero before done, the last abandoning caller detaches
	// the batch and cancels ctx so the backend call stops.
	live   int
	ctx    context.Context
	cancel context.CancelFunc
}

// NewBatcher wraps inner with a batching dispatcher.
func NewBatcher(inner Client, cfg BatcherConfig) *Batcher {
	b := &Batcher{inner: inner, maxBatch: cfg.MaxBatch, maxWait: cfg.MaxWait}
	if b.maxBatch <= 0 {
		b.maxBatch = DefaultMaxBatch
	}
	if b.maxWait <= 0 {
		b.maxWait = DefaultMaxWait
	}
	if bc, ok := inner.(BatchCompleter); ok {
		b.binner = bc
	}
	if cfg.MaxConcurrent > 0 {
		b.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return b
}

// SetFlushObserver installs fn to observe every flush that reaches the
// backend: the number of distinct requests and how long the batch collected
// before flushing. Wiring code points this at a latency histogram; a nil fn
// removes the observer.
func (b *Batcher) SetFlushObserver(fn func(size int, wait time.Duration)) {
	b.flushObs.Store(fn)
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Calls:            b.calls.Load(),
		Batched:          b.batched.Load(),
		Batches:          b.batches.Load(),
		Deduped:          b.deduped.Load(),
		FullFlushes:      b.fullFlushes.Load(),
		DeadlineFlushes:  b.deadlineFlushes.Load(),
		AbandonedBatches: b.abandonedBatches.Load(),
	}
}

// Complete implements Client: the request joins the collecting batch (or
// opens one) and blocks until the batch's backend call delivers its slot. A
// canceled ctx abandons the slot without disturbing the other callers.
func (b *Batcher) Complete(ctx context.Context, req Request) (Response, error) {
	b.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}

	b.mu.Lock()
	bat := b.cur
	if bat == nil {
		bctx, cancel := context.WithCancel(context.Background())
		bat = &batch{
			start: time.Now(),
			index: make(map[Request]int, b.maxBatch),
			full:  make(chan struct{}),
			done:  make(chan struct{}),
			ctx:   bctx, cancel: cancel,
		}
		b.cur = bat
		go b.flushAfterDeadline(bat)
	}
	idx, dup := bat.index[req]
	if !dup {
		idx = len(bat.reqs)
		bat.reqs = append(bat.reqs, req)
		bat.index[req] = idx
	} else {
		b.deduped.Add(1)
	}
	bat.live++
	if len(bat.reqs) >= b.maxBatch {
		// Detach so the next call opens a fresh batch, and wake the
		// deadline goroutine early.
		b.cur = nil
		close(bat.full)
	}
	b.mu.Unlock()

	select {
	case <-bat.done:
		res := bat.results[idx]
		return res.Response, res.Err
	case <-ctx.Done():
		b.abandon(bat)
		return Response{}, ctx.Err()
	}
}

// abandon releases one caller's claim on bat. The last caller to leave
// detaches the batch (so no newcomer joins a doomed group) and cancels its
// backend context: work nobody is waiting for stops.
func (b *Batcher) abandon(bat *batch) {
	b.mu.Lock()
	bat.live--
	last := bat.live == 0
	if last && b.cur == bat {
		b.cur = nil
	}
	b.mu.Unlock()
	if last {
		bat.cancel()
	}
}

// flushAfterDeadline owns one batch's lifecycle: wait for it to fill or for
// MaxWait to elapse, then run the backend call and publish the results.
func (b *Batcher) flushAfterDeadline(bat *batch) {
	defer bat.cancel()
	timer := time.NewTimer(b.maxWait)
	defer timer.Stop()
	select {
	case <-bat.full:
		b.fullFlushes.Add(1)
	case <-timer.C:
		b.mu.Lock()
		if b.cur == bat {
			b.cur = nil
		}
		b.mu.Unlock()
		b.deadlineFlushes.Add(1)
	case <-bat.ctx.Done():
		// Every caller abandoned while the batch was still collecting; the
		// abandon path already detached it. Nothing to deliver.
		b.abandonedBatches.Add(1)
		close(bat.done)
		return
	}
	// Detached: reqs is immutable from here (appends happen only while the
	// batch is b.cur, and both detach paths synchronize through b.mu or the
	// full channel).
	wait := time.Since(bat.start)
	if b.sem != nil {
		select {
		case b.sem <- struct{}{}:
			defer func() { <-b.sem }()
		case <-bat.ctx.Done():
			b.abandonedBatches.Add(1)
			close(bat.done)
			return
		}
	}
	bat.results = make([]BatchResult, len(bat.reqs))
	if b.binner != nil {
		res, err := b.binner.CompleteBatch(bat.ctx, bat.reqs)
		switch {
		case err != nil:
			for i := range bat.results {
				bat.results[i].Err = err
			}
		case len(res) != len(bat.reqs):
			err := fmt.Errorf("llm: batch backend returned %d results for %d requests", len(res), len(bat.reqs))
			for i := range bat.results {
				bat.results[i].Err = err
			}
		default:
			copy(bat.results, res)
		}
	} else {
		// Fallback for per-request backends: the batch still aligns the
		// calls, they just run as one concurrent wave.
		var wg sync.WaitGroup
		for i := range bat.reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := b.inner.Complete(bat.ctx, bat.reqs[i])
				bat.results[i] = BatchResult{Response: resp, Err: err}
			}(i)
		}
		wg.Wait()
	}
	b.batches.Add(1)
	b.batched.Add(int64(len(bat.reqs)))
	if fn, ok := b.flushObs.Load().(func(size int, wait time.Duration)); ok && fn != nil {
		fn(len(bat.reqs), wait)
	}
	close(bat.done)
}
