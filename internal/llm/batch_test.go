package llm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordingBackend implements BatchCompleter and records every batch it
// receives. Responses echo the prompt so callers can verify slot routing.
type recordingBackend struct {
	mu      sync.Mutex
	batches [][]Request
	// errFor fails individual requests by prompt; errAll poisons batches.
	errFor map[string]error
	errAll error
	// block, when non-nil, is closed to release CompleteBatch calls.
	block chan struct{}
}

func (r *recordingBackend) Complete(ctx context.Context, req Request) (Response, error) {
	res, err := r.CompleteBatch(ctx, []Request{req})
	if err != nil {
		return Response{}, err
	}
	return res[0].Response, res[0].Err
}

func (r *recordingBackend) CompleteBatch(ctx context.Context, reqs []Request) ([]BatchResult, error) {
	if r.block != nil {
		select {
		case <-r.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	r.mu.Lock()
	cp := make([]Request, len(reqs))
	copy(cp, reqs)
	r.batches = append(r.batches, cp)
	r.mu.Unlock()
	if r.errAll != nil {
		return nil, r.errAll
	}
	out := make([]BatchResult, len(reqs))
	for i, req := range reqs {
		if err := r.errFor[req.Prompt]; err != nil {
			out[i].Err = err
			continue
		}
		out[i].Response = Response{Text: "echo:" + req.Prompt}
	}
	return out, nil
}

func (r *recordingBackend) snapshot() [][]Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]Request(nil), r.batches...)
}

func TestBatcherCoalescesConcurrentCalls(t *testing.T) {
	be := &recordingBackend{}
	b := NewBatcher(be, BatcherConfig{MaxBatch: 8, MaxWait: 50 * time.Millisecond})
	const n = 8 // == MaxBatch so the batch flushes on full, not the deadline
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = b.Complete(context.Background(),
				Request{Prompt: fmt.Sprintf("q%d", i)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if want := fmt.Sprintf("echo:q%d", i); resps[i].Text != want {
			t.Errorf("call %d routed to the wrong slot: got %q want %q", i, resps[i].Text, want)
		}
	}
	batches := be.snapshot()
	total := 0
	for _, bt := range batches {
		total += len(bt)
	}
	if total != n {
		t.Errorf("backend saw %d requests across %d batches, want %d", total, len(batches), n)
	}
	if len(batches) == n {
		t.Errorf("every call ran alone (%d single-request batches): nothing coalesced", n)
	}
	st := b.Stats()
	if st.Calls != n || st.Batched != n {
		t.Errorf("stats: calls=%d batched=%d, want %d/%d", st.Calls, st.Batched, n, n)
	}
	if st.FullFlushes == 0 && st.DeadlineFlushes == 0 {
		t.Error("no flush was counted")
	}
}

func TestBatcherFlushesOnDeadline(t *testing.T) {
	be := &recordingBackend{}
	b := NewBatcher(be, BatcherConfig{MaxBatch: 64, MaxWait: time.Millisecond})
	resp, err := b.Complete(context.Background(), Request{Prompt: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "echo:solo" {
		t.Errorf("resp %q", resp.Text)
	}
	if st := b.Stats(); st.DeadlineFlushes != 1 || st.FullFlushes != 0 {
		t.Errorf("flush stats: deadline=%d full=%d, want 1/0", st.DeadlineFlushes, st.FullFlushes)
	}
}

func TestBatcherDedupsIdenticalRequests(t *testing.T) {
	be := &recordingBackend{block: make(chan struct{})}
	b := NewBatcher(be, BatcherConfig{MaxBatch: 64, MaxWait: time.Millisecond})
	const n = 4
	var wg sync.WaitGroup
	resps := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], _ = b.Complete(context.Background(), Request{Prompt: "same"})
		}(i)
	}
	// Release the backend once all callers joined one batch (the block also
	// keeps the deadline flush from racing ahead of the joiners).
	time.Sleep(20 * time.Millisecond)
	close(be.block)
	wg.Wait()
	for i, r := range resps {
		if r.Text != "echo:same" {
			t.Errorf("caller %d: %q", i, r.Text)
		}
	}
	st := b.Stats()
	if st.Deduped == 0 {
		t.Error("no call was deduplicated")
	}
	if st.Calls != n || st.Batched+st.Deduped != n {
		t.Errorf("stats: calls=%d batched=%d deduped=%d", st.Calls, st.Batched, st.Deduped)
	}
}

func TestBatcherIsolatesPerRequestErrors(t *testing.T) {
	boom := errors.New("boom")
	be := &recordingBackend{errFor: map[string]error{"bad": boom}}
	b := NewBatcher(be, BatcherConfig{MaxBatch: 2, MaxWait: 50 * time.Millisecond})
	var wg sync.WaitGroup
	var goodResp Response
	var goodErr, badErr error
	wg.Add(2)
	go func() { defer wg.Done(); goodResp, goodErr = b.Complete(context.Background(), Request{Prompt: "good"}) }()
	go func() { defer wg.Done(); _, badErr = b.Complete(context.Background(), Request{Prompt: "bad"}) }()
	wg.Wait()
	if goodErr != nil || goodResp.Text != "echo:good" {
		t.Errorf("good call poisoned by its batchmate: resp=%q err=%v", goodResp.Text, goodErr)
	}
	if !errors.Is(badErr, boom) {
		t.Errorf("bad call: err=%v, want %v", badErr, boom)
	}
}

// fallbackClient does NOT implement BatchCompleter, forcing the batcher's
// concurrent per-request fallback.
type fallbackClient struct {
	calls atomic.Int64
}

func (f *fallbackClient) Complete(_ context.Context, req Request) (Response, error) {
	f.calls.Add(1)
	return Response{Text: "echo:" + req.Prompt}, nil
}

func TestBatcherFallsBackToPerRequestCalls(t *testing.T) {
	fc := &fallbackClient{}
	b := NewBatcher(fc, BatcherConfig{MaxBatch: 4, MaxWait: 20 * time.Millisecond})
	var wg sync.WaitGroup
	resps := make([]Response, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], _ = b.Complete(context.Background(), Request{Prompt: fmt.Sprintf("q%d", i)})
		}(i)
	}
	wg.Wait()
	for i, r := range resps {
		if want := fmt.Sprintf("echo:q%d", i); r.Text != want {
			t.Errorf("call %d: got %q want %q", i, r.Text, want)
		}
	}
	if got := fc.calls.Load(); got != 4 {
		t.Errorf("inner Complete calls: %d, want 4", got)
	}
}

func TestBatcherCanceledCallerAbandonsWithoutPoisoningBatch(t *testing.T) {
	be := &recordingBackend{block: make(chan struct{})}
	b := NewBatcher(be, BatcherConfig{MaxBatch: 64, MaxWait: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var canceledErr, survivorErr error
	var survivorResp Response
	wg.Add(2)
	go func() { defer wg.Done(); _, canceledErr = b.Complete(ctx, Request{Prompt: "doomed"}) }()
	go func() {
		defer wg.Done()
		survivorResp, survivorErr = b.Complete(context.Background(), Request{Prompt: "alive"})
	}()
	time.Sleep(10 * time.Millisecond) // both joined; backend blocked
	cancel()
	time.Sleep(10 * time.Millisecond)
	close(be.block)
	wg.Wait()
	if !errors.Is(canceledErr, context.Canceled) {
		t.Errorf("canceled caller: err=%v", canceledErr)
	}
	if survivorErr != nil || survivorResp.Text != "echo:alive" {
		t.Errorf("survivor: resp=%q err=%v — one caller's cancellation must not kill the batch",
			survivorResp.Text, survivorErr)
	}
}

func TestBatcherAllAbandonedCancelsBackendCall(t *testing.T) {
	be := &recordingBackend{block: make(chan struct{})}
	defer close(be.block)
	b := NewBatcher(be, BatcherConfig{MaxBatch: 64, MaxWait: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Complete(ctx, Request{Prompt: fmt.Sprintf("q%d", i)})
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	cancel() // every caller abandons; the backend ctx must be canceled
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller %d: err=%v", i, err)
		}
	}
	// The blocked CompleteBatch must return via the batch ctx without doing
	// work: the backend records a batch only on the success path.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && len(be.snapshot()) == 0 &&
		b.Stats().AbandonedBatches == 0 && b.Stats().Batches == 0 {
		time.Sleep(time.Millisecond)
	}
	if got := be.snapshot(); len(got) != 0 {
		t.Errorf("abandoned batch still completed %d batches against the backend", len(got))
	}
}

func TestBatcherMismatchedBackendLengthFailsEverySlot(t *testing.T) {
	be := &shortBackend{}
	b := NewBatcher(be, BatcherConfig{MaxBatch: 2, MaxWait: 20 * time.Millisecond})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Complete(context.Background(), Request{Prompt: fmt.Sprintf("q%d", i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d: expected an error from the short backend", i)
		}
	}
}

// shortBackend returns fewer results than requests — a broken backend the
// batcher must not index out of range on.
type shortBackend struct{}

func (s *shortBackend) Complete(context.Context, Request) (Response, error) {
	return Response{Text: "ok"}, nil
}

func (s *shortBackend) CompleteBatch(_ context.Context, reqs []Request) ([]BatchResult, error) {
	if len(reqs) < 2 {
		out := make([]BatchResult, len(reqs))
		for i := range out {
			out[i].Response = Response{Text: "ok"}
		}
		return out, nil
	}
	return []BatchResult{{Response: Response{Text: "ok"}}}, nil
}

// TestBatcherStress hammers one batcher from many goroutines with mixed
// cancellation under -race: every non-canceled call must get its own
// prompt's echo back.
func TestBatcherStress(t *testing.T) {
	be := &recordingBackend{}
	b := NewBatcher(be, BatcherConfig{MaxBatch: 4, MaxWait: 100 * time.Microsecond, MaxConcurrent: 2})
	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if (w+i)%5 == 0 {
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				}
				prompt := fmt.Sprintf("w%d-i%d", w, i%7)
				resp, err := b.Complete(ctx, Request{Prompt: prompt})
				cancel()
				if err == nil && resp.Text != "echo:"+prompt {
					failures.Add(1)
				}
				if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
					!errors.Is(err, context.Canceled) {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d calls got a wrong slot or an unexpected error", n)
	}
	st := b.Stats()
	if st.Calls != workers*perWorker {
		t.Errorf("calls=%d, want %d", st.Calls, workers*perWorker)
	}
}

// A call whose context is already canceled returns at once, reaches no
// batch, and still counts in Calls ("requests entering Complete").
func TestBatcherCountsCanceledCall(t *testing.T) {
	be := &recordingBackend{}
	b := NewBatcher(be, BatcherConfig{MaxBatch: 4, MaxWait: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Complete(ctx, Request{Prompt: "p"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := b.Stats(); st.Calls != 1 || st.Batched != 0 {
		t.Fatalf("stats: calls=%d batched=%d, want 1/0", st.Calls, st.Batched)
	}
	if got := be.snapshot(); len(got) != 0 {
		t.Fatalf("backend saw %d batches", len(got))
	}
}
