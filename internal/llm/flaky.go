package llm

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Flaky is a fault-injecting Client wrapper for failure testing. It fails
// deterministically (every Nth call) and delays calls (a fixed latency)
// while honoring context cancellation.
//
// Safe for concurrent use. The fault schedule is a function of call order,
// so a single-goroutine test replays identically run after run.
type Flaky struct {
	Inner Client
	// FailEvery makes call numbers divisible by it fail (must be >= 1 to
	// take effect).
	FailEvery int
	// Latency delays every call before it fails or forwards, modeling an
	// in-flight request. The wait honors ctx: cancellation during the
	// delay returns ctx.Err() instead of a response.
	Latency time.Duration

	mu    sync.Mutex
	calls int
}

// ErrInjected is the error Flaky returns for every failure it injects.
var ErrInjected = errors.New("injected failure")

// Calls reports how many Complete calls the wrapper has seen.
func (f *Flaky) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Complete injects the configured latency and failures, then forwards.
func (f *Flaky) Complete(ctx context.Context, req Request) (Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.FailEvery >= 1 && f.calls%f.FailEvery == 0
	f.mu.Unlock()
	if f.Latency > 0 {
		select {
		case <-ctx.Done():
			return Response{}, ctx.Err()
		case <-time.After(f.Latency):
		}
	}
	if fail {
		return Response{}, ErrInjected
	}
	return f.Inner.Complete(ctx, req)
}
