package llm

import (
	"context"
	"errors"
	"testing"
	"time"
)

// scripted is a test client that counts its calls and always succeeds.
type scripted struct {
	calls int
}

func (s *scripted) Complete(context.Context, Request) (Response, error) {
	s.calls++
	return Response{Text: "ok"}, nil
}

func TestFlakyInjectsDeterministically(t *testing.T) {
	inner := &scripted{}
	f := &Flaky{Inner: inner, FailEvery: 3}
	var failures int
	for i := 0; i < 9; i++ {
		if _, err := f.Complete(context.Background(), Request{Prompt: "p"}); err != nil {
			failures++
			if !errors.Is(err, ErrInjected) {
				t.Errorf("injected failure is %v, want ErrInjected", err)
			}
		}
	}
	if failures != 3 || inner.calls != 6 {
		t.Errorf("failures: %d, inner calls: %d; want 3 and 6", failures, inner.calls)
	}
}

// TestFlakyLatencyHonorsCancellation checks that a context canceled during
// injected latency surfaces ctx.Err() without reaching the inner client.
func TestFlakyLatencyHonorsCancellation(t *testing.T) {
	inner := &scripted{}
	f := &Flaky{Inner: inner, Latency: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := f.Complete(ctx, Request{Prompt: "p"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if inner.calls != 0 {
		t.Errorf("inner client called %d times during canceled latency", inner.calls)
	}
}

// TestFlakyLatencyDelays checks the fixed delay actually elapses.
func TestFlakyLatencyDelays(t *testing.T) {
	f := &Flaky{Inner: &scripted{}, Latency: 10 * time.Millisecond}
	t0 := time.Now()
	if _, err := f.Complete(context.Background(), Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < 10*time.Millisecond {
		t.Errorf("call returned after %v, want >= 10ms", el)
	}
	if f.Calls() != 1 {
		t.Errorf("Calls() = %d, want 1", f.Calls())
	}
}

// TestFlakyConcurrent hammers one wrapper from many goroutines under -race;
// the total call count and the number of injected failures must be exact.
func TestFlakyConcurrent(t *testing.T) {
	f := &Flaky{Inner: &scriptedConcurrent{}, FailEvery: 4}
	const goroutines, per = 8, 50
	failures := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			n := 0
			for i := 0; i < per; i++ {
				if _, err := f.Complete(context.Background(), Request{Prompt: "p"}); err != nil {
					n++
				}
			}
			failures <- n
		}()
	}
	total := 0
	for g := 0; g < goroutines; g++ {
		total += <-failures
	}
	if f.Calls() != goroutines*per || total != goroutines*per/4 {
		t.Errorf("Calls() = %d, failures = %d; want %d and %d", f.Calls(), total, goroutines*per, goroutines*per/4)
	}
}

// scriptedConcurrent is a trivially successful client safe for concurrent
// use (scripted mutates an unguarded counter).
type scriptedConcurrent struct{}

func (scriptedConcurrent) Complete(context.Context, Request) (Response, error) {
	return Response{Text: "ok"}, nil
}
