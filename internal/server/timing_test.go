//go:build !race

// Latency and time-budget guards of the serving scenarios. Timings under
// the race detector say nothing, so this file builds only without it.
package server

import (
	"path/filepath"
	"sort"
	"testing"
	"time"

	"fisql/internal/obs"
	"fisql/internal/persist"
)

// TestAdmissionOverloadP99 is the overload scenario's latency half:
// admitted asks stay fast at four times capacity. An admitted ask waits at
// most the queue timeout plus one service time, so the overload p99 stays
// within 3x the at-capacity p99 plus 30 ms for timer noise. At capacity
// (as many ask loops as the limit) nothing is shed.
func TestAdmissionOverloadP99(t *testing.T) {
	ts, j, _ := overloadServer(t, filepath.Join(t.TempDir(), "journal"))
	defer j.Close()
	defer ts.Close()
	atCapacity, overloaded := driveOverload(t, ts.URL)
	if atCapacity.sheds != 0 {
		t.Errorf("at-capacity phase shed %d asks: %d loops against an ask limit of %d never queue past it",
			atCapacity.sheds, overloadAskLimit, overloadAskLimit)
	}
	base, over := percentile(atCapacity.oks, 99), percentile(overloaded.oks, 99)
	bound := 3*base + 30*time.Millisecond
	t.Logf("at capacity: %d oks, p99 %s; overload: %d oks, %d sheds, p99 %s (bound %s)",
		len(atCapacity.oks), base, len(overloaded.oks), overloaded.sheds, over, bound)
	if over > bound {
		t.Errorf("overload p99 %s exceeds 3 x at-capacity p99 %s + 30ms = %s", over, base, bound)
	}
}

// TestCrashRecoveryBudget times recovery of the 300-session restart
// workload: opening the journal and replaying it takes at most a second.
func TestCrashRecoveryBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	journalRestartWorkload(t, path)

	t0 := time.Now()
	j, err := persist.Open(path, persist.Options{Fsync: persist.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := New(map[string]SessionFactory{"aep": factory(t)}, WithJournal(j))
	took := time.Since(t0)
	if n := srv.Recovery().Sessions; n != restartSessions {
		t.Errorf("recovered %d sessions, want %d", n, restartSessions)
	}
	if took > time.Second {
		t.Errorf("recovery of %d sessions took %s, budget 1s", restartSessions, took)
	}
}

// TestEventsStalledReaderAskP99: with four followers and a stalled reader
// attached, ask p99 stays within 4x the p99 of the same asks on a session
// nobody watches, plus 50 ms for timer noise.
func TestEventsStalledReaderAskP99(t *testing.T) {
	ts := fanoutServer(t, WithMetrics(obs.NewMetrics()))
	f := factory(t)
	sid := newTestSession(t, ts)
	baseline := make([]time.Duration, 0, fanoutAsks)
	for i := 0; i < fanoutAsks; i++ {
		t0 := time.Now()
		askPlain(t, ts, sid, f.ds.Examples[i].Question)
		baseline = append(baseline, time.Since(t0))
	}
	sort.Slice(baseline, func(i, j int) bool { return baseline[i] < baseline[j] })
	_, watched := watchSession(t, ts)

	base, loaded := percentile(baseline, 99), percentile(watched, 99)
	if bound := 4*base + 50*time.Millisecond; loaded > bound {
		t.Errorf("ask p99 with subscribers %s exceeds 4 x baseline %s + 50ms = %s", loaded, base, bound)
	}
}
