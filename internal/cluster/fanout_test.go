// Fanout through the cluster: GET /v1/sessions/{id}/events is pinned to
// the session's owner like every other per-session route, and the event
// sequence survives owner failover. The contract under test, shared with
// DESIGN.md "Session-event fanout": sequence numbers are a pure function
// of the session's acknowledged history, so a promoted follower re-seeds
// the exact sequence the dead owner had published — a subscriber that
// reconnects with Last-Event-ID sees no regressed, missing or duplicated
// sequence number across the failover.
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type fanoutFrame struct {
	id   string
	name string
	data string
}

// readFanoutFrame parses one SSE frame (optional id line, event line, data
// line, blank terminator) from a live stream.
func readFanoutFrame(r *bufio.Reader) (fanoutFrame, error) {
	var f fanoutFrame
	started := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "" {
			if started {
				return f, nil
			}
			continue
		}
		started = true
		switch {
		case strings.HasPrefix(line, "id: "):
			f.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			f.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		default:
			return f, fmt.Errorf("unexpected SSE line %q", line)
		}
	}
}

// subscribeEvents opens the fanout stream through the router; it ends when
// ctx does. from > 0 resumes via Last-Event-ID.
func subscribeEvents(ctx context.Context, tc *testCluster, id string, from uint64) (*http.Response, *bufio.Reader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tc.url()+"/v1/sessions/"+id+"/events", nil)
	if err != nil {
		return nil, nil, err
	}
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(from, 10))
	}
	resp, err := tc.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, nil, fmt.Errorf("subscribe: status %d body %s", resp.StatusCode, body)
	}
	return resp, bufio.NewReader(resp.Body), nil
}

func readFrames(t *testing.T, r *bufio.Reader, n int) []fanoutFrame {
	t.Helper()
	out := make([]fanoutFrame, 0, n)
	for len(out) < n {
		f, err := readFanoutFrame(r)
		if err != nil {
			t.Fatalf("read frame %d: %v", len(out), err)
		}
		out = append(out, f)
	}
	return out
}

// drainFrames reads complete frames until the stream errors or ends,
// swallowing the error — used on a connection the test is about to tear.
func drainFrames(r *bufio.Reader) []fanoutFrame {
	var out []fanoutFrame
	for {
		f, err := readFanoutFrame(r)
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

// checkFanoutSeq requires contiguous sequence ids first, first+1, ...
func checkFanoutSeq(t *testing.T, frames []fanoutFrame, first uint64, context string) {
	t.Helper()
	for i, f := range frames {
		want := strconv.FormatUint(first+uint64(i), 10)
		if f.id != want {
			t.Fatalf("%s: frame %d (%s) has id %q, want %q", context, i, f.name, f.id, want)
		}
	}
}

// askRaw posts a plain ask through the router and returns the raw body.
func (tc *testCluster) askRaw(t *testing.T, id, question string) []byte {
	t.Helper()
	buf, _ := json.Marshal(map[string]string{"question": question})
	resp, err := tc.client.Post(tc.url()+"/v1/sessions/"+id+"/ask", "application/json",
		bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask %s: %d %s", id, resp.StatusCode, raw)
	}
	return raw
}

func (tc *testCluster) deleteSession(t *testing.T, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, tc.url()+"/v1/sessions/"+id, nil)
	resp, err := tc.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete %s: %d", id, resp.StatusCode)
	}
}

// TestClusterFanoutRoutesToOwner: the router pins /events to the session's
// rendezvous owner; a subscription through the router replays the
// acknowledged history with contiguous sequence ids, the done payload is
// byte-identical to the plain answer body, and the stream terminates on
// delete.
func TestClusterFanoutRoutesToOwner(t *testing.T) {
	tc := newTestCluster(t, 3, clusterOptions{})
	id := tc.createSession(t)
	plain := tc.askRaw(t, id, askQuestion)

	resp, br, err := subscribeEvents(context.Background(), tc, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, br, 5)
	checkFanoutSeq(t, frames, 1, "replayed history")
	want := []string{"open", "sql", "explanation", "result", "done"}
	for i, w := range want {
		if frames[i].name != w {
			t.Fatalf("frame %d is %q, want %q", i, frames[i].name, w)
		}
	}
	if got := frames[4].data + "\n"; got != string(plain) {
		t.Errorf("done payload differs from plain body\nfanout: %s\nplain:  %s",
			frames[4].data, plain)
	}

	tc.deleteSession(t, id)
	tail := drainFrames(br)
	if len(tail) != 1 || tail[0].name != "delete" || tail[0].id != "6" {
		t.Fatalf("post-delete tail %+v, want one delete frame with id 6", tail)
	}

	// Only the owner serves the session; a non-owner answers 404 directly.
	id2 := tc.createSession(t)
	owner := tc.ownerOf(id2)
	for _, tn := range tc.nodes {
		if tn == owner {
			continue
		}
		r2, err := tc.client.Get(tn.ts.URL + "/v1/sessions/" + id2 + "/events")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Errorf("non-owner %s serves /events for %s: %d", tn.id, id2, r2.StatusCode)
		}
	}
}

// followEvents reads the session's stream through the router until the
// delete event. A stream torn by an owner failover resumes from the last
// delivered id via Last-Event-ID, retrying through the promotion window.
// attached runs once the first subscription is open; seen holds the last
// delivered id.
func followEvents(ctx context.Context, tc *testCluster, id string, attached func(), seen *atomic.Uint64) ([]fanoutFrame, error) {
	var frames []fanoutFrame
	var last uint64
	deadline := time.Now().Add(30 * time.Second)
	for first := true; ; first = false {
		resp, br, err := subscribeEvents(ctx, tc, id, last)
		if first {
			attached()
		}
		if err != nil {
			if ctx.Err() != nil || time.Now().After(deadline) {
				return frames, fmt.Errorf("resubscribe after %d: %v", last, err)
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		for {
			f, err := readFanoutFrame(br)
			if err != nil {
				break // torn: resume from last
			}
			frames = append(frames, f)
			if f.name == "delete" {
				resp.Body.Close()
				return frames, nil
			}
			if last, err = strconv.ParseUint(f.id, 10, 64); err != nil {
				resp.Body.Close()
				return frames, fmt.Errorf("frame id %q: %v", f.id, err)
			}
			seen.Store(last)
		}
		resp.Body.Close()
	}
}

// TestClusterFanoutSubscriberSurvivesFailover is the acceptance scenario:
// four subscribers follow a session through the router while it takes six
// asks, and its owner dies after the third. Each subscriber's stream is
// torn, resumes through the router with Last-Event-ID, and the promoted
// follower — whose topic was re-seeded by deterministic replay of the
// replicated journal — continues the sequence. Stitched across the
// failover, every stream is the same gap-free sequence with no dropped
// marker, ending in the delete, and each done payload is the plain answer
// body.
func TestClusterFanoutSubscriberSurvivesFailover(t *testing.T) {
	const subscribers, asks = 4, 6
	tc := newTestCluster(t, 3, clusterOptions{})
	questions := factory(t).ds.Examples
	id := tc.createSession(t)
	// A failed run must not leave streams open: closing the test servers
	// waits for them. Cleanups run last-registered first.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	streams := make([][]fanoutFrame, subscribers)
	errs := make([]error, subscribers)
	seen := make([]atomic.Uint64, subscribers)
	var attached, done sync.WaitGroup
	attached.Add(subscribers)
	done.Add(subscribers)
	for i := range streams {
		go func() {
			defer done.Done()
			streams[i], errs[i] = followEvents(ctx, tc, id, attached.Done, &seen[i])
		}()
	}
	attached.Wait()

	var bodies [][]byte
	for i := 0; i < asks; i++ {
		if i == asks/2 {
			victim := tc.ownerOf(id)
			victim.kill(false)
			tc.router.MarkDead(victim.id)
			if tc.ownerOf(id).id == victim.id {
				t.Fatal("dead node still resolves as owner")
			}
		}
		bodies = append(bodies, tc.askRaw(t, id, questions[i].Question))
	}
	// A stream torn by the kill resumes on a 20 ms retry. One that has not
	// resumed when the session is deleted finds it gone and never sees the
	// delete, so the delete waits until every stream has delivered the
	// last ask's done event.
	const lastDone = 1 + 4*asks
	resumed := time.Now().Add(30 * time.Second)
	for i := range seen {
		for seen[i].Load() < lastDone {
			if time.Now().After(resumed) {
				t.Fatalf("subscriber %d is at id %d, want %d before the delete", i, seen[i].Load(), lastDone)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	tc.deleteSession(t, id)
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("subscribers never saw the end of the stream")
	}

	const want = 1 + 4*asks + 1 // open, four events per ask, delete
	for i, frames := range streams {
		if errs[i] != nil {
			t.Fatalf("subscriber %d: %v", i, errs[i])
		}
		if len(frames) != want {
			t.Fatalf("subscriber %d saw %d frames, want %d", i, len(frames), want)
		}
		checkFanoutSeq(t, frames, 1, fmt.Sprintf("subscriber %d", i))
		for j, f := range frames {
			if f.name == "dropped" {
				t.Fatalf("subscriber %d frame %d is a dropped marker; failover must not lose events", i, j)
			}
			if f != streams[0][j] {
				t.Fatalf("subscriber %d frame %d differs from subscriber 0: %+v vs %+v", i, j, f, streams[0][j])
			}
		}
	}
	for i, body := range bodies {
		if done := streams[0][4+4*i]; done.name != "done" || done.data+"\n" != string(body) {
			t.Errorf("ask %d: frame %+v, want the done event with the plain body %s", i, done, body)
		}
	}
	if last := streams[0][want-1]; last.name != "delete" {
		t.Errorf("stream ends with %+v, want the delete", last)
	}
}
