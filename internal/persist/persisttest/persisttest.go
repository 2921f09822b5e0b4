// Package persisttest is the shared byte-identity checker for journal
// recovery scenarios. The durability contract — every acknowledged turn
// survives a crash with a byte-identical /history body — is asserted by the
// server's crash, overload and fanout tests and by the cluster's failover
// tests. One capture-and-diff implementation serves them all, so the one
// assertion the whole durability story rests on cannot drift between
// copies.
//
// The helpers are plain functions returning errors (no testing.TB), so a
// test can call them from any goroutine and word its own failure.
package persisttest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// History fetches the raw /v1/sessions/{id}/history body for one session.
// A non-200 status is an error carrying the code, so callers can
// distinguish "session lost" (404) from transport trouble.
func History(client *http.Client, base, id string) ([]byte, error) {
	url := base + "/v1/sessions/" + id + "/history"
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// Capture fetches the history body of every id, keyed by id — the pre-crash
// capture side of a recovery scenario.
func Capture(client *http.Client, base string, ids []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(ids))
	for _, id := range ids {
		body, err := History(client, base, id)
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", id, err)
		}
		out[id] = body
	}
	return out, nil
}

// DiffHistories re-fetches every captured session from base and compares it
// byte for byte against its capture. It returns one human-readable line per
// mismatch (fetch failure or body drift), in sorted id order, and nil when
// every history is byte-identical — the recovery acceptance check.
func DiffHistories(client *http.Client, base string, want map[string][]byte) []string {
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var diffs []string
	for _, id := range ids {
		got, err := History(client, base, id)
		if err != nil {
			diffs = append(diffs, fmt.Sprintf("session %s: %v", id, err))
			continue
		}
		if !bytes.Equal(got, want[id]) {
			diffs = append(diffs, fmt.Sprintf("session %s history differs:\npre:  %s\npost: %s",
				id, want[id], got))
		}
	}
	return diffs
}

// TurnsPrefix reports whether post preserves every turn of pre byte for
// byte, allowing post to carry additional trailing turns. This is the
// failover contract for a turn that was journaled and replicated but whose
// response was lost in the crash: the recovered history is either exactly
// the last acknowledged capture or that capture plus the in-flight turn —
// never a mutation of an acknowledged turn.
//
// History bodies have the fixed shape {"db":...,"turns":[...]}\n, so pre
// minus its closing "]}\n" must be a byte prefix of post, and the remainder
// of post must either close the array immediately or continue it with a
// comma-separated turn.
func TurnsPrefix(pre, post []byte) bool {
	const closing = "]}\n"
	if !bytes.HasSuffix(pre, []byte(closing)) {
		return false
	}
	head := pre[:len(pre)-len(closing)]
	if !bytes.HasPrefix(post, head) {
		return false
	}
	rest := post[len(head):]
	if bytes.Equal(rest, []byte(closing)) {
		return true
	}
	// Additional turns: ",{...}...]}\n" — or, when pre had no turns at all
	// (head ends with '['), the first turn starts without a comma.
	if len(rest) == 0 || !bytes.HasSuffix(rest, []byte(closing)) {
		return false
	}
	if rest[0] == ',' {
		return true
	}
	return len(head) > 0 && head[len(head)-1] == '[' && rest[0] == '{'
}
