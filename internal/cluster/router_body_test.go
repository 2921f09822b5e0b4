package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"testing"
)

// truncatedPost sends a POST whose Content-Length promises more bytes than
// the client sends before it closes its side of the connection, over a raw
// connection, and returns the status and body of the answer.
func truncatedPost(t *testing.T, base, path string) (int, string) {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := `{"question":"how m`
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\n\r\n%s", path, u.Host, len(sent)+40, sent); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRouterTruncatedBodyAnswersAsNode: a truncated body gets the same
// answer through the router as from the owning node itself, a 400, not a
// 413, for a create and for a turn.
func TestRouterTruncatedBodyAnswersAsNode(t *testing.T) {
	tc := newTestCluster(t, 2, clusterOptions{})
	id := tc.createSession(t)
	node := tc.ownerOf(id)
	for _, path := range []string{"/v1/sessions", "/v1/sessions/" + id + "/ask", "/v1/sessions/" + id + "/feedback"} {
		wantCode, want := truncatedPost(t, node.ts.URL, path)
		if wantCode != http.StatusBadRequest {
			t.Fatalf("%s on the node: status %d, body %q", path, wantCode, want)
		}
		if code, got := truncatedPost(t, tc.url(), path); code != wantCode || got != want {
			t.Errorf("%s through the router: %d %q; the node answers %d %q", path, code, got, wantCode, want)
		}
	}
}
