//go:build !race

package cluster

import "testing"

// Placement runs on every forwarded request and replicated record: Owner
// and Follower allocate nothing.
func TestOwnerFollowerAllocs(t *testing.T) {
	members := testMembers(3)
	got := testing.AllocsPerRun(100, func() {
		Owner("s42", members)
		Follower("s42", members)
	})
	if got != 0 {
		t.Errorf("Owner and Follower allocate %v objects, want 0", got)
	}
}
