package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func testMembers(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{ID: fmt.Sprintf("node-%02d", i), Addr: fmt.Sprintf("http://10.0.0.%d", i)}
	}
	return out
}

func sessionKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		// The production key shape: router-issued ids "s1", "s2", ... — all
		// sharing a prefix, which is exactly what the hash finalizer must
		// decorrelate.
		out[i] = fmt.Sprintf("s%d", i+1)
	}
	return out
}

// TestRendezvousDeterministicAndOrderFree: placement is a pure function of
// (key, member set) — repeated calls agree, and the order the members are
// listed in is irrelevant.
func TestRendezvousDeterministicAndOrderFree(t *testing.T) {
	members := testMembers(7)
	rng := rand.New(rand.NewSource(1))
	for _, key := range sessionKeys(200) {
		base := Owners(key, members, 3)
		if len(base) != 3 {
			t.Fatalf("key %s: got %d owners", key, len(base))
		}
		if again := Owners(key, members, 3); fmt.Sprint(again) != fmt.Sprint(base) {
			t.Fatalf("key %s: placement not deterministic", key)
		}
		shuffled := append([]Member(nil), members...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if got := Owners(key, shuffled, 3); fmt.Sprint(got) != fmt.Sprint(base) {
			t.Fatalf("key %s: placement depends on member order:\nsorted:   %v\nshuffled: %v",
				key, base, got)
		}
		if base[0].ID == base[1].ID {
			t.Fatalf("key %s: owner and follower are the same member", key)
		}
	}
}

// TestRendezvousMinimalDisruption: removing one member moves exactly the
// sessions it owned — every one of them to its old follower — and demotes
// no other session's owner. This is the property failover stands on: the
// promoted node is guaranteed to be the one holding the replica.
func TestRendezvousMinimalDisruption(t *testing.T) {
	keys := sessionKeys(2000)
	for n := 3; n <= 16; n++ {
		members := testMembers(n)
		for dead := 0; dead < n; dead++ {
			survivors := append(append([]Member(nil), members[:dead]...), members[dead+1:]...)
			for _, key := range keys {
				before := Owners(key, members, 2)
				after, ok := Owner(key, survivors)
				if !ok {
					t.Fatal("no survivors")
				}
				if before[0].ID == members[dead].ID {
					// Orphaned session: the new owner must be the old
					// follower — the node that holds the replica.
					if after.ID != before[1].ID {
						t.Fatalf("n=%d dead=%s key=%s: new owner %s, want old follower %s",
							n, members[dead].ID, key, after.ID, before[1].ID)
					}
				} else if after.ID != before[0].ID {
					t.Fatalf("n=%d dead=%s key=%s: unaffected session moved %s -> %s",
						n, members[dead].ID, key, before[0].ID, after.ID)
				}
			}
			// Only exhaustively sweep the dead-member axis for small n; the
			// property is per-pair, so one removal per larger n suffices.
			if n > 6 {
				break
			}
		}
	}
}

// TestRendezvousBalance: ownership and follower placement spread uniformly
// — every node's share stays within 0.5x..1.5x of the mean across 3..16
// nodes. With thousands of keys the binomial spread is a few percent, so
// the tolerance has an order of magnitude of slack against hash bias while
// still catching a broken mix (prefix-correlated FNV alone fails it).
func TestRendezvousBalance(t *testing.T) {
	const keysN = 6000
	keys := sessionKeys(keysN)
	for n := 3; n <= 16; n++ {
		members := testMembers(n)
		owns := map[string]int{}
		follows := map[string]int{}
		for _, key := range keys {
			top := Owners(key, members, 2)
			owns[top[0].ID]++
			follows[top[1].ID]++
		}
		mean := float64(keysN) / float64(n)
		for _, m := range members {
			for what, counts := range map[string]map[string]int{"owner": owns, "follower": follows} {
				c := counts[m.ID]
				if f := float64(c); f < 0.5*mean || f > 1.5*mean {
					t.Errorf("n=%d: %s share of %s is %d, outside [%.0f, %.0f]",
						n, what, m.ID, c, 0.5*mean, 1.5*mean)
				}
			}
		}
	}
}

// TestRendezvousDegenerateInputs: empty member lists and n larger than the
// membership answer sanely.
func TestRendezvousDegenerateInputs(t *testing.T) {
	if got := Owners("s1", nil, 2); got != nil {
		t.Errorf("Owners on empty membership: %v", got)
	}
	if _, ok := Owner("s1", nil); ok {
		t.Error("Owner on empty membership reported ok")
	}
	one := testMembers(1)
	if _, ok := Follower("s1", one); ok {
		t.Error("Follower in a 1-node cluster reported ok")
	}
	if got := Owners("s1", one, 5); len(got) != 1 {
		t.Errorf("Owners(n=5) on 1 member: %v", got)
	}
}

// TestOwnerFollowerMatchOwners: the one-pass Owner and Follower pick the
// first two of Owners(key, m, 2) over random member sets, in any order.
func TestOwnerFollowerMatchOwners(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var members []Member
		for i, id := range rng.Perm(1000)[:rng.Intn(9)] {
			members = append(members, Member{ID: fmt.Sprintf("n%d", id), Addr: fmt.Sprintf("http://10.0.0.%d", i)})
		}
		key := fmt.Sprintf("s%d", rng.Intn(100000))
		want := Owners(key, members, 2)
		owner, okOwner := Owner(key, members)
		follower, okFollower := Follower(key, members)
		if okOwner != (len(want) > 0) || (okOwner && owner != want[0]) ||
			okFollower != (len(want) > 1) || (okFollower && follower != want[1]) {
			t.Fatalf("key %s, members %v: Owner %v %v, Follower %v %v; Owners %v",
				key, members, owner, okOwner, follower, okFollower, want)
		}
		rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
		if o, _ := Owner(key, members); okOwner && o != owner {
			t.Fatalf("key %s: owner %v after a shuffle, %v before", key, o, owner)
		}
		if f, _ := Follower(key, members); okFollower && f != follower {
			t.Fatalf("key %s: follower %v after a shuffle, %v before", key, f, follower)
		}
	}
}

// TestAheadTiesBreakTowardSmallerID: with equal weights the order falls to
// the member ids.
func TestAheadTiesBreakTowardSmallerID(t *testing.T) {
	for _, tc := range []struct {
		wa   uint64
		a    string
		wb   uint64
		b    string
		want bool
	}{
		{2, "z", 1, "a", true},
		{1, "a", 2, "z", false},
		{5, "a", 5, "b", true},
		{5, "b", 5, "a", false},
		{5, "a", 5, "a", false},
	} {
		if got := ahead(tc.wa, tc.a, tc.wb, tc.b); got != tc.want {
			t.Errorf("ahead(%d %q, %d %q) = %v, want %v", tc.wa, tc.a, tc.wb, tc.b, got, tc.want)
		}
	}
}
