// Package cluster is the multi-node serving tier: a router that pins
// sessions to nodes by rendezvous hashing, a compact binary-over-HTTP
// inter-node protocol that forwards /v1/* traffic to the owning node and
// streams journal frames to followers, and failover that promotes a
// session's follower when its owner dies — rebuilding the session by the
// same deterministic replay a single-node restart uses, so acknowledged
// turns survive a node loss byte-identically.
//
// Placement is pure function, not state: the owner of session s under
// member set M is the member with the highest rendezvous weight
// hash(member, s), and the designated follower is the second-highest.
// Because removing a member never reorders the remaining weights, the
// survivor ranked first after the owner dies is exactly the old follower —
// the node already holding the session's replicated journal. Failover
// therefore needs no ownership table, no leader election, and moves no
// session that didn't lose its owner.
package cluster

import "sort"

// Member is one node of the cluster as the router and the nodes themselves
// see it.
type Member struct {
	// ID is the stable node name; it feeds the rendezvous hash, so renaming
	// a node moves its sessions.
	ID string `json:"id"`
	// Addr is the node's base URL (scheme://host:port, no trailing slash).
	Addr string `json:"addr"`
}

// weight is the rendezvous score of key on member: FNV-1a 64 over the
// member id, a separator, and the key, passed through a splitmix64-style
// finalizer. FNV alone correlates scores of keys sharing long prefixes
// (session ids are "s1", "s2", ... — all sharing "s"); the finalizer's
// avalanche breaks that correlation so placement is uniform.
func weight(memberID, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(memberID); i++ {
		h ^= uint64(memberID[i])
		h *= prime64
	}
	h ^= 0xff // separator: ("ab","c") must not collide with ("a","bc")
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ahead reports whether member id a, of rendezvous weight wa, ranks before
// member id b, of weight wb: the higher weight first, and ties (astronomically
// unlikely with 64-bit weights, but the order must still be total) toward the
// smaller id.
func ahead(wa uint64, a string, wb uint64, b string) bool {
	if wa != wb {
		return wa > wb
	}
	return a < b
}

// Owners returns up to n members ranked by descending rendezvous weight
// for key (ahead): index 0 is the session's owner, index 1 its designated
// follower.
func Owners(key string, members []Member, n int) []Member {
	if len(members) == 0 || n <= 0 {
		return nil
	}
	ranked := append([]Member(nil), members...)
	sort.Slice(ranked, func(a, b int) bool {
		return ahead(weight(ranked[a].ID, key), ranked[a].ID, weight(ranked[b].ID, key), ranked[b].ID)
	})
	if n < len(ranked) {
		ranked = ranked[:n]
	}
	return ranked
}

// top2 returns the indices in members of the first two of Owners(key,
// members, 2), -1 where there is none, in one pass and without allocating:
// placement runs on every forwarded request and every replicated record.
func top2(key string, members []Member) (first, second int) {
	first, second = -1, -1
	var w1, w2 uint64
	for i := range members {
		w, id := weight(members[i].ID, key), members[i].ID
		switch {
		case first < 0 || ahead(w, id, w1, members[first].ID):
			second, w2 = first, w1
			first, w1 = i, w
		case second < 0 || ahead(w, id, w2, members[second].ID):
			second, w2 = i, w
		}
	}
	return first, second
}

// Owner returns the member that owns key, false when members is empty.
func Owner(key string, members []Member) (Member, bool) {
	first, _ := top2(key, members)
	if first < 0 {
		return Member{}, false
	}
	return members[first], true
}

// Follower returns the designated follower for key — the member holding
// the session's replicated journal — false when the cluster has fewer than
// two members.
func Follower(key string, members []Member) (Member, bool) {
	_, second := top2(key, members)
	if second < 0 {
		return Member{}, false
	}
	return members[second], true
}
