//go:build !race

package rag

import (
	"strings"
	"testing"
)

// A lower-case query is cut into substrings of itself and counted without
// a map, so Search allocates the same at any query length.
func TestSearchAllocs(t *testing.T) {
	s := NewStore(pool())
	words := strings.Fields("how many singers are there list the name of all pets weight")
	allocs := func(n int) float64 {
		q := strings.Join(words[:n], " ")
		return testing.AllocsPerRun(100, func() { s.Search(q, "music", 3) })
	}
	if a3, a12 := allocs(3), allocs(12); a3 != a12 {
		t.Errorf("Search: %v allocations with 3 words, %v with 12", a3, a12)
	}
}
