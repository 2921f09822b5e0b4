//go:build !race

package schema

import "testing"

// Normalize copies nothing when its input is already normalized, and makes
// one allocation for any other ASCII input.
func TestNormalizeAllocs(t *testing.T) {
	for _, tc := range []struct {
		text string
		want float64
	}{
		{"how many singers are there?", 0},
		{"count(*) of 2 tables", 0},
		{"How many singers are there?", 1},
		{"  Song \t  NAME ", 1},
	} {
		if got := testing.AllocsPerRun(100, func() { Normalize(tc.text) }); got != tc.want {
			t.Errorf("Normalize(%q): %v allocations, want %v", tc.text, got, tc.want)
		}
	}
}
