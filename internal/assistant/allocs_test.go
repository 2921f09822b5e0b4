//go:build !race

package assistant

import (
	"context"
	"strings"
	"testing"
)

// A memo hit allocates nothing: Do and DoSQL build their key on the stack
// and look it up without copying it. A key longer than the stack buffer
// spills to the heap, once.
func TestMemoHitAllocs(t *testing.T) {
	m := NewAnswerMemo(0)
	ctx := context.Background()
	ans := &Answer{SQL: "SELECT 1"}
	fn := func() (*Answer, error) { return ans, nil }
	long := strings.Repeat("how many audiences ", 20)
	for _, c := range []struct {
		name string
		do   func(ctx context.Context, db, text string, fn func() (*Answer, error)) (*Answer, error)
		text string
		max  float64
	}{
		{"Do", m.Do, "How many audiences were created in January?", 0},
		{"DoSQL", m.DoSQL, "SELECT COUNT(*) FROM hkg_dim_segment", 0},
		{"Do, long key", m.Do, long, 1},
		{"DoSQL, long key", m.DoSQL, long, 1},
	} {
		if _, err := c.do(ctx, "experience_platform", c.text, fn); err != nil {
			t.Fatal(err)
		}
		var got *Answer
		allocs := testing.AllocsPerRun(100, func() {
			got, _ = c.do(ctx, "experience_platform", c.text, fn)
		})
		if got != ans {
			t.Fatalf("%s: a warm lookup returned %v, want the memoized answer", c.name, got)
		}
		if allocs > c.max {
			t.Errorf("%s: a memo hit allocates %v objects, want at most %v", c.name, allocs, c.max)
		}
	}
}
