//go:build !race

package server

import (
	"fmt"
	"testing"

	"fisql/internal/assistant"
	"fisql/internal/engine"
	"fisql/internal/persist"
	"fisql/internal/pubsub"
)

// Publishing a turn whose Answer already carries its wire form encodes
// nothing: it allocates at most the events slice, at any number of rows.
func TestPublishCachedAnswerAllocs(t *testing.T) {
	for _, rows := range []int{1, 1000} {
		res := &engine.Result{Columns: []string{"id", "name"}}
		for i := 0; i < rows; i++ {
			res.Rows = append(res.Rows, []engine.Value{engine.Int(int64(i)), engine.Text(fmt.Sprint("row ", i))})
		}
		ans := &assistant.Answer{SQL: "SELECT id, name FROM t", Reformulation: "Finds the id and name.",
			Explanation: []string{"First, consider all the t.", "Finally, return the id and the name."},
			Result:      res}
		srv := New(nil)
		srv.hub.Open("s")
		rec := persist.Record{Type: persist.TAsk, Session: "s", Text: "q"}
		// The first turn renders the wire form; enough turns to fill the
		// topic's ring keep its growth out of the measurement.
		for i := 0; i < pubsub.DefaultRingSize; i++ {
			srv.publishTurn(nil, rec, ans)
		}
		got := testing.AllocsPerRun(100, func() { srv.publishTurn(nil, rec, ans) })
		if got > 1 {
			t.Errorf("%d rows: publishing a cached answer allocates %v objects, want at most 1", rows, got)
		}
	}
}
