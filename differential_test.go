package fisql

import (
	"reflect"
	"testing"

	"fisql/internal/engine"
	"fisql/internal/sqlparse"
)

// engineTally is what one pass over a corpus's statements moved in the
// engine's subquery and ORDER BY counters.
type engineTally struct {
	Sub   engine.SubqueryStats
	Order engine.OrderStats
}

func (a *engineTally) add(before, after engineTally) {
	a.Sub.ClosedExecs += after.Sub.ClosedExecs - before.Sub.ClosedExecs
	a.Sub.MemoHits += after.Sub.MemoHits - before.Sub.MemoHits
	a.Sub.OpenExecs += after.Sub.OpenExecs - before.Sub.OpenExecs
	a.Order.TypedSorts += after.Order.TypedSorts - before.Order.TypedSorts
	a.Order.GenericSorts += after.Order.GenericSorts - before.Order.GenericSorts
	a.Order.Rows += after.Order.Rows - before.Order.Rows
}

func tallyOf(db *engine.Database) engineTally {
	return engineTally{Sub: db.SubqueryStats(), Order: db.OrderStats()}
}

// TestDifferentialPlannedVsInterpreter is the semantic gate on the
// compile-once engine: every query of both corpora (gold SQL, the naive
// wrong generation, every trap-state variant, and the demonstration pool),
// and of SPIDER at 10x rows, runs through the cached/planned/hash-join path
// twice (cache miss, then hit), through Run with the columnar path off, and
// through the seed interpreter (uncached parse, dynamic lookups, nested-loop
// joins). Results — including row order and error text — must be identical.
//
// It also pins, per corpus, the subquery and ORDER BY counters one pass
// moves on each Run leg: how often closed subqueries execute and answer
// from their memo, and which sort orders how many rows, are part of the
// engine's observable behaviour (Database.SubqueryStats, OrderStats).
func TestDifferentialPlannedVsInterpreter(t *testing.T) {
	builders := []struct {
		name  string
		build func() (*System, error)
		// want is what one pass moves, on the default Run and on Run with
		// the columnar path off alike.
		want engineTally
	}{
		{"spider", NewSpiderSystem,
			engineTally{engine.SubqueryStats{ClosedExecs: 174, MemoHits: 6180}, engine.OrderStats{TypedSorts: 156, Rows: 6021}}},
		{"aep", NewExperiencePlatformSystem,
			engineTally{engine.SubqueryStats{ClosedExecs: 34, MemoHits: 1779}, engine.OrderStats{TypedSorts: 24, Rows: 1255}}},
		{"spider_x10", func() (*System, error) { return NewSpiderSystemRows(10) },
			engineTally{engine.SubqueryStats{ClosedExecs: 174, MemoHits: 63366}, engine.OrderStats{TypedSorts: 156, Rows: 60210}}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			sys, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			type q struct{ db, sql string }
			seen := map[q]bool{}
			var queries []q
			add := func(db, sql string) {
				if sql == "" {
					return
				}
				k := q{db, sql}
				if !seen[k] {
					seen[k] = true
					queries = append(queries, k)
				}
			}
			for _, e := range sys.DS.Examples {
				add(e.DB, e.Gold)
				add(e.DB, e.WrongSQL())
				for _, v := range e.Variants {
					add(e.DB, v)
				}
			}
			for _, d := range sys.DS.Demos {
				add(d.DB, d.SQL)
			}
			if len(queries) < len(sys.DS.Examples) {
				t.Fatalf("corpus produced only %d queries", len(queries))
			}

			cache := engine.NewCache(0)
			var passes [2]engineTally
			var rowLeg engineTally
			planned := int64(0)
			for _, qq := range queries {
				db := sys.DS.DBs[qq.db]
				if db == nil {
					continue
				}
				// Reference: the seed interpreter — no plan, nested-loop joins.
				var refRes *engine.Result
				var refErr error
				if sel, perr := sqlparse.ParseSelect(qq.sql); perr != nil {
					refErr = perr
				} else {
					refRes, refErr = engine.NewExecutor(db).Select(sel)
				}
				check := func(leg string, gotRes *engine.Result, gotErr error) {
					t.Helper()
					if (refErr == nil) != (gotErr == nil) ||
						(refErr != nil && refErr.Error() != gotErr.Error()) {
						t.Fatalf("db %s query %q (%s): interpreter err %v, planned err %v",
							qq.db, qq.sql, leg, refErr, gotErr)
					}
					if !reflect.DeepEqual(refRes, gotRes) {
						t.Fatalf("db %s query %q (%s):\ninterpreter:\n%s\nplanned:\n%s",
							qq.db, qq.sql, leg, refRes.Format(), gotRes.Format())
					}
				}
				// Planned path, twice: first populates the cache, second hits it.
				for pass := range passes {
					before := tallyOf(db)
					gotRes, gotErr := cache.Query(db, qq.sql)
					passes[pass].add(before, tallyOf(db))
					check([]string{"cache miss", "cache hit"}[pass], gotRes, gotErr)
				}
				// The same plan on the row executor alone.
				if p, perr := cache.Plan(db, qq.sql); perr == nil {
					planned++
					off := engine.NewExecutor(db)
					off.SetColumnar(false)
					before := tallyOf(db)
					gotRes, gotErr := off.Run(p)
					rowLeg.add(before, tallyOf(db))
					check("columnar off", gotRes, gotErr)
				}
			}
			if passes[0] != passes[1] {
				t.Errorf("cache miss and cache hit passes counted differently: %+v vs %+v", passes[0], passes[1])
			}
			if passes[0] != b.want || rowLeg != b.want {
				t.Errorf("one pass counted %+v on Run and %+v with the columnar path off; want %+v on both",
					passes[0], rowLeg, b.want)
			}
			// The planned passes above ran with the columnar path enabled
			// (the default); the corpus must actually exercise it, or the
			// differential is vacuously comparing row path to row path. Every
			// corpus statement, and every closed subquery as a sub-plan,
			// qualifies at any table size, so each Run of either is a hit and
			// a fallback means a vectorized stage bailed. With no open
			// subquery (pinned above), the row executor ran nothing.
			var hits, falls int64
			for _, db := range sys.DS.DBs {
				h, f := db.ColumnarStats()
				hits += h
				falls += f
			}
			if want := 2 * (planned + passes[0].Sub.ClosedExecs); hits != want || falls != 0 {
				t.Fatalf("columnar path: %d hits, %d fallbacks across the corpus; want %d hits (two passes over %d statements and %d closed subquery executions) and no fallback",
					hits, falls, want, planned, passes[0].Sub.ClosedExecs)
			}
			t.Logf("%s: %d distinct queries result-identical (planned+cached vs interpreter); columnar hits=%d fallbacks=%d; one pass: run %+v, columnar off %+v",
				b.name, len(queries), hits, falls, passes[0], rowLeg)
		})
	}
}
