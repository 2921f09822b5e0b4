package fisql

import (
	"reflect"
	"testing"

	"fisql/internal/engine"
	"fisql/internal/sqlparse"
)

// TestDifferentialPlannedVsInterpreter is the semantic gate on the
// compile-once engine: every query of both corpora (gold SQL, the naive
// wrong generation, every trap-state variant, and the demonstration pool)
// runs through the cached/planned/hash-join path twice (cache miss, then
// hit) and through the seed interpreter (uncached parse, dynamic lookups,
// nested-loop joins). Results — including row order and error text — must be
// identical.
func TestDifferentialPlannedVsInterpreter(t *testing.T) {
	builders := []struct {
		name  string
		build func() (*System, error)
	}{
		{"spider", NewSpiderSystem},
		{"aep", NewExperiencePlatformSystem},
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
			for _, qq := range queries {
				db := sys.DS.DBs[qq.db]
				if db == nil {
					continue
				}
				// Reference: the seed interpreter — no plan, no hash joins.
				var refRes *engine.Result
				var refErr error
				if sel, perr := sqlparse.ParseSelect(qq.sql); perr != nil {
					refErr = perr
				} else {
					ref := engine.NewExecutor(db)
					ref.SetHashJoin(false)
					refRes, refErr = ref.Select(sel)
				}
				// Planned path, twice: first populates the cache, second hits it.
				for pass := 0; pass < 2; pass++ {
					gotRes, gotErr := cache.Query(db, qq.sql)
					if (refErr == nil) != (gotErr == nil) ||
						(refErr != nil && refErr.Error() != gotErr.Error()) {
						t.Fatalf("db %s query %q (pass %d): interpreter err %v, planned err %v",
							qq.db, qq.sql, pass, refErr, gotErr)
					}
					if !reflect.DeepEqual(refRes, gotRes) {
						t.Fatalf("db %s query %q (pass %d):\ninterpreter:\n%s\nplanned:\n%s",
							qq.db, qq.sql, pass, refRes.Format(), gotRes.Format())
					}
				}
			}
			// The planned passes above ran with the columnar path enabled
			// (the default); the corpus must actually exercise it, or the
			// differential is vacuously comparing row path to row path. Every
			// corpus statement qualifies at any table size, so a fallback means
			// a vectorized stage bailed.
			var hits, falls int64
			for _, db := range sys.DS.DBs {
				h, f := db.ColumnarStats()
				hits += h
				falls += f
			}
			if hits == 0 || falls != 0 {
				t.Fatalf("columnar path: %d hits, %d fallbacks across the corpus; want hits and no fallback", hits, falls)
			}
			t.Logf("%s: %d distinct queries result-identical (planned+cached vs interpreter); columnar hits=%d fallbacks=%d",
				b.name, len(queries), hits, falls)
		})
	}
}
