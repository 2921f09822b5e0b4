// Execution differential fuzzing: the planned+cached execution path must
// never panic and must agree byte-for-byte with the dynamic-lookup
// interpreter (plan-less Select: no slots, no subquery memo, nested-loop joins)
// on every input — gold SQL, trap variants, demonstration pool, and whatever
// mutations the fuzzer derives from them.
//
// This lives in an external test package because the seed corpus comes from
// internal/dataset, which itself imports internal/engine.
package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
	"fisql/internal/engine"
	"fisql/internal/sqlparse"
)

// fuzzWorld lazily builds both corpora's databases once per process; fuzz
// workers share the read-only catalogs and one plan cache, exactly like
// concurrent server sessions do.
var fuzzWorld struct {
	once  sync.Once
	dbs   map[string]*engine.Database
	seeds [][2]string // (db, sql) seed corpus
	cache *engine.Cache
	err   error
}

func fuzzSetup() error {
	fuzzWorld.once.Do(func() {
		fuzzWorld.dbs = make(map[string]*engine.Database)
		fuzzWorld.cache = engine.NewCache(0)
		for _, build := range []func() (*dataset.Dataset, error){spider.Build, aep.Build} {
			ds, err := build()
			if err != nil {
				fuzzWorld.err = err
				return
			}
			for name, db := range ds.DBs {
				fuzzWorld.dbs[name] = db
			}
			for _, e := range ds.Examples {
				fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{e.DB, e.Gold})
				if w := e.WrongSQL(); w != e.Gold {
					fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{e.DB, w})
				}
				for _, v := range e.Variants {
					fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{e.DB, v})
				}
			}
			for _, d := range ds.Demos {
				fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{d.DB, d.SQL})
			}
		}
		if fuzzWorld.err != nil {
			return
		}
		// Subquery shapes the per-Run memo must not change the meaning of:
		// closed beneath correlated, NOT IN over a NULL candidate, an empty
		// EXISTS, a closed derived table re-read per outer row, and closed
		// subqueries outside WHERE.
		for _, q := range []string{
			"SELECT name FROM stadium AS s WHERE EXISTS (SELECT 1 FROM concert AS c WHERE c.stadium_id = s.stadium_id AND c.year IN (SELECT MAX(year) FROM concert))",
			"SELECT name FROM singer WHERE age NOT IN (SELECT NULL UNION ALL SELECT 32)",
			"SELECT name FROM singer WHERE singer_id NOT IN (SELECT stadium_id FROM concert WHERE year > 2014)",
			"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM concert LIMIT 0)",
			"SELECT name FROM stadium AS s WHERE capacity > (SELECT AVG(d.capacity) FROM (SELECT capacity FROM stadium WHERE capacity > 1000) AS d WHERE d.capacity <> s.capacity)",
			"SELECT name FROM singer ORDER BY (SELECT MAX(year) FROM concert), name LIMIT 3",
			"SELECT country, COUNT(*) FROM singer GROUP BY country HAVING COUNT(*) >= (SELECT MIN(age) FROM singer) - 30",
			"SELECT name FROM singer WHERE age = (SELECT singer_id, age FROM singer)",
			"SELECT name FROM singer WHERE singer_id IN (SELECT stadium_id FROM concert UNION SELECT singer_id FROM singer ORDER BY stadium_id)",
			// ORDER BY shapes: a mixed-type key (generic sort), NULLs under
			// DESC, opposite directions, ordinal, alias shadowing a column,
			// per-row expressions over a join, an aggregate key, a compound
			// (output columns only), and LIMIT / OFFSET edges after a sort.
			"SELECT name, CASE WHEN age > 30 THEN name ELSE age END AS k FROM singer ORDER BY k",
			"SELECT name, CASE WHEN age > 30 THEN age END AS a FROM singer ORDER BY a DESC",
			"SELECT name, country, age FROM singer ORDER BY country DESC, age ASC",
			"SELECT name, age FROM singer ORDER BY 2 DESC, 1",
			"SELECT name, 0 - age AS age FROM singer ORDER BY age",
			"SELECT s.name FROM stadium AS s JOIN concert AS c ON c.stadium_id = s.stadium_id ORDER BY c.year * -1, s.capacity + 1",
			"SELECT country FROM singer GROUP BY country ORDER BY COUNT(*) DESC",
			"SELECT name FROM singer UNION SELECT name FROM stadium ORDER BY name DESC",
			"SELECT name FROM singer ORDER BY age DESC LIMIT 2 OFFSET 1",
			"SELECT name FROM singer ORDER BY age LIMIT 2 OFFSET -1",
		} {
			fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{"concert_singer", q})
		}
		// A row-scaled corpus variant, so the differential also runs where
		// the columnar kernels process real batch sizes. Seeded with the
		// scan/filter/aggregate shapes the vectorized path specializes.
		scaled, err := aep.BuildRows(10)
		if err != nil {
			fuzzWorld.err = err
			return
		}
		for name, db := range scaled.DBs {
			sn := "scaled10:" + name
			fuzzWorld.dbs[sn] = db
			for _, t := range db.Tables() {
				c0 := t.Columns[0].Name
				cn := t.Columns[len(t.Columns)-1].Name
				fuzzWorld.seeds = append(fuzzWorld.seeds,
					[2]string{sn, fmt.Sprintf("SELECT COUNT(*) FROM %s", t.Name)},
					[2]string{sn, fmt.Sprintf("SELECT * FROM %s WHERE %s IS NOT NULL ORDER BY %s LIMIT 7", t.Name, c0, cn)},
					[2]string{sn, fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s HAVING COUNT(*) > 2", cn, t.Name, cn)},
					[2]string{sn, fmt.Sprintf("SELECT MIN(%s), MAX(%s), COUNT(%s) FROM %s WHERE %s IS NOT NULL", c0, cn, cn, t.Name, c0)},
				)
			}
			for _, e := range scaled.Examples {
				if e.DB == name {
					fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{sn, e.Gold})
				}
			}
		}
		// Errors the shared tail raises after the vectorized stages, which
		// Run returns without rerunning the statement: in the select list,
		// HAVING, an ORDER BY key and LIMIT, aggregated or not, on one table
		// and on a join.
		const (
			seg   = " FROM hkg_dim_segment"
			join  = " FROM hkg_fact_activation AS a JOIN hkg_dim_segment AS s ON a.segment_id = s.segment_id"
			limit = " LIMIT (SELECT segment_id FROM hkg_dim_segment)"
		)
		for _, q := range []string{
			"SELECT segment_name + 1" + seg,
			"SELECT segment_id" + seg + " ORDER BY segment_name + 1",
			"SELECT segment_id" + seg + limit,
			"SELECT segment_type, segment_name + 1" + seg + " GROUP BY segment_type",
			"SELECT segment_type, COUNT(*)" + seg + " GROUP BY segment_type HAVING segment_name + 1 > 0",
			"SELECT segment_type, COUNT(*)" + seg + " GROUP BY segment_type ORDER BY segment_name + 1",
			"SELECT segment_type, SUM(profile_count)" + seg + " GROUP BY segment_type" + limit,
			"SELECT s.segment_name + 1" + join,
			"SELECT a.activation_id" + join + " ORDER BY s.segment_name + 1",
			"SELECT a.activation_id" + join + limit,
			"SELECT s.segment_type, s.segment_name + 1" + join + " GROUP BY s.segment_type",
			"SELECT s.segment_type, COUNT(*)" + join + " GROUP BY s.segment_type HAVING s.segment_name + 1 > 0",
			"SELECT s.segment_type, COUNT(*)" + join + " GROUP BY s.segment_type ORDER BY s.segment_name + 1",
			"SELECT s.segment_type, MAX(a.delivered_count)" + join + " GROUP BY s.segment_type" + limit,
		} {
			fuzzWorld.seeds = append(fuzzWorld.seeds, [2]string{"scaled10:experience_platform", q})
		}
	})
	return fuzzWorld.err
}

// runOracle executes sql on the reference interpreter: parsed per call, no
// plan (every reference looked up by name, every subquery re-executed per
// evaluation), nested-loop joins only.
func runOracle(db *engine.Database, sql string) (*engine.Result, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return engine.NewExecutor(db).Select(sel)
}

// runRowLeg executes a cached plan on a columnar-disabled executor — the
// pure row-at-a-time reference the vectorized path must be indistinguishable
// from. ok=false means the statement didn't plan (nothing to compare).
func runRowLeg(db *engine.Database, sql string) (*engine.Result, error, bool) {
	p, err := fuzzWorld.cache.Plan(db, sql)
	if err != nil {
		return nil, nil, false
	}
	ex := engine.NewExecutor(db)
	ex.SetColumnar(false)
	res, err := ex.Run(p)
	return res, err, true
}

// FuzzExecPlannedVsDynamic differentially executes every (db, sql) input on
// the planned/cached/hash-join path and the dynamic-lookup interpreter.
// The two must agree on error-ness, error text, and the full result.
func FuzzExecPlannedVsDynamic(f *testing.F) {
	if err := fuzzSetup(); err != nil {
		f.Fatal(err)
	}
	for _, s := range fuzzWorld.seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, dbName, sql string) {
		// Unbounded inputs only slow the fuzzer down: parser depth, not
		// input length, is what shakes out executor bugs.
		if len(sql) > 512 {
			t.Skip()
		}
		db, ok := fuzzWorld.dbs[dbName]
		if !ok {
			t.Skip()
		}
		// Planned path, twice: the second run exercises the cache-hit
		// plan-reuse path (shared immutable plan, fresh executor).
		planned1, err1 := fuzzWorld.cache.Query(db, sql)
		planned2, err2 := fuzzWorld.cache.Query(db, sql)
		dynamic, errD := runOracle(db, sql)

		if (err1 == nil) != (errD == nil) {
			t.Fatalf("planned err=%v dynamic err=%v\nsql: %q", err1, errD, sql)
		}
		if err1 != nil {
			if err1.Error() != errD.Error() {
				t.Fatalf("error text diverged:\nplanned: %s\ndynamic: %s\nsql: %q", err1, errD, sql)
			}
			if err2 == nil || err2.Error() != err1.Error() {
				t.Fatalf("cached re-run changed the error: %v vs %v\nsql: %q", err2, err1, sql)
			}
			if _, errR, planned := runRowLeg(db, sql); planned && (errR == nil || errR.Error() != err1.Error()) {
				t.Fatalf("columnar-off leg changed the error: %v vs %v\nsql: %q", errR, err1, sql)
			}
			return
		}
		if err2 != nil {
			t.Fatalf("first run succeeded, cached re-run failed: %v\nsql: %q", err2, sql)
		}
		if !reflect.DeepEqual(planned1, dynamic) {
			t.Fatalf("results diverged\nplanned: %+v\ndynamic: %+v\nsql: %q", planned1, dynamic, sql)
		}
		if !reflect.DeepEqual(planned1, planned2) {
			t.Fatalf("cached re-run diverged from first run\nsql: %q", sql)
		}
		// Third leg: the same shared plan with the columnar path disabled.
		// The planned legs above ran with it enabled, so any divergence
		// here is the vectorized executor's fault specifically.
		row, errR, planned := runRowLeg(db, sql)
		if planned && !reflect.DeepEqual(row, planned1) {
			t.Fatalf("columnar-off leg diverged (err=%v)\ncolumnar: %+v\nrow:      %+v\nsql: %q", errR, planned1, row, sql)
		}
	})
}

// TestFuzzSeedCorpus runs the whole seed corpus through the differential
// check directly, so plain `go test` (no -fuzz) still covers every gold
// query, trap variant and demo on both paths.
func TestFuzzSeedCorpus(t *testing.T) {
	if err := fuzzSetup(); err != nil {
		t.Fatal(err)
	}
	if len(fuzzWorld.seeds) == 0 {
		t.Fatal("empty seed corpus")
	}
	for _, s := range fuzzWorld.seeds {
		db := fuzzWorld.dbs[s[0]]
		planned, errP := fuzzWorld.cache.Query(db, s[1])
		dynamic, errD := runOracle(db, s[1])
		row, errR, hasPlan := runRowLeg(db, s[1])
		switch {
		case (errP == nil) != (errD == nil):
			t.Errorf("%s: planned err=%v dynamic err=%v\nsql: %q", s[0], errP, errD, s[1])
		case errP != nil:
			if errP.Error() != errD.Error() {
				t.Errorf("%s: error text diverged: %q vs %q", s[0], errP, errD)
			}
			if hasPlan && (errR == nil || errR.Error() != errP.Error()) {
				t.Errorf("%s: columnar-off error diverged: %v vs %v\nsql: %q", s[0], errR, errP, s[1])
			}
		case !reflect.DeepEqual(planned, dynamic):
			t.Errorf("%s: results diverged for %q", s[0], strings.TrimSpace(s[1]))
		case hasPlan && !reflect.DeepEqual(row, planned):
			t.Errorf("%s: columnar-off leg diverged (err=%v) for %q", s[0], errR, strings.TrimSpace(s[1]))
		}
	}
}
