package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// runLegs runs sql on every leg of resultLegs and requires them to agree:
// the same error text, or the same result (sameResult). It returns what
// they agreed on.
func runLegs(t *testing.T, db *Database, sql string) (*Result, error) {
	t.Helper()
	p, err := Prepare(db, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return runPlanLegs(t, db, p, sql)
}

// runPlanLegs is runLegs on the prepared plan p of sql.
func runPlanLegs(t *testing.T, db *Database, p *Plan, sql string) (*Result, error) {
	t.Helper()
	var first *Result
	var firstErr error
	for i, leg := range resultLegs(db, p) {
		res, err := leg.run()
		switch {
		case i == 0:
			first, firstErr = res, err
		case fmt.Sprint(err) != fmt.Sprint(firstErr):
			t.Fatalf("%s (%s): error %v, run gave %v", sql, leg.name, err, firstErr)
		case !sameResult(res, first):
			t.Fatalf("%s (%s): %+v, run gave %+v", sql, leg.name, res, first)
		}
	}
	return first, firstErr
}

// TestGroupByIntegersFloat64CannotTellApart groups a key column holding
// 2^53 and 2^53+1, which are one float64: an INT column, and a REAL column
// mixing Int(2^53+1) with Float(2^53). Every leg must keep two groups.
func TestGroupByIntegersFloat64CannotTellApart(t *testing.T) {
	db := NewDatabase("g")
	if err := db.LoadScript("CREATE TABLE g (k INT); CREATE TABLE m (k REAL);"); err != nil {
		t.Fatal(err)
	}
	g, _ := db.Table("g")
	m, _ := db.Table("m")
	for i := 0; i < 256; i++ {
		g.Rows = append(g.Rows, []Value{Int(1<<53 + int64(i%2))})
		// DDL coerces by column type: patch an int into the REAL column.
		mv := Float(1 << 53)
		if i%2 == 0 {
			mv = Int(1<<53 + 1)
		}
		m.Rows = append(m.Rows, []Value{mv})
	}
	n := Int(128)
	for tbl, want := range map[string][][]Value{
		"g": {{Int(1 << 53), n}, {Int(1<<53 + 1), n}},
		"m": {{Int(1<<53 + 1), n}, {Float(1 << 53), n}},
	} {
		sql := "SELECT k, COUNT(*) FROM " + tbl + " GROUP BY k"
		h0, _ := db.ColumnarStats()
		res, err := runLegs(t, db, sql)
		if h1, _ := db.ColumnarStats(); h1 != h0+2 {
			t.Errorf("%s: %d columnar hits, want 2 (cold and warm)", sql, h1-h0)
		}
		if err != nil || !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("%s: %+v (err %v), want %v", sql, res, err, want)
		}
	}
}

func TestColumnarParity(t *testing.T) {
	db := testDB(t)
	queries := []string{
		// Scan / filter shapes (vectorized kernels).
		"SELECT * FROM singer",
		"SELECT name FROM singer WHERE country = 'France'",
		"SELECT name FROM singer WHERE age > 30",
		"SELECT name FROM singer WHERE age >= 30 AND country <> 'France'",
		"SELECT name FROM singer WHERE age < 30 OR is_male = 'F'",
		"SELECT name FROM singer WHERE NOT (age > 30)",
		"SELECT * FROM stadium WHERE capacity BETWEEN 2000 AND 12000",
		"SELECT * FROM stadium WHERE name LIKE '%Park%'",
		"SELECT * FROM stadium WHERE stadium_id IN (1, 2, 9)",
		"SELECT * FROM stadium WHERE location IS NOT NULL",
		"SELECT name FROM singer WHERE 30 < age",
		"SELECT name FROM singer WHERE age = age",
		"SELECT name FROM singer WHERE NULL",
		// Aggregates, grouping, HAVING.
		"SELECT COUNT(*) FROM singer",
		"SELECT COUNT(*), SUM(capacity), AVG(average), MIN(name), MAX(location) FROM stadium",
		"SELECT country, COUNT(*) FROM singer GROUP BY country",
		"SELECT country, COUNT(*) FROM singer GROUP BY country HAVING COUNT(*) > 1",
		"SELECT year, COUNT(*) FROM concert GROUP BY year ORDER BY COUNT(*) DESC, year",
		"SELECT COUNT(DISTINCT country) FROM singer",
		"SELECT AVG(age) FROM singer WHERE country = 'France'",
		// ORDER BY / LIMIT / DISTINCT.
		"SELECT name, capacity FROM stadium ORDER BY capacity DESC LIMIT 2",
		"SELECT name FROM singer ORDER BY age LIMIT 2 OFFSET 1",
		"SELECT DISTINCT country FROM singer ORDER BY country",
		// Joins (vectorized pair building).
		"SELECT s.name, c.concert_name FROM concert AS c JOIN stadium AS s ON c.stadium_id = s.stadium_id",
		"SELECT c.concert_name, s.name FROM concert AS c LEFT JOIN stadium AS s ON c.stadium_id = s.stadium_id ORDER BY c.concert_id",
		"SELECT s.name, COUNT(*) FROM concert AS c JOIN stadium AS s ON c.stadium_id = s.stadium_id GROUP BY s.name",
		"SELECT c.concert_name FROM concert AS c JOIN stadium AS s ON c.stadium_id = s.stadium_id WHERE s.capacity > 10000",
		// Subqueries (generic eval through the scratch env, or row fallback).
		"SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer)",
		"SELECT name FROM singer AS s WHERE EXISTS (SELECT 1 FROM singer_in_concert AS sc WHERE sc.singer_id = s.singer_id)",
		"SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert)",
		// Single-table tails that read each candidate's environment, each
		// also under a WHERE that keeps no row: correlated scalar
		// subqueries in the select list and in WHERE (the per-row generic
		// mask), ORDER BY on expressions, HAVING and non-aggregate items on
		// the group representative, and the table read again under another
		// alias by a closed and a correlated subquery.
		"SELECT name, (SELECT COUNT(*) FROM singer_in_concert AS sc WHERE sc.singer_id = s.id) FROM singer AS s",
		"SELECT name, (SELECT COUNT(*) FROM singer_in_concert AS sc WHERE sc.singer_id = s.id) FROM singer AS s WHERE age > 1000",
		"SELECT name FROM singer AS s WHERE (SELECT COUNT(*) FROM singer_in_concert AS sc WHERE sc.singer_id = s.id) > 1",
		"SELECT name FROM singer AS s WHERE (SELECT COUNT(*) FROM singer_in_concert AS sc WHERE sc.singer_id = s.id) > 1 AND age > 1000",
		"SELECT name, age FROM singer ORDER BY age % 10, LENGTH(name) DESC",
		"SELECT name, age FROM singer WHERE age > 1000 ORDER BY age % 10, LENGTH(name) DESC",
		"SELECT name FROM singer AS s ORDER BY (SELECT COUNT(*) FROM singer_in_concert AS sc WHERE sc.singer_id = s.id) DESC, name",
		"SELECT name FROM singer AS s WHERE age > 1000 ORDER BY (SELECT COUNT(*) FROM singer_in_concert AS sc WHERE sc.singer_id = s.id) DESC, name",
		"SELECT country, UPPER(country), name, age + 1, COUNT(*) FROM singer GROUP BY country HAVING MAX(age) - MIN(age) >= 0 AND LENGTH(name) > 3 ORDER BY country",
		"SELECT country, UPPER(country), name, age + 1, COUNT(*) FROM singer WHERE age > 1000 GROUP BY country HAVING MAX(age) - MIN(age) >= 0 AND LENGTH(name) > 3 ORDER BY country",
		"SELECT name, age + 1, COUNT(*) FROM singer HAVING COUNT(*) > 0",
		"SELECT name, age + 1, COUNT(*) FROM singer WHERE age > 1000 HAVING COUNT(*) = 0",
		"SELECT * FROM singer AS a WHERE a.age > (SELECT AVG(b.age) FROM singer AS b)",
		"SELECT * FROM singer AS a WHERE a.age > (SELECT AVG(b.age) FROM singer AS b) AND a.age > 1000",
		"SELECT a.name, (SELECT AVG(b.age) FROM singer AS b WHERE b.country = a.country) FROM singer AS a WHERE a.age > (SELECT AVG(b.age) FROM singer AS b WHERE b.country = a.country) - 10",
		"SELECT a.name, (SELECT AVG(b.age) FROM singer AS b WHERE b.country = a.country) FROM singer AS a WHERE a.age > (SELECT AVG(b.age) FROM singer AS b WHERE b.country = a.country) + 1000",
		// Expression projections.
		"SELECT name, age * 2 + 1 FROM singer WHERE age % 2 = 0",
		"SELECT UPPER(name), LENGTH(country) FROM singer",
		"SELECT CASE WHEN age > 40 THEN 'old' ELSE 'young' END FROM singer",
		// Error cases must error identically (fallback owns the message).
		"SELECT nosuch FROM singer",
		"SELECT name FROM singer WHERE age > 'x' AND nosuch = 1",
		"SELECT SUM(name) FROM singer",
	}
	for _, q := range queries {
		runLegs(t, db, q)
	}
	hits, falls := db.ColumnarStats()
	if hits == 0 {
		t.Fatalf("columnar path never hit (hits=%d fallbacks=%d)", hits, falls)
	}
}

func TestColumnarNullAndMixedColumns(t *testing.T) {
	db := NewDatabase("d")
	if err := db.LoadScript(`
CREATE TABLE t (id INT, num REAL, s TEXT, b BOOL);
INSERT INTO t VALUES (1, 1.5, 'a', TRUE);
INSERT INTO t VALUES (2, NULL, 'B', FALSE);
INSERT INTO t VALUES (NULL, -0.0, NULL, NULL);
INSERT INTO t VALUES (4, 2, 'a', TRUE);
CREATE TABLE e (id INT, x INT);
INSERT INTO e (id) VALUES (1);
INSERT INTO e (id) VALUES (2);
`); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT * FROM t WHERE num > 1",
		"SELECT * FROM t WHERE num IS NULL",
		"SELECT * FROM t WHERE s = 'a'",
		"SELECT * FROM t WHERE s = 'A'", // equality is exact, not folded
		"SELECT * FROM t WHERE s < 'b'", // ordering folds case
		"SELECT * FROM t WHERE b",       // bool column: kindOther, generic path
		"SELECT * FROM t WHERE id",
		"SELECT * FROM t WHERE num BETWEEN 0 AND 2",
		"SELECT * FROM t WHERE id IN (1, NULL)",
		"SELECT * FROM t WHERE id NOT IN (1, 2, 4)",
		"SELECT COUNT(num), SUM(num), MIN(num), MAX(s) FROM t",
		"SELECT num, COUNT(*) FROM t GROUP BY num",
		"SELECT s, COUNT(*) FROM t GROUP BY s",
		// All-NULL column: kindEmpty kernels and folds.
		"SELECT * FROM e WHERE x > 0",
		"SELECT * FROM e WHERE x IS NULL",
		"SELECT COUNT(x), SUM(x), MIN(x) FROM e",
		"SELECT x, COUNT(*) FROM e GROUP BY x",
		// Join keyed on a column with NULLs, and on an all-NULL column.
		"SELECT a.id, b.id FROM t AS a JOIN t AS b ON a.num = b.num",
		"SELECT t.id, e.id FROM t LEFT JOIN e ON t.id = e.x",
		"SELECT t.id, e.id FROM t JOIN e ON t.id = e.x",
	}
	for _, q := range queries {
		runLegs(t, db, q)
	}
}

func TestColumnarQualification(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT * FROM singer", true},
		{"SELECT COUNT(*) FROM singer GROUP BY country", true},
		{"SELECT * FROM concert JOIN stadium ON concert.stadium_id = stadium.stadium_id", true},
		{"SELECT * FROM concert LEFT JOIN stadium ON concert.stadium_id = stadium.stadium_id", true},
		// Not qualified: derived table, cross join, compound, multi-join,
		// non-equi ON, same-side ON.
		{"SELECT * FROM (SELECT * FROM singer) AS s", false},
		{"SELECT * FROM singer CROSS JOIN stadium", false},
		{"SELECT name FROM singer UNION SELECT name FROM stadium", false},
		{"SELECT * FROM concert JOIN stadium ON concert.stadium_id = stadium.stadium_id JOIN singer ON singer.singer_id = concert.concert_id", false},
		{"SELECT * FROM concert JOIN stadium ON concert.stadium_id < stadium.stadium_id", false},
		{"SELECT * FROM concert AS c JOIN stadium AS s ON c.stadium_id = c.concert_id", false},
	}
	for _, c := range cases {
		sel, err := sqlparse.ParseSelect(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		p := PlanSelect(db, sel)
		vp := buildVecPlan(p, p.Stmt)
		if vp.ok != c.want {
			t.Errorf("%s: qualified=%v, want %v", c.sql, vp.ok, c.want)
		}
	}
}

// TestColumnarCounters checks what a default executor counts on the six-row
// singer table: aggregated and scan statements are hits at any table size,
// an unqualified statement is a fallback, each execution of a closed
// subquery counts as its own sub-plan's hit or fallback, and a disabled
// executor counts nothing.
func TestColumnarCounters(t *testing.T) {
	db := testDB(t)
	off := NewExecutor(db)
	off.SetColumnar(false)
	for _, tc := range []struct {
		ex              *Executor
		sql             string
		hits, fallbacks int64
	}{
		{NewExecutor(db), "SELECT COUNT(*) FROM singer", 1, 0},
		{NewExecutor(db), "SELECT country, COUNT(*) FROM singer GROUP BY country", 1, 0},
		{NewExecutor(db), "SELECT name FROM singer WHERE age > 30", 1, 0},
		{NewExecutor(db), "SELECT name FROM singer UNION SELECT name FROM stadium", 0, 1},
		{NewExecutor(db), "SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer)", 2, 0},
		{NewExecutor(db), "SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert UNION SELECT stadium_id FROM stadium)", 1, 1},
		{NewExecutor(db), "SELECT name FROM singer UNION SELECT name FROM stadium WHERE capacity > (SELECT MIN(capacity) FROM stadium)", 1, 1},
		{off, "SELECT COUNT(*) FROM singer", 0, 0},
		{off, "SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer)", 0, 0},
	} {
		h0, f0 := db.ColumnarStats()
		if _, err := tc.ex.Query(tc.sql); err != nil {
			t.Fatal(err)
		}
		h1, f1 := db.ColumnarStats()
		if h1-h0 != tc.hits || f1-f0 != tc.fallbacks {
			t.Errorf("%s: hits +%d fallbacks +%d, want +%d +%d", tc.sql, h1-h0, f1-f0, tc.hits, tc.fallbacks)
		}
	}
}

func TestColKindClassification(t *testing.T) {
	db := NewDatabase("d")
	if err := db.LoadScript(`
CREATE TABLE k (i INT, f REAL, m REAL, s TEXT, b BOOL, e INT, mx TEXT);
INSERT INTO k (i, f, m, s, b, mx) VALUES (1, 1.5, 2, 'x', TRUE, 'a');
INSERT INTO k (i, f, m, s, b, mx) VALUES (2, 2.5, 2.5, 'y', FALSE, '3');
CREATE TABLE j (i INT, label TEXT);
INSERT INTO j VALUES (1, 'one'), (2, 'two');
`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("k")
	// DDL coerces by column type, so mixed-type columns can't be scripted;
	// patch rows directly to get an int/float mix and a text/number mix.
	tbl.Rows[0][2] = Int(2)
	tbl.Rows[1][6] = Int(3)
	ct := db.colTable(tbl)
	wants := []colKind{kindInt, kindFloat, kindNum, kindString, kindOther, kindEmpty, kindOther}
	for i, want := range wants {
		if ct.cols[i].kind != want {
			t.Errorf("col %s: kind=%d want %d", tbl.Columns[i].Name, ct.cols[i].kind, want)
		}
	}
	// Cache invalidates on append.
	tbl.Rows = append(tbl.Rows, []Value{Null(), Null(), Null(), Null(), Null(), Null(), Null()})
	ct2 := db.colTable(tbl)
	if ct2 == ct || ct2.n != 3 {
		t.Fatalf("expected rebuild after append (n=%d)", ct2.n)
	}
	if !ct2.cols[0].null(2) {
		t.Fatal("appended NULL row not reflected in null bitmap")
	}

	// The join tables and grouping codes go stale with the projection: a
	// warm join and warm GROUP BYs, on plans prepared once, see rows
	// appended after them, a new key and a NULL on both sides. Before the
	// append, j.label holds no NULL, so the LEFT JOIN's pad row takes a
	// group slot of its own; after it, the pad rows join j.label's NULL.
	plans := map[string]*Plan{}
	check := func(sql string, want [][]Value) {
		t.Helper()
		if plans[sql] == nil {
			p, err := Prepare(db, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			plans[sql] = p
		}
		h0, _ := db.ColumnarStats()
		res, err := runPlanLegs(t, db, plans[sql], sql)
		if err != nil || !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("%s: %v (err %v), want %v", sql, res.Rows, err, want)
		}
		if h1, _ := db.ColumnarStats(); h1 != h0+2 {
			t.Fatalf("%s: %d columnar hits, want 2", sql, h1-h0)
		}
	}
	const (
		joined  = "SELECT k.i, j.label FROM k JOIN j ON k.i = j.i"
		padded  = "SELECT j.label, COUNT(*) FROM k LEFT JOIN j ON k.i = j.i GROUP BY j.label"
		grouped = "SELECT s, COUNT(*) FROM k GROUP BY s"
	)
	one, two, three, null := Text("one"), Text("two"), Text("three"), Null()
	check(joined, [][]Value{{Int(1), one}, {Int(2), two}})
	check(padded, [][]Value{{one, Int(1)}, {two, Int(1)}, {null, Int(1)}})
	check(grouped, [][]Value{{Text("x"), Int(1)}, {Text("y"), Int(1)}, {null, Int(1)}})
	j, _ := db.Table("j")
	tbl.Rows = append(tbl.Rows,
		[]Value{Int(3), Null(), Null(), Text("z"), Null(), Null(), Null()},
		[]Value{Null(), Null(), Null(), Null(), Null(), Null(), Null()})
	j.Rows = append(j.Rows, []Value{Int(3), three}, []Value{Null(), Null()})
	check(joined, [][]Value{{Int(1), one}, {Int(2), two}, {Int(3), three}})
	check(padded, [][]Value{{one, Int(1)}, {two, Int(1)}, {null, Int(2)}, {three, Int(1)}})
	check(grouped, [][]Value{{Text("x"), Int(1)}, {Text("y"), Int(1)}, {null, Int(2)}, {Text("z"), Int(1)}})
}

// TestColumnarFirstUseConcurrent runs the first Runs of join and GROUP BY
// plans on a fresh database from eight goroutines at once, so that they
// race to build the plans' columnar qualification, the tables' projections,
// and the projections' join tables and grouping codes. Every result must be
// the row executor's, computed on a database of its own.
func TestColumnarFirstUseConcurrent(t *testing.T) {
	const goroutines = 8
	sqls := []string{
		"SELECT a.id, b.s FROM a JOIN b ON a.k = b.k",
		"SELECT a.id, b.id FROM a LEFT JOIN b ON a.s = b.s",
		"SELECT k, COUNT(*) FROM a GROUP BY k",
		"SELECT s, COUNT(*), MIN(id) FROM b GROUP BY s",
		"SELECT b.s, COUNT(*) FROM a LEFT JOIN b ON a.k = b.k GROUP BY b.s",
		"SELECT a.s, SUM(b.id) FROM a JOIN b ON a.k = b.k GROUP BY a.s",
		// Single-table statements whose tails evaluate over each row's
		// environment.
		"SELECT id, k * 2 + 1, UPPER(s) FROM a WHERE k % 7 = 0 ORDER BY LENGTH(s) DESC, k * -1, id",
		"SELECT s, LOWER(s), id + k, MAX(id) - MIN(id) FROM b WHERE k IS NOT NULL GROUP BY s HAVING COUNT(*) > 2 AND s <> 's1'",
	}
	build := func() (*Database, []*Plan) {
		db := NewDatabase("first")
		if err := db.LoadScript("CREATE TABLE a (id INT, k INT, s TEXT); CREATE TABLE b (id INT, k INT, s TEXT);"); err != nil {
			t.Fatal(err)
		}
		a, _ := db.Table("a")
		b, _ := db.Table("b")
		for i := 0; i < 2000; i++ {
			a.Rows = append(a.Rows, []Value{Int(int64(i)), Int(int64(i % 300)), Text(fmt.Sprintf("s%d", i%40))})
			if i < 500 {
				k, s := Int(int64(i*7%400)), Text(fmt.Sprintf("s%d", i%60))
				if i%9 == 0 {
					k = Null()
				}
				if i%7 == 0 {
					s = Null()
				}
				b.Rows = append(b.Rows, []Value{Int(int64(i)), k, s})
			}
		}
		plans := make([]*Plan, len(sqls))
		for i, sql := range sqls {
			p, err := Prepare(db, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			plans[i] = p
		}
		return db, plans
	}
	refDB, refPlans := build()
	off := NewExecutor(refDB)
	off.SetColumnar(false)
	want := make([]*Result, len(sqls))
	for i, p := range refPlans {
		res, err := off.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", sqls[i], err)
		}
		want[i] = res
	}
	for round := 0; round < 3; round++ {
		db, plans := build()
		got := make([][]*Result, goroutines)
		errs := make([][]error, goroutines)
		var wg sync.WaitGroup
		for g := range goroutines {
			got[g], errs[g] = make([]*Result, len(sqls)), make([]error, len(sqls))
			wg.Add(1)
			go func() {
				defer wg.Done()
				ex := NewExecutor(db)
				// Each goroutine starts at another plan, so that every plan
				// has some first Runs racing.
				for k := range sqls {
					i := (g + k) % len(sqls)
					got[g][i], errs[g][i] = ex.Run(plans[i])
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for i, res := range got[g] {
				if errs[g][i] != nil || !sameResult(res, want[i]) {
					t.Fatalf("round %d, goroutine %d, %s: %v (err %v), want %v", round, g, sqls[i], res, errs[g][i], want[i])
				}
			}
		}
		if hits, falls := db.ColumnarStats(); hits != goroutines*int64(len(sqls)) || falls != 0 {
			t.Fatalf("round %d: %d hits, %d fallbacks; want every Run a hit", round, hits, falls)
		}
	}
}

func TestColumnarLimitParity(t *testing.T) {
	db := testDB(t)
	for _, q := range []string{
		"SELECT name FROM singer LIMIT 0",
		"SELECT name FROM singer LIMIT 100",
		"SELECT name FROM singer LIMIT 2 OFFSET 100",
		"SELECT name FROM singer WHERE age > 1000 LIMIT 3",
	} {
		runLegs(t, db, q)
	}
}

// TestResultHeader pins the header of *, alias.*, COUNT(*), expression and
// AS items, on one table and on a join, with no WHERE and with a WHERE that
// keeps some rows, where the header comes from the bindings, and with one
// that keeps none, where it comes from the catalog: there a t.* whose t is
// an alias and not a table stays "t.*". Every leg, the warm Run included,
// must give it, and both Runs must be columnar hits.
func TestResultHeader(t *testing.T) {
	db := testDB(t)
	singer := []string{"id", "name", "age", "country", "song_name", "song_release_year"}
	concert := []string{"concert_id", "concert_name", "theme", "stadium_id", "year"}
	stadium := []string{"stadium_id", "location", "name", "capacity", "average"}
	cat := func(parts ...[]string) []string { return slices.Concat(parts...) }
	const join = " FROM concert AS c JOIN stadium AS s ON c.stadium_id = s.stadium_id"
	const leftJoin = " FROM concert AS c LEFT JOIN stadium AS s ON c.stadium_id = s.stadium_id"
	for _, tc := range []struct {
		sql, group  string
		rows, empty []string // the header over some rows and over none
	}{
		{"SELECT * FROM singer", "", singer, singer},
		{"SELECT x.* FROM singer AS x", "", singer, []string{"x.*"}},
		{"SELECT singer.*, age FROM singer", "", cat(singer, []string{"age"}), cat(singer, []string{"age"})},
		{"SELECT COUNT(*), MAX(age) FROM singer", "", []string{"COUNT(*)", "MAX(age)"}, []string{"COUNT(*)", "MAX(age)"}},
		{"SELECT age + 1, UPPER(name) FROM singer", "", []string{"age + 1", "UPPER(name)"}, []string{"age + 1", "UPPER(name)"}},
		{"SELECT name AS n, country FROM singer", "", []string{"n", "country"}, []string{"n", "country"}},
		{"SELECT country, COUNT(*) AS k FROM singer", " GROUP BY country", []string{"country", "k"}, []string{"country", "k"}},
		{"SELECT *" + join, "", cat(concert, stadium), cat(concert, stadium)},
		{"SELECT s.*, c.concert_name" + leftJoin, "", cat(stadium, []string{"concert_name"}), []string{"s.*", "concert_name"}},
		{"SELECT COUNT(*), s.name, AVG(c.year) + 1 AS a" + join, " GROUP BY s.name", []string{"COUNT(*)", "name", "a"}, []string{"COUNT(*)", "name", "a"}},
	} {
		some, none := " WHERE age > 30", " WHERE age > 1000"
		if strings.Contains(tc.sql, " JOIN ") {
			some, none = " WHERE c.year > 2014", " WHERE c.year > 3000"
		}
		for _, where := range []string{"", some, none} {
			sql := tc.sql + where + tc.group
			want := tc.rows
			if where == none {
				want = tc.empty
			}
			h0, f0 := db.ColumnarStats()
			res, err := runLegs(t, db, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if !slices.Equal(res.Columns, want) {
				t.Errorf("%s: header %q, want %q", sql, res.Columns, want)
			}
			if h1, f1 := db.ColumnarStats(); h1 != h0+2 || f1 != f0 {
				t.Errorf("%s: hits +%d fallbacks +%d, want +2 +0", sql, h1-h0, f1-f0)
			}
		}
	}
}

// TestTailErrorsAfterVectorizedStages runs statements whose vectorized
// stages succeed and whose shared tail then errors — in the select list, in
// HAVING, in an ORDER BY key or in LIMIT — aggregated or not, on one table
// and on a join. The error is returned as is, so every leg must give the
// same text, and Run counts a hit, not a fallback.
func TestTailErrorsAfterVectorizedStages(t *testing.T) {
	db := NewDatabase("tail")
	if err := db.LoadScript("CREATE TABLE big (id INT, name TEXT, grp INT); CREATE TABLE other (id INT, label TEXT);"); err != nil {
		t.Fatal(err)
	}
	big, _ := db.Table("big")
	other, _ := db.Table("other")
	for i := 0; i < 256; i++ {
		big.Rows = append(big.Rows, []Value{Int(int64(i)), Text(fmt.Sprintf("n%d", i)), Int(int64(i % 5))})
		if i%2 == 0 {
			other.Rows = append(other.Rows, []Value{Int(int64(i)), Text(fmt.Sprintf("l%d", i%3))})
		}
	}
	const (
		join     = " FROM big AS b JOIN other AS o ON b.id = o.id"
		arith    = "arithmetic on non-numeric values TEXT, INT"
		tooMany  = "scalar subquery returned 256 rows"
		limitBad = " LIMIT (SELECT id FROM big)"
	)
	for _, tc := range []struct{ sql, err string }{
		{"SELECT name + 1 FROM big", arith},
		{"SELECT id FROM big ORDER BY name + 1", arith},
		{"SELECT id FROM big WHERE grp = 2" + limitBad, tooMany},
		{"SELECT grp, name + 1 FROM big GROUP BY grp", arith},
		{"SELECT grp, COUNT(*) FROM big GROUP BY grp HAVING name + 1 > 0", arith},
		{"SELECT grp, COUNT(*) FROM big GROUP BY grp ORDER BY name + 1", arith},
		{"SELECT MAX(id) FROM big HAVING name + 1 > 0", arith},
		{"SELECT grp, SUM(id) FROM big GROUP BY grp" + limitBad, tooMany},
		{"SELECT b.name + 1" + join, arith},
		{"SELECT o.label" + join + " ORDER BY b.name + 1", arith},
		{"SELECT o.label" + join + limitBad, tooMany},
		{"SELECT o.label, b.name + 1" + join + " GROUP BY o.label", arith},
		{"SELECT o.label, COUNT(*)" + join + " GROUP BY o.label HAVING b.name + 1 > 0", arith},
		{"SELECT o.label, COUNT(*)" + join + " GROUP BY o.label ORDER BY b.name + 1", arith},
		{"SELECT o.label, MIN(b.name)" + join + " GROUP BY o.label" + limitBad, tooMany},
	} {
		h0, f0 := db.ColumnarStats()
		_, err := runLegs(t, db, tc.sql)
		h1, f1 := db.ColumnarStats()
		if err == nil || err.Error() != tc.err {
			t.Errorf("%s: got %v, want %q", tc.sql, err, tc.err)
		}
		// One hit on each of the cold and the warm Run. The LIMIT's closed
		// subquery runs once per Run, as a sub-plan: a hit of its own.
		want := int64(2)
		if strings.HasSuffix(tc.sql, limitBad) {
			want = 4
		}
		if h1 != h0+want || f1 != f0 {
			t.Errorf("%s: hits %d->%d, fallbacks %d->%d; want %d hits", tc.sql, h0, h1, f0, f1, want)
		}
	}
}

// foldPools are the value domains TestTypedFoldMatchesSharedFold draws a
// column from: each gives typedFold a different column kind to decide on.
var foldPools = [][]Value{
	{Int(0), Int(1), Int(-3), Int(7), Int(1 << 53), Int(1<<53 + 1)},
	{Float(0), Float(math.Copysign(0, -1)), Float(1.5), Float(-2.25), Float(math.Inf(1)), Float(math.Inf(-1))},
	{Int(0), Float(math.Copysign(0, -1)), Int(1), Float(1), Int(2), Float(2.5), Float(math.Inf(1)), Float(math.Inf(-1))},
	{Text("a"), Text("A"), Text("b"), Text("B"), Text(""), Text("ab"), Text("é"), Text("É")},
	{},
	{Bool(true), Bool(false)},
	{Int(1), Text("1"), Bool(true), Float(math.NaN()), Float(2)},
}

// TestTypedFoldMatchesSharedFold generates random columns and random groups
// and checks that for every aggregate typedFold either declines or returns
// exactly what the shared fold returns over the same rows — the same Value,
// type included: MIN and MAX over an int / float tie return the first row's
// original value.
func TestTypedFoldMatchesSharedFold(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	arg := &sqlast.ColumnRef{Column: "c"}
	answered := map[string]int{}
	for iter := 0; iter < 2000; iter++ {
		pool := foldPools[rng.Intn(len(foldPools))]
		tbl := &Table{Name: "t", Columns: []Column{{Name: "c"}}}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			v := Null()
			if len(pool) > 0 && rng.Intn(6) != 0 {
				v = pool[rng.Intn(len(pool))]
			}
			tbl.Rows = append(tbl.Rows, []Value{v})
		}
		ct := buildColTable(tbl)
		v := &vecExec{vp: &vecPlan{t1: tbl}, ct1: ct}
		var group []int32
		for i := range tbl.Rows {
			if rng.Intn(3) != 0 {
				group = append(group, int32(i))
			}
		}
		for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
			got, ok := v.typedFold(name, &ct.cols[0], 0, group)
			if !ok {
				continue
			}
			answered[name]++
			want, err := foldAggregate(&sqlast.FuncCall{Name: name, Args: []sqlast.Expr{arg}}, len(group), func(k int) (Value, error) {
				return tbl.Rows[group[k]][0], nil
			})
			if err != nil || !sameCell(got, want) {
				t.Fatalf("%s over %v: typed %#v, shared fold %#v (err %v)", name, tbl.Rows, got, want, err)
			}
		}
	}
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		if answered[name] < 500 {
			t.Errorf("typedFold answered %s only %d times", name, answered[name])
		}
	}
}
