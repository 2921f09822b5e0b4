package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
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
		if h1, _ := db.ColumnarStats(); h1 != h0+1 {
			t.Errorf("%s: %d columnar hits, want 1", sql, h1-h0)
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
		// Subqueries (generic eval through shared envs, or row fallback).
		"SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer)",
		"SELECT name FROM singer AS s WHERE EXISTS (SELECT 1 FROM singer_in_concert AS sc WHERE sc.singer_id = s.singer_id)",
		"SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert)",
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
		// The LIMIT's closed subquery runs once, as a sub-plan: a hit of
		// its own.
		want := int64(1)
		if strings.HasSuffix(tc.sql, limitBad) {
			want = 2
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
