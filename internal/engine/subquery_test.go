package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestPlanSubqueries(t *testing.T) {
	db := testDB(t)
	closed := func(sql string) SubqueryInfo { return SubqueryInfo{SQL: sql, Closed: true} }
	open := func(sql, reason string) SubqueryInfo { return SubqueryInfo{SQL: sql, Reason: reason} }
	cases := []struct {
		name string
		sql  string
		want []SubqueryInfo
	}{
		{"no subquery", "SELECT name FROM singer WHERE age > 30", nil},
		{"top-level derived table is not classified",
			"SELECT t.name FROM (SELECT name FROM singer) AS t", nil},
		{"closed IN",
			"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert)",
			[]SubqueryInfo{closed("SELECT singer_id FROM singer_in_concert")}},
		{"closed scalar and EXISTS",
			"SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer) AND EXISTS (SELECT 1 FROM concert)",
			[]SubqueryInfo{closed("SELECT AVG(age) FROM singer"), closed("SELECT 1 FROM concert")}},
		{"correlated EXISTS",
			"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert WHERE singer_id = singer.id)",
			[]SubqueryInfo{open("SELECT 1 FROM singer_in_concert WHERE singer_id = singer.id", "correlated: singer.id")}},
		{"inner closed under a correlated middle",
			"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert AS sc WHERE sc.singer_id = singer.id AND sc.concert_id IN (SELECT concert_id FROM concert WHERE year = 2014))",
			[]SubqueryInfo{
				open("SELECT 1 FROM singer_in_concert AS sc WHERE sc.singer_id = singer.id AND sc.concert_id IN (SELECT concert_id FROM concert WHERE year = 2014)", "correlated: singer.id"),
				closed("SELECT concert_id FROM concert WHERE year = 2014"),
			}},
		{"inner correlated to the middle only",
			"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert AS sc WHERE EXISTS (SELECT 1 FROM concert WHERE concert.concert_id = sc.concert_id))",
			[]SubqueryInfo{
				closed("SELECT singer_id FROM singer_in_concert AS sc WHERE EXISTS (SELECT 1 FROM concert WHERE concert.concert_id = sc.concert_id)"),
				open("SELECT 1 FROM concert WHERE concert.concert_id = sc.concert_id", "correlated: sc.concert_id"),
			}},
		{"inner reference skips the middle",
			"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert WHERE EXISTS (SELECT 1 FROM concert WHERE year > singer.age))",
			[]SubqueryInfo{
				open("SELECT singer_id FROM singer_in_concert WHERE EXISTS (SELECT 1 FROM concert WHERE year > singer.age)", "correlated: singer.age"),
				open("SELECT 1 FROM concert WHERE year > singer.age", "correlated: singer.age"),
			}},
		{"LIMIT reaches the outer row",
			"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert LIMIT age)",
			[]SubqueryInfo{open("SELECT singer_id FROM singer_in_concert LIMIT age", "correlated: age")}},
		{"unknown column",
			"SELECT name FROM singer WHERE id IN (SELECT nope FROM singer_in_concert)",
			[]SubqueryInfo{open("SELECT nope FROM singer_in_concert", "unresolved reference")}},
		{"reference through an opaque derived table",
			"SELECT name FROM singer WHERE id IN (SELECT x FROM (SELECT * FROM (SELECT 1 AS x) AS a) AS d)",
			[]SubqueryInfo{
				open("SELECT x FROM (SELECT * FROM (SELECT 1 AS x) AS a) AS d", "opaque source"),
				closed("SELECT * FROM (SELECT 1 AS x) AS a"),
				closed("SELECT 1 AS x"),
			}},
		{"compound ORDER BY by name",
			"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert UNION SELECT id FROM singer ORDER BY singer_id)",
			[]SubqueryInfo{open("SELECT singer_id FROM singer_in_concert UNION SELECT id FROM singer ORDER BY singer_id ASC", "compound ORDER BY")}},
		{"compound ORDER BY by ordinal",
			"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert UNION SELECT id FROM singer ORDER BY 1)",
			[]SubqueryInfo{closed("SELECT singer_id FROM singer_in_concert UNION SELECT id FROM singer ORDER BY 1 ASC")}},
		{"closed derived table under a correlated subquery",
			"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM (SELECT singer_id FROM singer_in_concert) AS d WHERE d.singer_id = singer.id)",
			[]SubqueryInfo{
				open("SELECT 1 FROM (SELECT singer_id FROM singer_in_concert) AS d WHERE d.singer_id = singer.id", "correlated: singer.id"),
				closed("SELECT singer_id FROM singer_in_concert"),
			}},
		{"subquery in ORDER BY and HAVING",
			"SELECT country FROM singer GROUP BY country HAVING COUNT(*) > (SELECT 1) ORDER BY (SELECT MAX(year) FROM concert)",
			[]SubqueryInfo{closed("SELECT 1"), closed("SELECT MAX(year) FROM concert")}},
	}
	for _, tc := range cases {
		p, err := Prepare(db, tc.sql)
		if err != nil {
			t.Fatalf("%s: prepare: %v", tc.name, err)
		}
		got := p.Subqueries()
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
		if tc.want == nil && (p.subs != nil || p.subIdx != nil) {
			t.Errorf("%s: plan carries subquery bookkeeping without a subquery", tc.name)
		}
		runBothWays(t, db, tc.sql)
	}
}

// subStatsDelta runs fn and returns how far it moved db's subquery counters.
func subStatsDelta(db *Database, fn func()) SubqueryStats {
	a := db.SubqueryStats()
	fn()
	b := db.SubqueryStats()
	return SubqueryStats{
		ClosedExecs: b.ClosedExecs - a.ClosedExecs,
		MemoHits:    b.MemoHits - a.MemoHits,
		OpenExecs:   b.OpenExecs - a.OpenExecs,
	}
}

func TestClosedSubqueryExecutesOncePerRun(t *testing.T) {
	db := testDB(t)
	const rows = 6 // singer
	cases := []struct {
		sql  string
		want SubqueryStats
	}{
		{"SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer)",
			SubqueryStats{ClosedExecs: 1, MemoHits: rows - 1}},
		{"SELECT name FROM singer WHERE id NOT IN (SELECT singer_id FROM singer_in_concert)",
			SubqueryStats{ClosedExecs: 1, MemoHits: rows - 1}},
		{"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert WHERE singer_id = singer.id)",
			SubqueryStats{OpenExecs: rows}},
		// The closed derived table runs once although the subquery around
		// it runs per row.
		{"SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM (SELECT singer_id FROM singer_in_concert) AS d WHERE d.singer_id = singer.id)",
			SubqueryStats{ClosedExecs: 1, MemoHits: rows - 1, OpenExecs: rows}},
		// AND short-circuits before the subquery on every row: never run.
		{"SELECT name FROM singer WHERE age < 0 AND id IN (SELECT singer_id FROM singer_in_concert)",
			SubqueryStats{}},
	}
	for _, tc := range cases {
		p, err := Prepare(db, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(db)
		ex.SetColumnar(false)
		got := subStatsDelta(db, func() {
			if _, err := ex.Run(p); err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
		})
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.sql, got, tc.want)
		}
		// The plan-less oracle classifies nothing and counts nothing.
		if got := subStatsDelta(db, func() { NewExecutor(db).Select(p.Stmt) }); got != (SubqueryStats{}) {
			t.Errorf("%s: Select moved the counters: %+v", tc.sql, got)
		}
	}
}

func TestClosedSubqueryErrorsStayLazy(t *testing.T) {
	db := testDB(t)
	if err := db.LoadScript("CREATE TABLE empty_t (id INT, age INT);"); err != nil {
		t.Fatal(err)
	}
	subs := []struct{ cond, err string }{
		{"age = (SELECT id FROM singer WHERE id <= 2)", "scalar subquery returned 2 rows"},
		{"id IN (SELECT id, age FROM singer)", "IN subquery returned 2 columns"},
	}
	legs := func(sql string) (errs [3]error) {
		p, err := Prepare(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		_, errs[0] = NewExecutor(db).Run(p)
		off := NewExecutor(db)
		off.SetColumnar(false)
		_, errs[1] = off.Run(p)
		_, errs[2] = NewExecutor(db).Select(p.Stmt)
		return errs
	}
	for _, s := range subs {
		// No row reaches the subquery: it never runs, so it cannot fail.
		sql := "SELECT id FROM empty_t WHERE " + s.cond
		d := subStatsDelta(db, func() {
			for i, err := range legs(sql) {
				if err != nil {
					t.Errorf("%s: leg %d: %v", sql, i, err)
				}
			}
		})
		if d != (SubqueryStats{}) {
			t.Errorf("%s: subquery ran over an empty table: %+v", sql, d)
		}
		sql = "SELECT id FROM singer WHERE " + s.cond
		for i, err := range legs(sql) {
			if err == nil || err.Error() != s.err {
				t.Errorf("%s: leg %d: got %v, want %q", sql, i, err, s.err)
			}
		}
	}
}

// TestInSetMatchesLinearScan checks the memoized IN probe against IN's
// definition — a linear Equal scan — on candidate sets that are numeric,
// text, all-NULL, empty and mixed, probed from every domain.
func TestInSetMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pools := map[string][]Value{
		// Int/float ties (2 = 2.0, -0.0 = 0) must collide.
		"num":  {Int(0), Float(math.Copysign(0, -1)), Int(1), Float(1), Int(2), Float(2.5), Int(5), Float(1 << 53), Int(1<<53 + 1)},
		"text": {Text("a"), Text("A"), Text("b"), Text("5"), Text("true"), Text(""), Text("1")},
		"bool": {Bool(true), Bool(false)},
		"nan":  {Float(math.NaN())},
	}
	draw := func(from ...string) Value {
		if rng.Intn(6) == 0 {
			return Null()
		}
		p := pools[from[rng.Intn(len(from))]]
		return p[rng.Intn(len(p))]
	}
	domains := [][]string{{"num"}, {"text"}, {"num", "text"}, {"num", "bool"}, {"text", "bool"}, {"num", "nan"}, {"num", "text", "bool", "nan"}}
	hashed := 0
	for iter := 0; iter < 4000; iter++ {
		from := domains[rng.Intn(len(domains))]
		rows := make([][]Value, rng.Intn(7))
		for i := range rows {
			rows[i] = []Value{draw(from...)}
		}
		set := newInSet(rows)
		if set.dom.hashable() {
			hashed++
		}
		probe := draw("num", "text", "bool", "nan")
		if probe.IsNull() {
			continue // evalIn answers NULL before it consults the set
		}
		wantMatch, wantNull := false, false
		for _, r := range rows {
			eq, known := Equal(probe, r[0])
			wantNull = wantNull || !known
			wantMatch = wantMatch || eq
		}
		if got := set.contains(probe); got != wantMatch || set.sawNull != wantNull {
			t.Fatalf("probe %#v in %v: contains=%v sawNull=%v, linear scan match=%v sawNull=%v",
				probe, rows, got, set.sawNull, wantMatch, wantNull)
		}
	}
	if hashed == 0 {
		t.Fatal("no candidate set was hashable: the probe path went untested")
	}
}

// TestInSubqueryMixedDomains runs IN / NOT IN over closed subqueries whose
// candidates cross type domains, where a hash key would diverge from Equal.
func TestInSubqueryMixedDomains(t *testing.T) {
	db := NewDatabase("d")
	script := `
CREATE TABLE probe (n INT, s TEXT, b BOOL, f REAL);
INSERT INTO probe VALUES (1, '1', TRUE, 1.0), (2, 'two', FALSE, 2.5), (5, '5', TRUE, 5.0), (NULL, NULL, NULL, NULL), (0, '', FALSE, 0.0);
CREATE TABLE cand (n INT, s TEXT, b BOOL, f REAL);
INSERT INTO cand VALUES (1, '5', TRUE, 2.0), (NULL, 'two', NULL, 5.0), (7, 'TRUE', FALSE, 0.0);
`
	if err := db.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	cols := []string{"n", "s", "b", "f"}
	for _, pc := range cols {
		for _, cc := range cols {
			for _, not := range []string{"", "NOT "} {
				for _, where := range []string{"", " WHERE " + cc + " IS NOT NULL"} {
					sql := fmt.Sprintf("SELECT n, s FROM probe WHERE %s %sIN (SELECT %s FROM cand%s)", pc, not, cc, where)
					runBothWays(t, db, sql)
					runLegs(t, db, sql)
				}
			}
		}
	}
}

func TestSubqueryMemoDoesNotOutliveRun(t *testing.T) {
	db := testDB(t)
	const sql = "SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert) ORDER BY id"
	p, err := Prepare(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(db)
	before, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 5 || ex.memo != nil {
		t.Fatalf("first run: %d rows, memo retained: %v", len(before.Rows), ex.memo != nil)
	}
	// Singer 1 joins a concert: the same plan on the same executor sees it.
	if err := db.LoadScript("INSERT INTO singer_in_concert VALUES (6, 1);"); err != nil {
		t.Fatal(err)
	}
	after, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != 6 || after.Rows[0][0] != Text("Joe Sharp") {
		t.Fatalf("second run did not see the appended row: %+v", after.Rows)
	}
	if want, _ := NewExecutor(db).Select(p.Stmt); !reflect.DeepEqual(after, want) {
		t.Fatalf("second run diverged from the oracle:\n got %+v\nwant %+v", after, want)
	}
}

// ----------------------------------------------------------------------------
// Benchmarks: one closed subquery under a 10 000-row scan, on the planned
// path (executed once per Run) and on the plan-less Select oracle (executed
// once per outer row).

func benchSubqueryDB(b *testing.B) *Database {
	b.Helper()
	db := NewDatabase("bench_subquery")
	if err := db.LoadScript("CREATE TABLE t (id INT, grp TEXT, val INT); CREATE TABLE dim (grp TEXT, val INT);"); err != nil {
		b.Fatal(err)
	}
	t, _ := db.Table("t")
	for i := 0; i < 10000; i++ {
		t.Rows = append(t.Rows, []Value{Int(int64(i)), Text(fmt.Sprintf("g%03d", i%997)), Int(int64(i * 7919 % 10007))})
	}
	dim, _ := db.Table("dim")
	for i := 0; i < 500; i++ {
		dim.Rows = append(dim.Rows, []Value{Text(fmt.Sprintf("g%03d", i*2)), Int(int64(i * 31 % 503))})
	}
	return db
}

// benchRunVsSelect times sql on Run and on Select over db after asserting
// that the two produce identical, non-empty results.
func benchRunVsSelect(b *testing.B, db *Database, sql string) {
	p, err := Prepare(db, sql)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(db)
	got, err := ex.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	want, err := ex.Select(p.Stmt)
	if err != nil {
		b.Fatal(err)
	}
	if len(want.Rows) == 0 || !EqualResults(want, got) {
		b.Fatalf("run/select divergence (or empty result) for %q", sql)
	}
	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Select(p.Stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSubqueryScalar(b *testing.B) {
	benchRunVsSelect(b, benchSubqueryDB(b), "SELECT id FROM t WHERE val > (SELECT AVG(val) * 30 FROM dim)")
}

func BenchmarkSubqueryIn(b *testing.B) {
	benchRunVsSelect(b, benchSubqueryDB(b), "SELECT id FROM t WHERE grp IN (SELECT grp FROM dim WHERE val > 250)")
}

func BenchmarkSubqueryExists(b *testing.B) {
	benchRunVsSelect(b, benchSubqueryDB(b), "SELECT id FROM t WHERE val > 9000 AND EXISTS (SELECT 1 FROM dim WHERE val = 7)")
}
