package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// joinDB builds a fixture with NULL keys, duplicate keys and mixed-type
// keys for the join edge cases.
func joinDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("join_edge")
	script := `
CREATE TABLE l (id INT, tag TEXT);
INSERT INTO l VALUES (1, 'a'), (2, 'b'), (NULL, 'c'), (2, 'd'), (5, 'e');
CREATE TABLE r (id INT, val TEXT);
INSERT INTO r VALUES (2, 'x'), (NULL, 'y'), (2, 'z'), (9, 'w'), (1, 'v');
CREATE TABLE mixed (k TEXT, note TEXT);
INSERT INTO mixed VALUES ('2', 'two'), ('true', 'yes'), ('5', 'five');
`
	if err := db.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	return db
}

// The TestHashJoin tests run on every leg (runLegs): Run's vectorized hash
// join, where the statement qualifies, is held to the nested loop of the
// columnar-off and Select legs.

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	db := joinDB(t)
	res, err := runLegs(t, db, "SELECT l.tag, r.val FROM l JOIN r ON l.id = r.id")
	if err != nil {
		t.Fatal(err)
	}
	// l NULL row and r NULL row must both be absent: 1-v, plus 2-{x,z} for
	// each of the two left id=2 rows.
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 rows (NULL keys dropped), got %d:\n%s", len(res.Rows), res.Format())
	}
	for _, row := range res.Rows {
		if row[0].String() == "c" || row[1].String() == "y" {
			t.Fatalf("NULL-keyed row matched: %s", res.Format())
		}
	}
}

func TestHashJoinLeftJoinNullExtension(t *testing.T) {
	db := joinDB(t)
	res, err := runLegs(t, db, "SELECT l.tag, r.val FROM l LEFT JOIN r ON l.id = r.id")
	if err != nil {
		t.Fatal(err)
	}
	// Unmatched left rows (id NULL and id 5) null-extend, in left order.
	if len(res.Rows) != 7 {
		t.Fatalf("expected 7 rows, got %d:\n%s", len(res.Rows), res.Format())
	}
	nulls := 0
	for _, row := range res.Rows {
		if row[1].IsNull() {
			nulls++
		}
	}
	if nulls != 2 {
		t.Fatalf("expected 2 null-extended rows, got %d:\n%s", nulls, res.Format())
	}
}

func TestHashJoinDuplicateKeys(t *testing.T) {
	db := joinDB(t)
	// Two left id=2 rows each match two right id=2 rows.
	res, err := runLegs(t, db, "SELECT l.tag, r.val FROM l JOIN r ON l.id = r.id WHERE l.id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows from the 2x2 duplicate keys, got %d", len(res.Rows))
	}
}

// TestHashJoinMixedTypeDomainFallsBack: Compare treats Text("5") equal to
// Int(5), which a string-keyed hash table cannot reproduce. The vectorized
// join must detect the mixed domain and rerun on the row executor's nested
// loop, keeping results identical.
func TestHashJoinMixedTypeDomainFallsBack(t *testing.T) {
	db := joinDB(t)
	res, err := runLegs(t, db, "SELECT l.tag, mixed.note FROM l JOIN mixed ON l.id = mixed.k")
	if err != nil {
		t.Fatal(err)
	}
	// Int 2 (twice), 2 and 5 compare equal to Text '2' and '5'.
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 cross-type matches, got %d:\n%s", len(res.Rows), res.Format())
	}
}

// TestHashJoinAliasShadowing: the inner query joins under an alias that also
// exists in the outer scope; the join key must resolve to the inner binding.
func TestHashJoinAliasShadowing(t *testing.T) {
	db := testDB(t)
	queries := []string{
		// Inner s shadows outer s inside the EXISTS join.
		"SELECT s.name FROM singer AS s WHERE EXISTS (SELECT 1 FROM concert AS s JOIN singer_in_concert AS sc ON s.concert_id = sc.concert_id WHERE sc.singer_id = 3)",
		// The ON clause references the outer row.
		"SELECT s.name FROM singer AS s WHERE EXISTS (SELECT 1 FROM singer_in_concert AS sc JOIN concert AS c ON c.concert_id = sc.concert_id AND sc.singer_id = s.id)",
	}
	for _, q := range queries {
		if _, err := runLegs(t, db, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

func TestHashJoinPreservesRowOrderUnderLimit(t *testing.T) {
	db := testDB(t)
	// No ORDER BY: LIMIT keeps the first rows in join emission order, which
	// must be identical on every leg.
	sql := "SELECT s.name, sc.concert_id FROM singer AS s JOIN singer_in_concert AS sc ON s.id = sc.singer_id LIMIT 4"
	if _, err := runLegs(t, db, sql); err != nil {
		t.Fatal(err)
	}
}

// TestHashJoinThreeWay: a multi-join does not qualify for the vectorized
// path, so every leg runs it as nested loops.
func TestHashJoinThreeWay(t *testing.T) {
	db := testDB(t)
	sql := "SELECT s.name, c.concert_name FROM singer AS s JOIN singer_in_concert AS sc ON s.id = sc.singer_id JOIN concert AS c ON sc.concert_id = c.concert_id"
	if _, err := runLegs(t, db, sql); err != nil {
		t.Fatal(err)
	}
}

// TestHashJoinResidualConjuncts: an ON clause with more than one conjunct
// does not qualify for the vectorized path, so every leg runs it as a
// nested loop.
func TestHashJoinResidualConjuncts(t *testing.T) {
	db := testDB(t)
	sql := "SELECT s.name, sc.concert_id FROM singer AS s JOIN singer_in_concert AS sc ON s.id = sc.singer_id AND sc.concert_id > 2 AND s.age < 50"
	res, err := runLegs(t, db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d:\n%s", len(res.Rows), res.Format())
	}
}

// TestScanRowCap: maxRows applies to base-table scans and subquery
// materialization, not only join outputs.
func TestScanRowCap(t *testing.T) {
	db := NewDatabase("big")
	var sb strings.Builder
	sb.WriteString("CREATE TABLE big (x INT);\nINSERT INTO big VALUES (0)")
	for i := 1; i < 300; i++ {
		fmt.Fprintf(&sb, ", (%d)", i)
	}
	sb.WriteString(";")
	if err := db.LoadScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(db)
	ex.maxRows = 100
	if _, err := ex.Query("SELECT COUNT(*) FROM big"); err == nil {
		t.Error("scan past maxRows did not error")
	}
	// Subquery cap: each base scan (300 rows) stays under the 350 cap, but
	// the materialized UNION ALL (600 rows) exceeds it.
	ex2 := NewExecutor(db)
	ex2.maxRows = 350
	if _, err := ex2.Query("SELECT COUNT(*) FROM (SELECT x FROM big WHERE x < 50) AS s"); err != nil {
		t.Errorf("small subquery should pass: %v", err)
	}
	if _, err := ex2.Query("SELECT COUNT(*) FROM (SELECT x FROM big UNION ALL SELECT x FROM big) AS s"); err == nil {
		t.Error("subquery materialization past maxRows did not error")
	}
}

// TestLikePathological pins the iterative matcher: the old recursive
// implementation is exponential on stacked %a% groups and would hang here.
func TestLikePathological(t *testing.T) {
	s := strings.Repeat("a", 60) + "b"
	pattern := strings.Repeat("%a", 18) + "%c"
	start := time.Now()
	ex := &Executor{}
	if ex.like(s, pattern) {
		t.Error("pattern should not match")
	}
	if ex.like(strings.Repeat("a", 200)+"c", pattern) != true {
		t.Error("pattern should match")
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("pathological LIKE took %v; matcher is not linear in backtracking", d)
	}

	db := testDB(t)
	res, err := NewExecutor(db).Query("SELECT name FROM singer WHERE name LIKE '%o%e%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // Joe Sharp, Rose White
		t.Fatalf("LIKE '%%o%%e%%' matched %d rows, want 2:\n%s", len(res.Rows), res.Format())
	}
}

// firstColumnInts returns column 0 of res as integers.
func firstColumnInts(res *Result) []int64 {
	ids := []int64{}
	for _, row := range res.Rows {
		ids = append(ids, row[0].I)
	}
	return ids
}

// leftBuildDB holds a five-row l and a twelve-row r in which seven rows
// share the key 1.
func leftBuildDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("left_build")
	script := `
CREATE TABLE l (id INT, k INT);
INSERT INTO l VALUES (1, 1), (2, NULL), (3, 2), (4, 1), (5, 7);
CREATE TABLE r (k INT, v TEXT);
INSERT INTO r VALUES (1, 'r0'), (3, 'r1'), (1, 'r2'), (NULL, 'r3'), (1, 'r4'), (2, 'r5'),
 (1, 'r6'), (3, 'r7'), (1, 'r8'), (2, 'r9'), (1, 'r10'), (1, 'r11');
`
	if err := db.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestHashJoinLeftBuildOrder joins a left side smaller than the right one,
// where many right rows share a key. Every leg must emit the nested loop's
// rows in its order: left-major, right rows in source order, a matchless
// left row null-extended in place.
func TestHashJoinLeftBuildOrder(t *testing.T) {
	db := leftBuildDB(t)
	for _, sql := range []string{
		"SELECT l.id, r.v FROM l LEFT JOIN r ON l.k = r.k",
		"SELECT l.id, r.v FROM l LEFT JOIN r ON r.k = l.k AND r.v <> 'r4'",
		"SELECT l.id, r.v FROM l JOIN r ON l.k = r.k",
	} {
		if _, err := runLegs(t, db, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Past maxRows the vectorized pairs bail to the nested loop, which
	// reports the error; under the cap the vectorized join answers itself.
	// The cap stays above r's twelve rows, which the scan checks first.
	sql := "SELECT l.id, r.v FROM l LEFT JOIN r ON l.k = r.k"
	p, err := Prepare(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxRows := range []int{14, 20} {
		var got [2]string
		for i, run := range []func(*Executor) (*Result, error){
			func(ex *Executor) (*Result, error) { return ex.Run(p) },
			func(ex *Executor) (*Result, error) { return ex.Select(p.Stmt) },
		} {
			ex := NewExecutor(db)
			ex.maxRows = maxRows
			res, err := run(ex)
			if got[i] = fmt.Sprint(err); err == nil {
				got[i] = res.Format()
			}
		}
		if got[0] != got[1] {
			t.Errorf("maxRows %d: run gave %s, select %s", maxRows, got[0], got[1])
		}
		if want := "join result exceeds 14 rows"; maxRows == 14 && got[0] != want {
			t.Errorf("maxRows 14: %s, want %q", got[0], want)
		}
	}
}

// TestInSubqueryEdges probes IN over a closed subquery with a NULL
// candidate, duplicate candidates, -0 against 0 and integers against
// floats, on every leg.
func TestInSubqueryEdges(t *testing.T) {
	db := NewDatabase("in_edges")
	if err := db.LoadScript("CREATE TABLE p (id INT, x REAL); CREATE TABLE c (k REAL); CREATE TABLE d (k REAL);"); err != nil {
		t.Fatal(err)
	}
	// DDL coerces by column type: set the rows directly to mix ints in.
	p, _ := db.Table("p")
	p.Rows = [][]Value{
		{Int(1), Float(0)}, {Int(2), Float(math.Copysign(0, -1))}, {Int(3), Int(1)},
		{Int(4), Float(1.5)}, {Int(5), Null()}, {Int(6), Int(2)},
	}
	c, _ := db.Table("c")
	c.Rows = [][]Value{{Float(math.Copysign(0, -1))}, {Int(1)}, {Int(1)}, {Null()}, {Float(2)}}
	d, _ := db.Table("d")
	d.Rows = [][]Value{{Int(0)}, {Float(1)}, {Int(1)}}
	for sql, want := range map[string][]int64{
		"SELECT id FROM p WHERE x IN (SELECT k FROM c)": {1, 2, 3, 6},
		// 1.5 is NULL against a set holding NULL, never true.
		"SELECT id FROM p WHERE x NOT IN (SELECT k FROM c)": {},
		"SELECT id FROM p WHERE x IN (SELECT k FROM d)":     {1, 2, 3},
		"SELECT id FROM p WHERE x NOT IN (SELECT k FROM d)": {4, 6},
	} {
		if res, err := runLegs(t, db, sql); err != nil || !reflect.DeepEqual(firstColumnInts(res), want) {
			t.Errorf("%s: %+v (err %v), want %v", sql, res, err, want)
		}
	}
	sql := "SELECT id, x IN (SELECT k FROM c), x NOT IN (SELECT k FROM d) FROM p"
	want := [][]Value{
		{Int(1), Bool(true), Bool(false)}, {Int(2), Bool(true), Bool(false)}, {Int(3), Bool(true), Bool(false)},
		{Int(4), Null(), Bool(true)}, {Int(5), Null(), Null()}, {Int(6), Bool(true), Bool(true)},
	}
	if res, err := runLegs(t, db, sql); err != nil || !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("%s: %+v (err %v), want %v", sql, res, err, want)
	}
}

// ----------------------------------------------------------------------------
// Benchmark: a 10 000 × 2 000 key join on the vectorized path, against the
// plan-less Select oracle's nested loop.

func benchJoinDB(b *testing.B) *Database {
	b.Helper()
	db := NewDatabase("bench_join")
	if err := db.LoadScript("CREATE TABLE f (id INT, k INT); CREATE TABLE dim (k INT, name TEXT);"); err != nil {
		b.Fatal(err)
	}
	f, _ := db.Table("f")
	for i := 0; i < 10000; i++ {
		f.Rows = append(f.Rows, []Value{Int(int64(i)), Int(int64(i * 7919 % 10007 % 2000))})
	}
	dim, _ := db.Table("dim")
	for i := 0; i < 2000; i++ {
		dim.Rows = append(dim.Rows, []Value{Int(int64(i)), Text(fmt.Sprintf("d%04d", i))})
	}
	return db
}

func BenchmarkHashJoinVec(b *testing.B) {
	benchRunVsSelect(b, benchJoinDB(b), "SELECT f.id, dim.name FROM f JOIN dim ON f.k = dim.k")
}
