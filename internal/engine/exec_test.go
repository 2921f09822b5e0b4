package engine

import (
	"testing"
)

// testDB builds the small concert/singer database used across engine tests.
func testDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("concert_singer")
	script := `
CREATE TABLE singer (id INT, name TEXT, age INT, country TEXT, song_name TEXT, song_release_year TEXT);
INSERT INTO singer VALUES
 (1, 'Joe Sharp', 52, 'Netherlands', 'You', '1992'),
 (2, 'Timbaland', 32, 'United States', 'Dangerous', '2008'),
 (3, 'Justin Brown', 29, 'France', 'Hey Oh', '2013'),
 (4, 'Rose White', 41, 'France', 'Sun', '2003'),
 (5, 'John Nizinik', 43, 'France', 'Gentleman', '2014'),
 (6, 'Tribal King', 25, 'France', 'Love', '2016');
CREATE TABLE concert (concert_id INT, concert_name TEXT, theme TEXT, stadium_id INT, year INT);
INSERT INTO concert VALUES
 (1, 'Auditions', 'Free choice', 1, 2014),
 (2, 'Super bootcamp', 'Free choice 2', 2, 2014),
 (3, 'Home Visits', 'Bleeding Love', 2, 2015),
 (4, 'Week 1', 'Wide Awake', 10, 2014),
 (5, 'Week 1', 'Happy Tonight', 9, 2015),
 (6, 'Week 2', 'Party All Night', 7, 2015);
CREATE TABLE singer_in_concert (concert_id INT, singer_id INT);
INSERT INTO singer_in_concert VALUES
 (1, 2), (1, 3), (1, 5), (2, 3), (2, 6), (3, 5), (4, 4), (5, 6), (6, 3);
CREATE TABLE stadium (stadium_id INT, location TEXT, name TEXT, capacity INT, average INT);
INSERT INTO stadium VALUES
 (1, 'Raith Rovers', 'Stark''s Park', 10104, 822),
 (2, 'Ayr United', 'Somerset Park', 11998, 1294),
 (7, 'Dumbarton', 'Strathclyde Homes Stadium', 2000, 837),
 (9, 'East Fife', 'Bayview Stadium', 2000, 1980),
 (10, 'Queen''s Park', 'Hampden Park', 52500, 1763);
`
	if err := db.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustQuery(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := NewExecutor(db).Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT * FROM singer")
	if len(res.Rows) != 6 || len(res.Columns) != 6 {
		t.Fatalf("got %dx%d", len(res.Rows), len(res.Columns))
	}
	if res.Columns[1] != "name" {
		t.Errorf("columns: %v", res.Columns)
	}
}

func TestWhereFilter(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT name FROM singer WHERE country = 'France'")
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
}

func TestCountStar(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT COUNT(*) FROM singer")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 6 {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT COUNT(DISTINCT country) FROM singer")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("got %v", res.Rows[0][0])
	}
}

func TestAggregates(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT MIN(age), MAX(age), AVG(age), SUM(age) FROM singer")
	row := res.Rows[0]
	if row[0].I != 25 || row[1].I != 52 {
		t.Errorf("min/max: %v", row)
	}
	if row[2].Real() != 37 {
		t.Errorf("avg: %v", row[2])
	}
	if row[3].I != 222 {
		t.Errorf("sum: %v", row[3])
	}
}

func TestGroupByHaving(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT country, COUNT(*) FROM singer GROUP BY country HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].S != "France" || res.Rows[0][1].I != 4 {
		t.Errorf("got %v", res.Rows[0])
	}
}

func TestOrderByDescLimit(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT name FROM singer ORDER BY age DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].S != "Joe Sharp" || res.Rows[1][0].S != "John Nizinik" {
		t.Errorf("got %v", res.Rows)
	}
	if !res.Ordered {
		t.Error("result should be marked ordered")
	}
}

func TestOrderByAggregate(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT country FROM singer GROUP BY country ORDER BY COUNT(*) DESC LIMIT 1")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "France" {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestOrderByOrdinal(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT name, age FROM singer ORDER BY 2 ASC LIMIT 1")
	if res.Rows[0][0].S != "Tribal King" {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestJoin(t *testing.T) {
	res := mustQuery(t, testDB(t), `
SELECT singer.name FROM singer
JOIN singer_in_concert ON singer.id = singer_in_concert.singer_id
JOIN concert ON concert.concert_id = singer_in_concert.concert_id
WHERE concert.year = 2014`)
	// Concerts 1, 2 and 4 are in 2014; their singer lists total 6 entries
	// (Justin Brown appears twice).
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows: %v", len(res.Rows), res.Rows)
	}
}

func TestJoinWithAliases(t *testing.T) {
	res := mustQuery(t, testDB(t), `
SELECT s.name FROM singer AS s JOIN singer_in_concert AS sc ON s.id = sc.singer_id
WHERE sc.concert_id = 1 ORDER BY s.name ASC`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %v", res.Rows)
	}
	if res.Rows[0][0].S != "John Nizinik" {
		t.Errorf("got %v", res.Rows)
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	res := mustQuery(t, testDB(t), `
SELECT c.concert_name, st.name FROM concert AS c
LEFT JOIN stadium AS st ON c.stadium_id = st.stadium_id
WHERE c.concert_id = 4`)
	// Concert 4 is at stadium 10 which exists; use a missing stadium to
	// check padding: concert at stadium 10 exists, so craft differently.
	if len(res.Rows) != 1 {
		t.Fatalf("got %v", res.Rows)
	}
	res2 := mustQuery(t, testDB(t), `
SELECT sc.singer_id, st.name FROM singer_in_concert AS sc
LEFT JOIN stadium AS st ON sc.concert_id = st.stadium_id AND st.stadium_id = 999`)
	for _, row := range res2.Rows {
		if !row[1].IsNull() {
			t.Errorf("expected NULL pad, got %v", row[1])
		}
	}
}

func TestScalarSubquery(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT name, song_release_year FROM singer WHERE age = (SELECT MIN(age) FROM singer)")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Tribal King" || res.Rows[0][1].S != "2016" {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestInSubquery(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert WHERE concert_id = 1)")
	if len(res.Rows) != 3 {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestNotInSubquery(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT name FROM singer WHERE id NOT IN (SELECT singer_id FROM singer_in_concert)")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Joe Sharp" {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestCorrelatedExists(t *testing.T) {
	res := mustQuery(t, testDB(t), `
SELECT name FROM singer WHERE EXISTS (
  SELECT 1 FROM singer_in_concert WHERE singer_in_concert.singer_id = singer.id)`)
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
}

func TestUnionIntersectExcept(t *testing.T) {
	db := testDB(t)
	union := mustQuery(t, db,
		"SELECT country FROM singer WHERE age > 40 UNION SELECT country FROM singer WHERE age < 30")
	if len(union.Rows) != 2 { // Netherlands+France vs France → {Netherlands, France}
		t.Errorf("union: %v", union.Rows)
	}
	inter := mustQuery(t, db,
		"SELECT country FROM singer WHERE age > 40 INTERSECT SELECT country FROM singer WHERE age < 30")
	if len(inter.Rows) != 1 || inter.Rows[0][0].S != "France" {
		t.Errorf("intersect: %v", inter.Rows)
	}
	except := mustQuery(t, db,
		"SELECT country FROM singer EXCEPT SELECT country FROM singer WHERE age < 35")
	if len(except.Rows) != 1 || except.Rows[0][0].S != "Netherlands" {
		t.Errorf("except: %v", except.Rows)
	}
}

func TestDistinct(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT DISTINCT country FROM singer")
	if len(res.Rows) != 3 {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestLike(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT name FROM singer WHERE name LIKE 'J%'")
	if len(res.Rows) != 3 {
		t.Fatalf("got %v", res.Rows)
	}
	res = mustQuery(t, testDB(t), "SELECT name FROM singer WHERE name LIKE '%king'")
	if len(res.Rows) != 1 {
		t.Fatalf("case-insensitive LIKE: got %v", res.Rows)
	}
}

func TestBetween(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT name FROM singer WHERE age BETWEEN 29 AND 41")
	if len(res.Rows) != 3 {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestDateStringComparison(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT COUNT(*) FROM singer WHERE song_release_year >= '2008' AND song_release_year < '2015'")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("got %v", res.Rows[0][0])
	}
}

func TestArithmetic(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT age + 10, age * 2, age - 5, age / 2 FROM singer WHERE id = 1")
	row := res.Rows[0]
	if row[0].I != 62 || row[1].I != 104 || row[2].I != 47 {
		t.Errorf("got %v", row)
	}
	if row[3].Real() != 26 {
		t.Errorf("division: %v", row[3])
	}
}

func TestCaseExpr(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT CASE WHEN age >= 40 THEN 'senior' ELSE 'junior' END FROM singer WHERE id = 1")
	if res.Rows[0][0].S != "senior" {
		t.Fatalf("got %v", res.Rows[0][0])
	}
}

func TestDerivedTable(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT COUNT(*) FROM (SELECT country FROM singer WHERE age > 30) AS older")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("got %v", res.Rows[0][0])
	}
}

func TestEmptyResultHeaders(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT * FROM singer WHERE age > 200")
	if len(res.Rows) != 0 {
		t.Fatalf("got rows: %v", res.Rows)
	}
	if len(res.Columns) != 6 {
		t.Errorf("header lost on empty result: %v", res.Columns)
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	ex := NewExecutor(db)
	for _, sql := range []string{
		"SELECT * FROM nope",
		"SELECT nope FROM singer",
		"SELECT singer.nope FROM singer",
		"SELECT nope.name FROM singer",
		"SELECT SUM(name) FROM singer",
		"SELECT MAX(*) FROM singer",
		"SELECT name FROM singer WHERE id = (SELECT id FROM singer)", // >1 row
	} {
		if _, err := ex.Query(sql); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	_, err := NewExecutor(testDB(t)).Query(
		"SELECT concert_id FROM concert JOIN singer_in_concert ON concert.concert_id = singer_in_concert.concert_id")
	if err == nil {
		t.Fatal("expected ambiguity error")
	}
}

func TestNullSemantics(t *testing.T) {
	db := NewDatabase("nulls")
	if err := db.LoadScript(`
CREATE TABLE t (id INT, v INT);
INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30);`); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(db)
	res, err := ex.Query("SELECT id FROM t WHERE v > 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // NULL comparison is not true
		t.Errorf("NULL filtered rows: %v", res.Rows)
	}
	res, _ = ex.Query("SELECT id FROM t WHERE v IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Errorf("IS NULL: %v", res.Rows)
	}
	res, _ = ex.Query("SELECT COUNT(v), COUNT(*) FROM t")
	if res.Rows[0][0].I != 2 || res.Rows[0][1].I != 3 {
		t.Errorf("COUNT skips NULL: %v", res.Rows[0])
	}
	res, _ = ex.Query("SELECT AVG(v) FROM t")
	if res.Rows[0][0].Real() != 20 {
		t.Errorf("AVG skips NULL: %v", res.Rows[0][0])
	}
	// NOT IN with NULL in the list yields no rows (three-valued logic).
	res, _ = ex.Query("SELECT id FROM t WHERE 99 NOT IN (SELECT v FROM t)")
	if len(res.Rows) != 0 {
		t.Errorf("NOT IN with NULL should be empty: %v", res.Rows)
	}
}

func TestGroupByEmptyInput(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT COUNT(*) FROM singer WHERE age > 100")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("global aggregate over empty input: %v", res.Rows)
	}
	res = mustQuery(t, testDB(t),
		"SELECT country, COUNT(*) FROM singer WHERE age > 100 GROUP BY country")
	if len(res.Rows) != 0 {
		t.Fatalf("grouped aggregate over empty input: %v", res.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	res := mustQuery(t, testDB(t),
		"SELECT LENGTH(name), LOWER(name), UPPER(country), ABS(0 - age) FROM singer WHERE id = 6")
	row := res.Rows[0]
	if row[0].I != 11 || row[1].S != "tribal king" || row[2].S != "FRANCE" || row[3].I != 25 {
		t.Errorf("got %v", row)
	}
}

func TestLimitOffset(t *testing.T) {
	res := mustQuery(t, testDB(t), "SELECT id FROM singer ORDER BY id ASC LIMIT 2 OFFSET 3")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 4 || res.Rows[1][0].I != 5 {
		t.Fatalf("got %v", res.Rows)
	}
}
