package engine

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// resultLeg is one way of running a plan.
type resultLeg struct {
	name string
	run  func() (*Result, error)
}

// resultLegs runs p on Run, on a second Run of the same plan on the same
// database (warm: every cache the first one filled is in place), on Run
// with the columnar path off and on the plan-less Select.
func resultLegs(db *Database, p *Plan) []resultLeg {
	off := NewExecutor(db)
	off.SetColumnar(false)
	return []resultLeg{
		{"run", func() (*Result, error) { return NewExecutor(db).Run(p) }},
		{"warm run", func() (*Result, error) { return NewExecutor(db).Run(p) }},
		{"columnar off", func() (*Result, error) { return off.Run(p) }},
		{"select", func() (*Result, error) { return NewExecutor(db).Select(p.Stmt) }},
	}
}

func cloneRows(rows [][]Value) [][]Value {
	out := make([][]Value, len(rows))
	for i, r := range rows {
		out[i] = append([]Value(nil), r...)
	}
	return out
}

// TestResultRowsIndependent checks that every result row owns its values:
// its capacity ends at its length, and appending to or writing into one row
// changes no other row of the result and no stored table row.
func TestResultRowsIndependent(t *testing.T) {
	db := testDB(t)
	stored := map[string][][]Value{}
	for _, tb := range db.Tables() {
		stored[tb.Name] = cloneRows(tb.Rows)
	}
	mark := Text("\x00mutated")
	for _, sql := range []string{
		"SELECT name, age FROM singer WHERE age > 30",
		"SELECT * FROM singer",
		"SELECT s.*, age + 1 FROM singer AS s WHERE country = 'France'",
		"SELECT singer.name, c.* FROM singer JOIN singer_in_concert AS c ON singer.id = c.singer_id",
		"SELECT * FROM concert LEFT JOIN stadium ON concert.stadium_id = stadium.stadium_id",
		"SELECT country, COUNT(*), MAX(age) FROM singer GROUP BY country",
		"SELECT COUNT(*), SUM(age) FROM singer WHERE age > 100",
		"SELECT country, COUNT(*) FROM singer GROUP BY country HAVING COUNT(*) > 1",
		"SELECT DISTINCT country FROM singer",
		"SELECT country FROM singer UNION SELECT location FROM stadium",
		"SELECT year FROM concert EXCEPT SELECT age FROM singer",
		"SELECT name, age FROM singer ORDER BY age DESC LIMIT 3 OFFSET 1",
		// The derived table's first row is one value wide and the rest seven,
		// so the outer star projects rows of two widths.
		"SELECT * FROM (SELECT COUNT(*), * FROM singer WHERE age > 100 UNION ALL SELECT 1, * FROM singer) AS d",
	} {
		p, err := Prepare(db, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, leg := range resultLegs(db, p) {
			res, err := leg.run()
			if err != nil {
				t.Fatalf("%s (%s): %v", sql, leg.name, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s (%s): no rows", sql, leg.name)
			}
			want := cloneRows(res.Rows)
			for i, r := range res.Rows {
				if cap(r) != len(r) {
					t.Fatalf("%s (%s): row %d has len %d, cap %d", sql, leg.name, i, len(r), cap(r))
				}
				for j := range r {
					r[j] = mark
				}
				_ = append(r, mark)
				_ = append(r[:0], mark, mark)
				for k, other := range res.Rows {
					if k != i && !reflect.DeepEqual(other, want[k]) {
						t.Fatalf("%s (%s): writing row %d changed row %d: %v", sql, leg.name, i, k, other)
					}
				}
				copy(r, want[i])
			}
			for _, tb := range db.Tables() {
				if !reflect.DeepEqual(tb.Rows, stored[tb.Name]) {
					t.Fatalf("%s (%s): writing result rows changed table %s", sql, leg.name, tb.Name)
				}
			}
		}
	}
}

// retainedBytes runs fn once to warm the database's shared caches, then
// three more times, and returns a result with the heap it keeps alive: the
// least of the three readings, since anything else the process allocates
// between two readings counts too.
func retainedBytes(fn func() *Result) (res *Result, held int64) {
	fn()
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := fn()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if n := int64(after.HeapAlloc) - int64(before.HeapAlloc); res == nil || n < held {
			res, held = r, n
		}
		runtime.KeepAlive(r)
	}
	return res, held
}

// TestTrimmedResultDoesNotPinArena checks that a result LIMIT or DISTINCT
// cut to a few rows keeps about what it holds alive, not the arena its
// rows were projected into, and that trimming leaves Rows nil exactly when
// it always was: for an arm that kept nothing, not for a LIMIT past the end.
func TestTrimmedResultDoesNotPinArena(t *testing.T) {
	db := NewDatabase("pin")
	if err := db.LoadScript("CREATE TABLE t (x INT, g INT);"); err != nil {
		t.Fatal(err)
	}
	tb, _ := db.Table("t")
	for i := 0; i < 10000; i++ {
		tb.Rows = append(tb.Rows, []Value{Int(int64(i * 7919 % 10007)), Int(int64(i % 10))})
	}
	for _, sql := range []string{
		"SELECT x FROM t ORDER BY x LIMIT 1",
		"SELECT DISTINCT g FROM t",
	} {
		p, err := Prepare(db, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, leg := range resultLegs(db, p) {
			res, held := retainedBytes(func() *Result {
				res, err := leg.run()
				if err != nil {
					t.Fatalf("%s (%s): %v", sql, leg.name, err)
				}
				return res
			})
			kept := 0
			for _, r := range res.Rows {
				kept += len(r)
			}
			// Twice the kept values and row headers, plus the Result, its
			// header and some noise: a 10 000-row arena is ~320 KB.
			limit := 2*int64(kept)*int64(unsafe.Sizeof(Value{})) +
				2*int64(len(res.Rows))*int64(unsafe.Sizeof([]Value{})) + 16<<10
			if held > limit {
				t.Errorf("%s (%s): %d rows keep %d bytes alive, want at most %d", sql, leg.name, len(res.Rows), held, limit)
			}
			runtime.KeepAlive(res)
		}
	}

	sdb := testDB(t)
	nilness := map[string]bool{ // SQL → Rows == nil
		"SELECT id FROM singer WHERE id < 0":                                     true,
		"SELECT id FROM singer WHERE id < 0 ORDER BY id LIMIT 2":                 true,
		"SELECT DISTINCT country FROM singer WHERE id < 0":                       true,
		"SELECT country FROM singer WHERE id < 0 GROUP BY country":               true,
		"SELECT country FROM singer GROUP BY country HAVING COUNT(*) > 100":      true,
		"SELECT id FROM singer EXCEPT SELECT id FROM singer":                     true,
		"SELECT id FROM singer WHERE id < 0 UNION SELECT id FROM singer WHERE 0": true,
		"SELECT COUNT(*) FROM singer WHERE id < 0":                               false,
		"SELECT id FROM singer EXCEPT SELECT id FROM singer WHERE id > 1":        false,
	}
	for _, tc := range limitOffsetCases {
		for _, order := range []string{"", " ORDER BY id"} {
			nilness["SELECT id FROM singer"+order+" "+tc.clause] = false
		}
	}
	for sql, wantNil := range nilness {
		p, err := Prepare(sdb, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, leg := range resultLegs(sdb, p) {
			res, err := leg.run()
			if err != nil {
				t.Fatalf("%s (%s): %v", sql, leg.name, err)
			}
			if (res.Rows == nil) != wantNil {
				t.Errorf("%s (%s): Rows == nil is %v, want %v", sql, leg.name, res.Rows == nil, wantNil)
			}
		}
	}
}

// ----------------------------------------------------------------------------
// Benchmarks: projection of 10 000 rows, and of the groups of a 10 000-row
// GROUP BY, on the planned path and on the plan-less Select oracle.

func BenchmarkProjectScan(b *testing.B) {
	benchRunVsSelect(b, benchOrderDB(b), "SELECT id, n, s FROM t WHERE n >= 0")
}

func BenchmarkProjectStar(b *testing.B) {
	benchRunVsSelect(b, benchOrderDB(b), "SELECT * FROM t")
}

func BenchmarkProjectGrouped(b *testing.B) {
	benchRunVsSelect(b, benchOrderDB(b), "SELECT g, COUNT(*), SUM(n), MAX(s) FROM t GROUP BY g")
}
