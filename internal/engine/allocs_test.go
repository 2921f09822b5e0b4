//go:build !race

package engine

import (
	"fmt"
	"runtime"
	"testing"
)

// This file holds allocation-count guards. The race detector changes what
// allocates, so they build only without it.

// allocsDB holds 8 192 rows of t (id, v, g16, g1024): g16 takes 16 values
// and g1024 takes 1 024. k16, k1024 and k8192 (id, k, s) hold that many
// rows, each with a distinct key k in [0, n) and mixed-case text s, half of
// it holding an X.
func allocsDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("allocs")
	if err := db.LoadScript(`CREATE TABLE t (id INT, v INT, g16 INT, g1024 INT);
CREATE TABLE k16 (id INT, k INT, s TEXT); CREATE TABLE k1024 (id INT, k INT, s TEXT);
CREATE TABLE k8192 (id INT, k INT, s TEXT);`); err != nil {
		t.Fatal(err)
	}
	tb, _ := db.Table("t")
	for i := 0; i < 8192; i++ {
		tb.Rows = append(tb.Rows, []Value{Int(int64(i)), Int(int64(i * 7919 % 10007)), Int(int64(i % 16)), Int(int64(i % 1024))})
	}
	for _, n := range []int{16, 1024, 8192} {
		kt, _ := db.Table(fmt.Sprintf("k%d", n))
		for i := 0; i < n; i++ {
			s := fmt.Sprintf("Item %d Ab", i)
			if i%2 == 0 {
				s = fmt.Sprintf("Item %d X", i)
			}
			kt.Rows = append(kt.Rows, []Value{Int(int64(i)), Int(int64(i * 7 % n)), Text(s)})
		}
	}
	return db
}

// runAllocs returns the allocations of one Run of sql, on the vectorized
// path or with it off, after checking the result has want rows.
func runAllocs(t *testing.T, db *Database, sql string, columnar bool, want int) float64 {
	t.Helper()
	p, err := Prepare(db, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	ex := NewExecutor(db)
	ex.SetColumnar(columnar)
	hits, _ := db.ColumnarStats()
	res, err := ex.Run(p)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if after, _ := db.ColumnarStats(); (after > hits) != columnar {
		t.Fatalf("%s: columnar %v, but hits went %d → %d", sql, columnar, hits, after)
	}
	if len(res.Rows) != want {
		t.Fatalf("%s: %d rows, want %d", sql, len(res.Rows), want)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocsFlatInRows checks that projecting and folding allocate per
// statement, not per output row or per group: a scan of 8 000 rows and one
// of 1 000, and a GROUP BY of 1 024 groups and one of 16, differ by at most
// a few allocations. The one cost allowed to grow with the groups is the
// key index's own maps, which double as they fill; it is measured on the
// same keys and added to the allowance.
func TestRunAllocsFlatInRows(t *testing.T) {
	const slack = 8
	db := allocsDB(t)
	keyIndexAllocs := func(groups int) float64 {
		return testing.AllocsPerRun(20, func() {
			var idx keyIndex
			for i := 0; i < 8192; i++ {
				idx.id1(Int(int64(i % groups)))
			}
		})
	}
	growth := keyIndexAllocs(1024) - keyIndexAllocs(16)
	for _, columnar := range []bool{true, false} {
		scan := func(rows int) float64 {
			return runAllocs(t, db, fmt.Sprintf("SELECT id, v FROM t WHERE id < %d", rows), columnar, rows)
		}
		if small, large := scan(1000), scan(8000); large-small > slack {
			t.Errorf("columnar %v: scan allocates %.0f at 1 000 rows, %.0f at 8 000", columnar, small, large)
		}
		grouped := func(col string, groups int) float64 {
			return runAllocs(t, db, fmt.Sprintf("SELECT %s, COUNT(*), SUM(v) FROM t GROUP BY %s", col, col), columnar, groups)
		}
		if small, large := grouped("g16", 16), grouped("g1024", 1024); large-small > slack+growth {
			t.Errorf("columnar %v: GROUP BY allocates %.0f at 16 groups, %.0f at 1 024 (key index growth %.0f)", columnar, small, large, growth)
		}
	}
}

// TestRunAllocsFlatInKeys checks that LIKE, equi-joins and IN over a closed
// subquery allocate per statement, not per row or per distinct key: each
// shape over a small and a large table differs by at most a few
// allocations. The equality table's key map is allowed its own growth,
// measured on maps of the same sizes. The equi-joins run on the vectorized
// path only: with the columnar path off they are nested loops over up to
// 8 192 × 8 192 pairs, too slow for an allocation guard.
func TestRunAllocsFlatInKeys(t *testing.T) {
	const slack = 8
	db := allocsDB(t)
	mapAllocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			m := make(map[uint64]int32, n)
			for i := 0; i < n; i++ {
				m[uint64(i)] = int32(i)
			}
		})
	}
	shapes := []struct {
		name, sql      string
		small, large   int
		rows           func(n int) int
		keyed, vecOnly bool
	}{
		{"LIKE scan", "SELECT id FROM k%d WHERE s LIKE '%%x%%'", 1024, 8192, func(n int) int { return n / 2 }, false, false},
		// The join builds its table on b, and every row of t matches one
		// key of b: the join emits 8 192 rows at either size.
		{"equi-join", "SELECT t.id, b.s FROM t JOIN k%d AS b ON t.g16 = b.k", 1024, 8192, func(int) int { return 8192 }, true, true},
		// a is smaller than t, and the join builds its table on t, whose
		// distinct keys go from 16 to 1 024 with a's rows; every key of a
		// matches 8 192 / n rows of t, so the join again emits 8 192 rows.
		{"small-left equi-join", "SELECT a.id, t.id FROM k%[1]d AS a JOIN t ON a.k = t.g%[1]d", 16, 1024, func(int) int { return 8192 }, true, true},
		{"IN (SELECT …)", "SELECT id FROM k8192 WHERE id IN (SELECT id FROM k%d)", 1024, 8192, func(n int) int { return n }, true, false},
	}
	for _, columnar := range []bool{true, false} {
		for _, sh := range shapes {
			if sh.vecOnly && !columnar {
				continue
			}
			run := func(n int) float64 {
				return runAllocs(t, db, fmt.Sprintf(sh.sql, n), columnar, sh.rows(n))
			}
			var growth float64
			if sh.keyed {
				growth = mapAllocs(sh.large) - mapAllocs(sh.small)
			}
			if small, large := run(sh.small), run(sh.large); large-small > slack+growth {
				t.Errorf("columnar %v: %s allocates %.0f over %d rows, %.0f over %d (key map growth %.0f)",
					columnar, sh.name, small, sh.small, large, sh.large, growth)
			}
		}
	}
}

// TestWarmJoinAndGroupAllocsFlatInKeys checks that a warm equi-join and a
// warm GROUP BY on one bare column allocate the same count over 16 rows and
// over 8 192, on an int key and on a text key: the join table and the
// grouping codes are built once per loaded table, on the first Run, so a
// warm Run grows no key map.
func TestWarmJoinAndGroupAllocsFlatInKeys(t *testing.T) {
	db := allocsDB(t)
	for _, sql := range []string{
		"SELECT a.id, b.id FROM k%[1]d AS a JOIN k%[1]d AS b ON a.k = b.k",
		"SELECT a.id, b.id FROM k%[1]d AS a JOIN k%[1]d AS b ON a.s = b.s",
		"SELECT k, COUNT(*) FROM k%d GROUP BY k",
		"SELECT s, COUNT(*) FROM k%d GROUP BY s",
	} {
		run := func(n int) float64 { return runAllocs(t, db, fmt.Sprintf(sql, n), true, n) }
		if small, large := run(16), run(8192); small != large {
			t.Errorf("%s: %.0f allocations, %.0f over 8 192 rows", fmt.Sprintf(sql, 16), small, large)
		}
	}
}

// TestNarrowGroupAllocsFlatInColumnKeys checks that a GROUP BY whose WHERE
// keeps four rows allocates no more bytes for its grouping over a column of
// 8 192 distinct values than over one of 16: numbering the groups may cost
// in proportion to the selection, never to the column's distinct values.
// The grouping's bytes are the statement's less those of the same scan
// without GROUP BY, whose WHERE mask is one byte a table row.
func TestNarrowGroupAllocsFlatInColumnKeys(t *testing.T) {
	const slack = 64 // bytes per Run, for the runtime's own noise
	db := allocsDB(t)
	bytes := func(sql string) int64 {
		runAllocs(t, db, sql, true, 4)
		p, err := Prepare(db, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return bytesPerRun(t, NewExecutor(db), p)
	}
	for _, col := range []string{"k", "s"} {
		grouping := func(n int) int64 {
			scan := fmt.Sprintf("SELECT %s FROM k%d WHERE id < 4", col, n)
			return bytes(scan+" GROUP BY "+col) - bytes(scan)
		}
		if small, large := grouping(16), grouping(8192); large > small+slack {
			t.Errorf("GROUP BY %s under WHERE id < 4: grouping allocates %d bytes a Run over 16 keys, %d over 8 192", col, small, large)
		}
	}
}

// bytesPerRun returns the heap bytes one warm Run of p allocates, averaged
// over 50 Runs.
func bytesPerRun(t *testing.T, ex *Executor, p *Plan) int64 {
	t.Helper()
	const runs = 50
	if _, err := ex.Run(p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / runs
}
