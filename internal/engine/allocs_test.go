//go:build !race

package engine

import (
	"fmt"
	"testing"
)

// This file holds allocation-count guards. The race detector changes what
// allocates, so they build only without it.

// allocsDB holds 8 192 rows of t (id, v, g16, g1024): g16 takes 16 values
// and g1024 takes 1 024.
func allocsDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("allocs")
	if err := db.LoadScript("CREATE TABLE t (id INT, v INT, g16 INT, g1024 INT);"); err != nil {
		t.Fatal(err)
	}
	tb, _ := db.Table("t")
	for i := 0; i < 8192; i++ {
		tb.Rows = append(tb.Rows, []Value{Int(int64(i)), Int(int64(i * 7919 % 10007)), Int(int64(i % 16)), Int(int64(i % 1024))})
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
