package dataset_test

import (
	"reflect"
	"testing"

	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
	"fisql/internal/engine"
)

// TestScaleRowsDeterministic pins the -rows contract: scaling is a pure
// function of (seed, multiplier), only ever appends rows, and leaves the 1x
// corpus byte-for-byte identical to the unscaled build.
func TestScaleRowsDeterministic(t *testing.T) {
	const mult = 3

	base, err := aep.Build()
	if err != nil {
		t.Fatal(err)
	}
	one, err := aep.BuildRows(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := aep.BuildRows(mult)
	if err != nil {
		t.Fatal(err)
	}
	b, err := aep.BuildRows(mult)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(one.Examples, base.Examples) {
		t.Fatal("BuildRows(1) examples differ from Build")
	}
	if !reflect.DeepEqual(a.Examples, base.Examples) {
		t.Fatal("scaling changed the examples")
	}
	for name, db := range base.DBs {
		baseTables := db.Tables()
		oneTables := one.DBs[name].Tables()
		aTables := a.DBs[name].Tables()
		bTables := b.DBs[name].Tables()
		for i, bt := range baseTables {
			if !reflect.DeepEqual(oneTables[i].Rows, bt.Rows) {
				t.Fatalf("%s.%s: BuildRows(1) rows differ from Build", name, bt.Name)
			}
			at, rt := aTables[i], bTables[i]
			if len(at.Rows) != len(bt.Rows)*mult {
				t.Fatalf("%s.%s: scaled to %d rows, want %d*%d", name, bt.Name, len(at.Rows), len(bt.Rows), mult)
			}
			if !reflect.DeepEqual(at.Rows[:len(bt.Rows)], bt.Rows) {
				t.Fatalf("%s.%s: scaling rewrote base rows", name, bt.Name)
			}
			if !reflect.DeepEqual(at.Rows, rt.Rows) {
				t.Fatalf("%s.%s: two identical BuildRows(%d) runs diverged", name, bt.Name, mult)
			}
		}
	}
}

// TestScaleRowsSpiderSpot spot-checks spider's row counts and that gold
// queries still run — and agree across executors — at scale. Only the first
// 50 golds run: at 4x rows each costs a scan, and the aep test above covers
// the exhaustive contract.
func TestScaleRowsSpiderSpot(t *testing.T) {
	const mult = 4
	base, err := spider.Build()
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := spider.BuildRows(mult)
	if err != nil {
		t.Fatal(err)
	}
	if len(scaled.Examples) != len(base.Examples) {
		t.Fatalf("example count changed: %d vs %d", len(scaled.Examples), len(base.Examples))
	}
	for name, db := range base.DBs {
		sdb := scaled.DBs[name]
		bt, st := db.Tables(), sdb.Tables()
		for i := range bt {
			if len(st[i].Rows) != len(bt[i].Rows)*mult {
				t.Fatalf("%s.%s: %d rows, want %d", name, bt[i].Name, len(st[i].Rows), len(bt[i].Rows)*mult)
			}
		}
	}
	checked := 0
	for _, e := range scaled.Examples {
		db := scaled.DBs[e.DB]
		on, err := engine.NewExecutor(db).Query(e.Gold)
		if err != nil {
			t.Fatalf("%s at %dx: %v", e.Gold, mult, err)
		}
		exOff := engine.NewExecutor(db)
		exOff.SetColumnar(false)
		off, err := exOff.Query(e.Gold)
		if err != nil || !reflect.DeepEqual(on, off) {
			t.Fatalf("%s at %dx: columnar/row divergence (err=%v)", e.Gold, mult, err)
		}
		checked++
		if checked >= 50 {
			break
		}
	}
}
