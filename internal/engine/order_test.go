package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"fisql/internal/sqlast"
)

// referenceOrder is the ordering ORDER BY is defined by: a stable sort of
// the rows on Compare over their leading len(order) values, as orderRows
// did it before the permutation sort.
func referenceOrder(order []sqlast.OrderItem, rows [][]Value) [][]Value {
	out := slices.Clone(rows)
	sort.SliceStable(out, func(i, j int) bool {
		for k, ob := range order {
			c := Compare(out[i][k], out[j][k])
			if c != 0 {
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return out
}

// Key pools by domain. Numbers carry int/float ties, both zeros, bools, the
// infinities and two integers float64 cannot tell apart; text carries
// case-fold ties that fall through to strings.Compare.
var (
	orderNums = []Value{Int(0), Float(math.Copysign(0, -1)), Int(1), Float(1), Bool(true), Bool(false), Int(2), Float(2.5),
		Int(-3), Float(1 << 53), Int(1<<53 + 1), Float(math.Inf(1)), Float(math.Inf(-1))}
	orderTexts = []Value{Text("a"), Text("A"), Text("b"), Text("B"), Text(""), Text("ab"), Text("1"), Text("true"), Text("é"), Text("É")}
	orderPools = [][]Value{
		orderNums,
		orderTexts,
		append(slices.Clone(orderNums), Float(math.NaN())),
		append(append(slices.Clone(orderNums), Float(math.NaN())), orderTexts...),
	}
)

// orderCase decodes a fuzz input into an ORDER BY over ordinals and the
// rows to sort: byte 0 picks one to three keys; one byte per key picks its
// direction (bit 0) and its pool (bits 1-2); then one byte per key per row
// picks NULL (one in eight) or a value of the key's pool. Each row ends in
// its original index, which tells tied and duplicate rows apart.
func orderCase(data []byte) (order []sqlast.OrderItem, rows [][]Value) {
	if len(data) == 0 {
		return nil, nil
	}
	nk := 1 + int(data[0])%3
	if len(data) < 1+nk {
		return nil, nil
	}
	pools := make([][]Value, nk)
	for k := 0; k < nk; k++ {
		b := data[1+k]
		order = append(order, sqlast.OrderItem{Expr: sqlast.Num(strconv.Itoa(k + 1)), Desc: b&1 == 1})
		pools[k] = orderPools[b>>1&3]
	}
	data = data[1+nk:]
	for i := 0; (i+1)*nk <= len(data); i++ {
		row := make([]Value, 0, nk+1)
		for k := 0; k < nk; k++ {
			b := int(data[i*nk+k])
			if b%8 == 0 {
				row = append(row, Null())
			} else {
				row = append(row, pools[k][b/8%len(pools[k])])
			}
		}
		rows = append(rows, append(row, Int(int64(i))))
	}
	return order, rows
}

// homogeneous is the typed sort's gate, stated independently: each key
// column's non-NULL values are all text, or all numeric without a NaN.
func homogeneous(nk int, rows [][]Value) bool {
	for k := 0; k < nk; k++ {
		text, num := false, false
		for _, r := range rows {
			switch v := r[k]; {
			case v.IsNull():
			case v.T == TypeText:
				text = true
			case v.T == TypeFloat && math.IsNaN(v.Real()):
				return false
			default:
				num = true
			}
		}
		if text && num {
			return false
		}
	}
	return true
}

// checkOrderCase sorts one decoded case on a planned executor (typed where
// the gate allows) and on a plan-less one (always Compare) and requires the
// reference order from both, and the branch the gate prescribes. It reports
// which branch the planned executor took.
func checkOrderCase(t *testing.T, data []byte) (typed, sorted bool) {
	t.Helper()
	order, rows := orderCase(data)
	if len(rows) == 0 {
		return false, false
	}
	nk := len(order)
	want := referenceOrder(order, rows)
	sel := &sqlast.SelectStmt{OrderBy: order}
	for _, planned := range []bool{true, false} {
		ex := NewExecutor(NewDatabase("order"))
		if planned {
			ex.plan = &Plan{}
		}
		res := &Result{Rows: slices.Clone(rows)}
		if err := ex.orderRows(sel, res, nil, nil); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res.Rows[i][nk] != want[i][nk] {
				t.Fatalf("planned=%v: row %d is input row %v, reference has %v\norder %+v\nrows %v", planned, i, res.Rows[i][nk], want[i][nk], order, rows)
			}
		}
		wantStats := OrderStats{}
		if planned && len(rows) > 1 {
			wantStats.Rows = int64(len(rows))
			if homogeneous(nk, rows) {
				wantStats.TypedSorts = 1
			} else {
				wantStats.GenericSorts = 1
			}
			typed = wantStats.TypedSorts == 1
		}
		if ex.orderStats != wantStats {
			t.Fatalf("planned=%v: stats %+v, want %+v\nrows %v", planned, ex.orderStats, wantStats, rows)
		}
	}
	return typed, len(rows) > 1
}

// TestOrderTypedMatchesStableCompare checks the permutation sort against
// the reference on random key sets: NULLs under both directions, numeric
// and case-fold ties, one to three keys with mixed directions, duplicate
// rows, and columns that mix domains and must take the generic branch.
func TestOrderTypedMatchesStableCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	typed, generic := 0, 0
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 4+rng.Intn(120))
		rng.Read(data)
		if rng.Intn(2) == 0 {
			// Few distinct values: long runs of ties and duplicate rows.
			for i := 4; i < len(data); i++ {
				data[i] %= 24
			}
		}
		switch isTyped, sorted := checkOrderCase(t, data); {
		case isTyped:
			typed++
		case sorted:
			generic++
		}
	}
	if typed < 500 || generic < 500 {
		t.Fatalf("%d typed and %d generic sorts: one branch went all but untested", typed, generic)
	}
}

func FuzzOrderTypedVsGeneric(f *testing.F) {
	f.Add([]byte{0, 0, 8, 16, 0, 24, 8})          // one numeric key ASC with a NULL and a tie
	f.Add([]byte{0, 3, 8, 16, 0, 24, 8})          // one text key DESC: a / A tie
	f.Add([]byte{1, 0, 3, 8, 8, 8, 16, 0, 8})     // numeric ASC, text DESC
	f.Add([]byte{0, 4, 112, 8, 16, 112})          // NaN among numbers
	f.Add([]byte{2, 6, 1, 2, 8, 120, 8, 136, 16}) // a mixed column first
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzzer's minimizer is quadratic in the input length, and an
		// input this long is already 65 to 198 rows.
		if len(data) > 200 {
			t.Skip()
		}
		checkOrderCase(t, data)
	})
}

// TestOrderKeyResolution pins the precedence orderRows resolves a key by —
// ordinal, output column or alias, printed select item, per-row expression
// — and its errors, on all three entry points.
func TestOrderKeyResolution(t *testing.T) {
	db := testDB(t)
	if err := db.LoadScript("CREATE TABLE empty_t (id INT, age INT);"); err != nil {
		t.Fatal(err)
	}
	first := func(sql string) string {
		t.Helper()
		res, err := runBothWays(t, db, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		runLegs(t, db, sql)
		return fmt.Sprint(res.Rows[0])
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT name, age FROM singer ORDER BY 2", "[Tribal King 25]"},
		// The alias shadows the source column of the same name.
		{"SELECT name, 0 - age AS age FROM singer ORDER BY age", "[Joe Sharp -52]"},
		{"SELECT name, age FROM singer ORDER BY AGE DESC", "[Joe Sharp 52]"},
		// An out-of-range ordinal is a constant key: input order stands.
		{"SELECT name FROM singer ORDER BY 7", "[Joe Sharp]"},
		{"SELECT country, COUNT(*) FROM singer GROUP BY country ORDER BY COUNT(*) DESC", "[France 4]"},
		{"SELECT country FROM singer GROUP BY country ORDER BY MAX(age) DESC, country", "[Netherlands]"},
		{"SELECT name FROM singer ORDER BY age * -1", "[Joe Sharp]"},
		{"SELECT s.name FROM singer AS s JOIN singer_in_concert AS sc ON s.id = sc.singer_id ORDER BY sc.concert_id DESC, s.age", "[Justin Brown]"},
		{"SELECT name FROM singer UNION SELECT concert_name FROM concert ORDER BY name DESC", "[Week 2]"},
		// A zero-row aggregate under a star yields one row narrower than
		// its header: ordinal 3 is a column of the other arm's rows only.
		{"SELECT *, COUNT(*) FROM empty_t UNION ALL SELECT id, age, 1 FROM singer WHERE id < 3 ORDER BY 1 DESC", "[2 32 1]"},
	} {
		if got := first(tc.sql); got != tc.want {
			t.Errorf("%s: first row %s, want %s", tc.sql, got, tc.want)
		}
	}
	for _, tc := range []struct{ sql, err string }{
		{"SELECT name FROM singer UNION SELECT concert_name FROM concert ORDER BY age", "cannot resolve ORDER BY expression age"},
		// The key fails on the first row, before LIMIT is looked at.
		{"SELECT name FROM singer ORDER BY (SELECT id FROM singer) LIMIT (SELECT id, age FROM singer)", "scalar subquery returned 6 rows"},
		{"SELECT name FROM singer WHERE id = 1 ORDER BY (SELECT id FROM singer)", "scalar subquery returned 6 rows"},
		{"SELECT *, COUNT(*) FROM empty_t UNION ALL SELECT id, age, 1 FROM singer ORDER BY 3", "cannot resolve ORDER BY expression 3"},
	} {
		_, err := runBothWays(t, db, tc.sql)
		if err == nil || err.Error() != tc.err {
			t.Errorf("%s: got %v, want %q", tc.sql, err, tc.err)
		}
		runLegs(t, db, tc.sql)
	}
	// No row, no key evaluation: the failing key is never reached.
	if _, err := runBothWays(t, db, "SELECT id FROM empty_t ORDER BY (SELECT id FROM singer)"); err != nil {
		t.Errorf("ORDER BY over zero rows: %v", err)
	}
}

// TestCompoundOrderByOutputColumns pins that a compound statement sorts on
// its output columns only: a key that is not one cannot resolve, whichever
// arm the combined row count happens to match, on every entry point.
func TestCompoundOrderByOutputColumns(t *testing.T) {
	db := testDB(t)
	const unresolved = "cannot resolve ORDER BY expression age"
	for _, tc := range []struct {
		sql, err string
		names    []string
	}{
		// The right arm keeps three rows, as many as the result.
		{"SELECT name FROM singer EXCEPT SELECT name FROM singer WHERE age < 35 ORDER BY age", unresolved, nil},
		{"SELECT name FROM singer EXCEPT SELECT name FROM singer WHERE age < 30 ORDER BY age", unresolved, nil},
		// The left arm is empty, the right arm is the whole result.
		{"SELECT name FROM singer WHERE age > 100 UNION ALL SELECT name FROM singer ORDER BY age", unresolved, nil},
		{"SELECT name FROM singer WHERE age > 30 UNION ALL SELECT name FROM singer ORDER BY age", unresolved, nil},
		{"SELECT name FROM singer EXCEPT SELECT name FROM singer WHERE age < 35 ORDER BY name", "", []string{"Joe Sharp", "John Nizinik", "Rose White"}},
	} {
		p, err := Prepare(db, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		off := NewExecutor(db)
		off.SetColumnar(false)
		for leg, run := range map[string]func() (*Result, error){
			"run":          func() (*Result, error) { return NewExecutor(db).Run(p) },
			"columnar off": func() (*Result, error) { return off.Run(p) },
			"select":       func() (*Result, error) { return NewExecutor(db).Select(p.Stmt) },
		} {
			res, err := run()
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Errorf("%s (%s): got %v, want %q", tc.sql, leg, err, tc.err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (%s): %v", tc.sql, leg, err)
			}
			var names []string
			for _, r := range res.Rows {
				names = append(names, r[0].S)
			}
			if !reflect.DeepEqual(names, tc.names) {
				t.Errorf("%s (%s): %v, want %v", tc.sql, leg, names, tc.names)
			}
		}
	}
}

func orderStatsDelta(db *Database, fn func()) OrderStats {
	a := db.OrderStats()
	fn()
	b := db.OrderStats()
	return OrderStats{TypedSorts: b.TypedSorts - a.TypedSorts, GenericSorts: b.GenericSorts - a.GenericSorts, Rows: b.Rows - a.Rows}
}

func TestOrderStats(t *testing.T) {
	db := testDB(t)
	if err := db.LoadScript("CREATE TABLE mixed (k TEXT); INSERT INTO mixed VALUES ('b'), ('a'), (NULL);"); err != nil {
		t.Fatal(err)
	}
	mixed, _ := db.Table("mixed")
	mixed.Rows = append(mixed.Rows, []Value{Int(3)})
	for _, tc := range []struct {
		sql  string
		want OrderStats
	}{
		{"SELECT name FROM singer ORDER BY age DESC, name", OrderStats{TypedSorts: 1, Rows: 6}},
		{"SELECT country, COUNT(*) FROM singer GROUP BY country ORDER BY COUNT(*)", OrderStats{TypedSorts: 1, Rows: 3}},
		{"SELECT k FROM mixed ORDER BY k", OrderStats{GenericSorts: 1, Rows: 4}},
		{"SELECT k FROM mixed WHERE k IS NULL OR k >= 'a' ORDER BY k", OrderStats{TypedSorts: 1, Rows: 3}},
		// The subquery's sort and the statement's both count.
		{"SELECT name FROM singer WHERE id IN (SELECT singer_id FROM singer_in_concert ORDER BY concert_id) ORDER BY name", OrderStats{TypedSorts: 2, Rows: 9 + 5}},
		// Fewer than two rows: nothing to sort, nothing counted.
		{"SELECT name FROM singer WHERE id = 1 ORDER BY age", OrderStats{}},
		{"SELECT name FROM singer WHERE id = 0 ORDER BY age", OrderStats{}},
		{"SELECT name FROM singer", OrderStats{}},
	} {
		p, err := Prepare(db, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, columnar := range []bool{true, false} {
			ex := NewExecutor(db)
			ex.SetColumnar(columnar)
			got := orderStatsDelta(db, func() {
				if _, err := ex.Run(p); err != nil {
					t.Fatalf("%s: %v", tc.sql, err)
				}
			})
			if got != tc.want {
				t.Errorf("%s (columnar %v):\n got %+v\nwant %+v", tc.sql, columnar, got, tc.want)
			}
		}
		// The plan-less oracle sorts on Compare and counts nothing, and the
		// next Run on the same executor publishes nothing on its behalf.
		ex := NewExecutor(db)
		if got := orderStatsDelta(db, func() { ex.Select(p.Stmt) }); got != (OrderStats{}) || ex.orderStats != (OrderStats{}) {
			t.Errorf("%s: Select moved the counters: %+v / %+v", tc.sql, got, ex.orderStats)
		}
	}
}

const huge = "9223372036854775807"

// limitOffsetCases are LIMIT / OFFSET values at and beyond every edge, with
// the singer ids (of 1..6 in order) each keeps.
var limitOffsetCases = []struct {
	clause string
	want   []int64
}{
	{"LIMIT 2 OFFSET -1", []int64{1, 2}},
	{"LIMIT 2 OFFSET (0 - 1)", []int64{1, 2}},
	{"LIMIT 2 OFFSET -" + huge, []int64{1, 2}},
	{"LIMIT 2 OFFSET NULL", []int64{1, 2}},
	{"LIMIT 2 OFFSET 4", []int64{5, 6}},
	{"LIMIT 2 OFFSET 5", []int64{6}},
	{"LIMIT 2 OFFSET 6", nil},
	{"LIMIT 2 OFFSET " + huge, nil},
	{"LIMIT " + huge + " OFFSET 4", []int64{5, 6}},
	{"LIMIT " + huge + " OFFSET " + huge, nil},
	{"LIMIT -1", []int64{1, 2, 3, 4, 5, 6}},
	{"LIMIT -1 OFFSET 4", []int64{5, 6}},
	{"LIMIT (0 - 5) OFFSET -3", []int64{1, 2, 3, 4, 5, 6}},
	{"LIMIT 0", nil},
	{"LIMIT NULL", nil},
	// A fractional LIMIT truncates; OFFSET reads integers only.
	{"LIMIT 2.9", []int64{1, 2}},
	{"LIMIT 2 OFFSET 1.5", []int64{1, 2}},
}

// TestLimitOffsetBounds runs limitOffsetCases through Run, Run with columnar
// off and Select.
func TestLimitOffsetBounds(t *testing.T) {
	db := testDB(t)
	for _, tc := range limitOffsetCases {
		for _, order := range []string{"", " ORDER BY id"} {
			sql := "SELECT id FROM singer" + order + " " + tc.clause
			p, err := Prepare(db, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			off := NewExecutor(db)
			off.SetColumnar(false)
			for leg, run := range map[string]func() (*Result, error){
				"run":          func() (*Result, error) { return NewExecutor(db).Run(p) },
				"columnar off": func() (*Result, error) { return off.Run(p) },
				"select":       func() (*Result, error) { return NewExecutor(db).Select(p.Stmt) },
			} {
				res, err := run()
				if err != nil {
					t.Errorf("%s (%s): %v", sql, leg, err)
					continue
				}
				var got []int64
				for _, r := range res.Rows {
					got = append(got, r[0].I)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%s (%s): ids %v, want %v", sql, leg, got, tc.want)
				}
			}
		}
	}
}

// ----------------------------------------------------------------------------
// Benchmarks: a full sort of 10 000 rows, on the planned path and on the
// plan-less Select oracle (always the stable sort on Compare).

func benchOrderDB(b *testing.B) *Database {
	b.Helper()
	db := NewDatabase("bench_order")
	if err := db.LoadScript("CREATE TABLE t (id INT, n INT, s TEXT, g INT, m TEXT);"); err != nil {
		b.Fatal(err)
	}
	t, _ := db.Table("t")
	for i := 0; i < 10000; i++ {
		h := i * 7919 % 10007
		m := Text(fmt.Sprintf("k%05d", h))
		if i%10 == 0 {
			m = Int(int64(h)) // one row in ten breaks the column's domain
		}
		t.Rows = append(t.Rows, []Value{Int(int64(i)), Int(int64(h)), Text(fmt.Sprintf("name %05d", h)), Int(int64(h % 50)), m})
	}
	return db
}

// benchOrderArms times sql on Run and on Select after asserting that the
// two return the same rows in the same order.
func benchOrderArms(b *testing.B, sql string, want OrderStats) {
	db := benchOrderDB(b)
	p, err := Prepare(db, sql)
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(db)
	var got *Result
	if d := orderStatsDelta(db, func() { got, err = ex.Run(p) }); err != nil || d != want {
		b.Fatalf("run %q: err %v, sorts %+v, want %+v", sql, err, d, want)
	}
	ref, err := ex.Select(p.Stmt)
	if err != nil {
		b.Fatal(err)
	}
	if len(ref.Rows) != 10000 || !reflect.DeepEqual(ref, got) {
		b.Fatalf("run/select divergence for %q", sql)
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

func BenchmarkOrderByInt(b *testing.B) {
	benchOrderArms(b, "SELECT id FROM t ORDER BY n", OrderStats{TypedSorts: 1, Rows: 10000})
}

func BenchmarkOrderByText(b *testing.B) {
	benchOrderArms(b, "SELECT id FROM t ORDER BY s DESC", OrderStats{TypedSorts: 1, Rows: 10000})
}

func BenchmarkOrderByTwoKeys(b *testing.B) {
	benchOrderArms(b, "SELECT id FROM t ORDER BY g DESC, s", OrderStats{TypedSorts: 1, Rows: 10000})
}

func BenchmarkOrderByMixed(b *testing.B) {
	benchOrderArms(b, "SELECT id FROM t ORDER BY m", OrderStats{GenericSorts: 1, Rows: 10000})
}
