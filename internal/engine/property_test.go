package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Relational invariants checked over randomized data and predicates. These
// pin the executor semantics the evaluation metric depends on.

func randomDB(rng *rand.Rand, rows int) *Database {
	db := NewDatabase("prop")
	t := &Table{
		Name: "items",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "grp", Type: TypeText},
			{Name: "val", Type: TypeInt},
			{Name: "score", Type: TypeFloat},
		},
	}
	groups := []string{"a", "b", "c", "d"}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, []Value{
			Int(int64(i + 1)),
			Text(groups[rng.Intn(len(groups))]),
			Int(int64(rng.Intn(100))),
			Float(float64(rng.Intn(1000)) / 10),
		})
	}
	db.AddTable(t)
	return db
}

func count(t *testing.T, ex *Executor, sql string) int {
	t.Helper()
	res, err := ex.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return len(res.Rows)
}

func TestPropertyFilterMonotone(t *testing.T) {
	// Adding an AND conjunct never increases the row count.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		db := randomDB(rng, 30+rng.Intn(50))
		ex := NewExecutor(db)
		v1, v2 := rng.Intn(100), rng.Intn(100)
		base := count(t, ex, fmt.Sprintf("SELECT id FROM items WHERE val > %d", v1))
		narrowed := count(t, ex, fmt.Sprintf("SELECT id FROM items WHERE val > %d AND val < %d", v1, v2))
		if narrowed > base {
			t.Fatalf("trial %d: conjunct increased rows %d -> %d", trial, base, narrowed)
		}
		widened := count(t, ex, fmt.Sprintf("SELECT id FROM items WHERE val > %d OR val < %d", v1, v2))
		if widened < base {
			t.Fatalf("trial %d: disjunct decreased rows %d -> %d", trial, base, widened)
		}
	}
}

func TestPropertyDistinctNotLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 20+rng.Intn(80))
		ex := NewExecutor(db)
		all := count(t, ex, "SELECT grp FROM items")
		distinct := count(t, ex, "SELECT DISTINCT grp FROM items")
		if distinct > all {
			t.Fatalf("trial %d: distinct %d > all %d", trial, distinct, all)
		}
		if distinct > 4 {
			t.Fatalf("trial %d: more distinct groups than exist: %d", trial, distinct)
		}
	}
}

func TestPropertyLimitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 10+rng.Intn(40))
		ex := NewExecutor(db)
		n := 1 + rng.Intn(20)
		got := count(t, ex, fmt.Sprintf("SELECT id FROM items ORDER BY id ASC LIMIT %d", n))
		total := count(t, ex, "SELECT id FROM items")
		want := n
		if total < n {
			want = total
		}
		if got != want {
			t.Fatalf("trial %d: LIMIT %d over %d rows returned %d", trial, n, total, got)
		}
	}
}

func TestPropertyGroupCountsSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 20+rng.Intn(60))
		ex := NewExecutor(db)
		res, err := ex.Query("SELECT grp, COUNT(*) FROM items GROUP BY grp")
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, row := range res.Rows {
			sum += row[1].I
		}
		total, err := ex.Query("SELECT COUNT(*) FROM items")
		if err != nil {
			t.Fatal(err)
		}
		if sum != total.Rows[0][0].I {
			t.Fatalf("trial %d: group counts sum %d != total %d", trial, sum, total.Rows[0][0].I)
		}
	}
}

func TestPropertyMinMaxWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 10+rng.Intn(40))
		ex := NewExecutor(db)
		res, err := ex.Query("SELECT MIN(val), MAX(val), AVG(val) FROM items")
		if err != nil {
			t.Fatal(err)
		}
		mn, mx, avg := res.Rows[0][0], res.Rows[0][1], res.Rows[0][2]
		if Compare(mn, mx) > 0 {
			t.Fatalf("trial %d: MIN %v > MAX %v", trial, mn, mx)
		}
		if avg.Real() < float64(mn.I) || avg.Real() > float64(mx.I) {
			t.Fatalf("trial %d: AVG %v outside [%v, %v]", trial, avg, mn, mx)
		}
	}
}

func TestPropertyOrderBySorts(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 10+rng.Intn(60))
		ex := NewExecutor(db)
		res, err := ex.Query("SELECT val FROM items ORDER BY val ASC")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Rows); i++ {
			if Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
				t.Fatalf("trial %d: not sorted at %d", trial, i)
			}
		}
		res, err = ex.Query("SELECT val FROM items ORDER BY val DESC")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Rows); i++ {
			if Compare(res.Rows[i-1][0], res.Rows[i][0]) < 0 {
				t.Fatalf("trial %d: not reverse-sorted at %d", trial, i)
			}
		}
	}
}

func TestPropertySetOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 20+rng.Intn(40))
		ex := NewExecutor(db)
		a := fmt.Sprintf("SELECT grp FROM items WHERE val > %d", rng.Intn(80))
		b := fmt.Sprintf("SELECT grp FROM items WHERE val < %d", rng.Intn(80))
		union := count(t, ex, a+" UNION "+b)
		inter := count(t, ex, a+" INTERSECT "+b)
		exceptN := count(t, ex, a+" EXCEPT "+b)
		distinctA := count(t, ex, "SELECT DISTINCT grp FROM (SELECT * FROM items) AS s WHERE val > 0")
		_ = distinctA
		// |A ∪ B| = |A\B| + |A ∩ B| + |B\A| ≥ max parts; check the two
		// identities that only need A-side quantities:
		if inter+exceptN > union {
			t.Fatalf("trial %d: |A∩B| + |A\\B| = %d exceeds |A∪B| = %d", trial, inter+exceptN, union)
		}
		if exceptN > union {
			t.Fatalf("trial %d: |A\\B| %d > |A∪B| %d", trial, exceptN, union)
		}
	}
}

func TestPropertyJoinCardinality(t *testing.T) {
	// LEFT JOIN preserves every left row at least once; INNER JOIN never
	// exceeds the LEFT JOIN row count.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 15+rng.Intn(25))
		other := &Table{
			Name: "tags",
			Columns: []Column{
				{Name: "item_id", Type: TypeInt},
				{Name: "tag", Type: TypeText},
			},
		}
		items, _ := db.Table("items")
		for i := 0; i < rng.Intn(30); i++ {
			other.Rows = append(other.Rows, []Value{
				Int(int64(rng.Intn(len(items.Rows) * 2))), // some dangle
				Text("t"),
			})
		}
		db.AddTable(other)
		ex := NewExecutor(db)
		left := count(t, ex, "SELECT items.id FROM items LEFT JOIN tags ON items.id = tags.item_id")
		inner := count(t, ex, "SELECT items.id FROM items JOIN tags ON items.id = tags.item_id")
		if left < len(items.Rows) {
			t.Fatalf("trial %d: LEFT JOIN lost rows: %d < %d", trial, left, len(items.Rows))
		}
		if inner > left {
			t.Fatalf("trial %d: INNER %d > LEFT %d", trial, inner, left)
		}
	}
}

// semPools are the value domains TestPropertyValueSemantics draws a column
// from: int / float ties, signed zeros, NaN and infinities, integers one
// float64 cannot tell apart, case and non-ASCII text, bools, and domains
// mixed across types.
var semPools = [][]Value{
	{Int(0), Int(2), Int(-3), Int(7), Int(1 << 53), Int(1<<53 + 1)},
	{Float(0), Float(math.Copysign(0, -1)), Float(2), Float(2.5), Float(-7.25), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1 << 53)},
	{Float(0), Float(math.Copysign(0, -1)), Float(2), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1))},
	{Int(0), Float(math.Copysign(0, -1)), Int(2), Float(2), Float(2.5), Int(1<<53 + 1), Float(1 << 53), Float(math.Inf(1))},
	{Text("a"), Text("A"), Text("b"), Text("ab"), Text(""), Text("é"), Text("É"), Text("2")},
	{Bool(true), Bool(false)},
	{Int(2), Text("2"), Bool(true), Float(math.NaN()), Float(2), Text("a"), Float(math.Copysign(0, -1))},
}

var (
	semCols  = []string{"a", "b", "c", "id"}
	semOps   = []string{"=", "<>", "<", "<=", ">", ">="}
	semAggs  = []string{"COUNT", "MIN", "MAX", "SUM", "AVG"}
	semLikes = []string{"'a%'", "'%É'", "'_'", "'2%'", "'%'", "'A'"}
	semLits  = []string{
		"NULL", "0", "-0.0", "0.0", "2", "2.0", "2.5", "-7.25",
		"9007199254740992", "9007199254740993", "'a'", "'A'", "'é'", "'2'", "TRUE", "FALSE",
	}
)

// semGen draws a value-semantics case from a byte string: each draw takes
// one byte, and an exhausted string draws 0, which always picks a leaf.
type semGen struct{ data []byte }

func (g *semGen) intn(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *semGen) pick(s []string) string { return s[g.intn(len(s))] }

func (g *semGen) col() string { return g.pick(semCols) }

// pred draws a WHERE predicate nested at most two connectives deep.
func (g *semGen) pred(depth int) string {
	k := g.intn(10)
	if depth >= 2 {
		k %= 7
	}
	switch k {
	case 0:
		return g.col() + " " + g.pick(semOps) + " " + g.pick(semLits)
	case 1:
		return g.col() + " " + g.pick(semOps) + " " + g.col()
	case 2:
		return g.col() + " IN (" + g.pick(semLits) + ", NULL, " + g.pick(semLits) + ")"
	case 3:
		return g.col() + " NOT IN (" + g.pick(semLits) + ", " + g.pick(semLits) + ")"
	case 4:
		return g.col() + " BETWEEN " + g.pick(semLits) + " AND " + g.pick(semLits)
	case 5:
		return g.col() + " LIKE " + g.pick(semLikes)
	case 6:
		return g.col() + g.pick([]string{" IS NULL", " IS NOT NULL"})
	case 7:
		return "(" + g.pred(depth+1) + ") AND (" + g.pred(depth+1) + ")"
	case 8:
		return "(" + g.pred(depth+1) + ") OR (" + g.pred(depth+1) + ")"
	}
	return "NOT (" + g.pred(depth+1) + ")"
}

func (g *semGen) agg() string { return g.pick(semAggs) + "(" + g.col() + ")" }

// joinAgg draws an aggregate over a column of either side of t JOIN u.
func (g *semGen) joinAgg() string {
	return g.pick(semAggs) + "(" + g.pick([]string{"a", "b", "c", "id", "u.uid", "u.k", "u.w"}) + ")"
}

// stmt draws one SELECT over t: a plain filter, DISTINCT, GROUP BY with
// aggregates, ORDER BY with LIMIT / OFFSET, whole-table aggregates,
// negation and ABS, a column compared with a closed scalar subquery on
// either side, a column [NOT] IN a closed subquery, ORDER BY a column the
// select list leaves out, or t INNER or LEFT JOIN u on t.a = u.k, grouped
// on a bare key of either side or not.
func (g *semGen) stmt() string {
	shape := g.intn(12)
	x, y := g.col(), g.col()
	where := " FROM t WHERE " + g.pred(0)
	switch shape {
	case 10, 11:
		from := " FROM t" + g.pick([]string{" JOIN ", " LEFT JOIN "}) + "u ON t.a = u.k"
		if g.intn(2) == 0 {
			from += " WHERE " + g.pred(0)
		}
		if shape == 11 {
			return "SELECT t.id, t." + x + ", u.*" + from
		}
		key := g.pick([]string{"t.a", "t." + x, "u.k", "u.w"})
		return "SELECT " + key + ", COUNT(*), " + g.joinAgg() + from + " GROUP BY " + key
	case 0:
		return "SELECT id, a, b, c" + where
	case 1:
		return "SELECT DISTINCT " + x + where
	case 2:
		return "SELECT " + x + ", COUNT(*), " + g.agg() + ", " + g.agg() + where + " GROUP BY " + x
	case 3:
		dir := g.pick([]string{"", " DESC"})
		return "SELECT " + x + ", " + y + where + " ORDER BY " + x + dir + ", " + y +
			" LIMIT " + g.pick([]string{"5", "-1", "2.5"}) + " OFFSET " + g.pick([]string{"0", "3", "2.5", "-1", "NULL"})
	case 4:
		return "SELECT " + g.agg() + ", " + g.agg() + ", " + g.agg() + where
	case 5:
		return "SELECT id, -" + x + ", ABS(" + y + ")" + where
	case 6, 7:
		sub := "(SELECT " + g.pick([]string{"MIN", "MAX", "AVG"}) + "(" + y + ") FROM t WHERE " + g.pred(1) + ")"
		cmp := x + " " + g.pick(semOps) + " " + sub
		if shape == 7 {
			cmp = sub + " " + g.pick(semOps) + " " + x
		}
		return "SELECT id, " + x + " FROM t WHERE " + cmp
	case 8:
		return "SELECT id, " + x + " FROM t WHERE " + x + g.pick([]string{" IN ", " NOT IN "}) +
			"(SELECT " + y + " FROM t WHERE " + g.pred(1) + ")"
	}
	items := make([]string, 0, len(semCols))
	for _, c := range semCols {
		if c != y {
			items = append(items, c)
		}
	}
	return "SELECT " + strings.Join(items, ", ") + where + " ORDER BY " + y + g.pick([]string{"", " ASC", " DESC"})
}

// semCase decodes one case: a table t(id, a, b, c) of 0–300 rows whose
// columns a, b and c each draw from one of semPools, a table u(uid, k, w)
// of 0–31 rows whose join key k draws from a's pool and whose w draws from
// a pool of its own (NULL one time in eight everywhere, so k holds NULL
// keys and a LEFT JOIN's pad rows meet w's own NULLs), and one statement
// over them. The row counts are capped by the bytes left after the
// statement, two a row of u, then three a row of t.
func semCase(data []byte) (*Database, string) {
	g := &semGen{data: data}
	nrows := (g.intn(256) | g.intn(256)<<8) % 301
	tbl := &Table{Name: "t", Columns: []Column{{Name: "id", Type: TypeInt}}}
	var pools [3][]Value
	for i, name := range []string{"a", "b", "c"} {
		pools[i] = semPools[g.intn(len(semPools))]
		tbl.Columns = append(tbl.Columns, Column{Name: name, Type: pools[i][0].T})
	}
	wpool := semPools[g.intn(len(semPools))]
	u := &Table{Name: "u", Columns: []Column{{Name: "uid", Type: TypeInt}, {Name: "k", Type: pools[0][0].T}, {Name: "w", Type: wpool[0].T}}}
	sql := g.stmt()
	cell := func(pool []Value) Value {
		if b := g.intn(256); b%8 != 0 {
			return pool[b/8%len(pool)]
		}
		return Null()
	}
	for i, n := 0, g.intn(32); i < n && len(g.data) >= 2; i++ {
		u.Rows = append(u.Rows, []Value{Int(int64(i)), cell(pools[0]), cell(wpool)})
	}
	for i := 0; i < nrows && len(g.data) >= len(pools); i++ {
		row := []Value{Int(int64(i))}
		for _, pool := range pools {
			row = append(row, cell(pool))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	db := NewDatabase("sem")
	db.AddTable(tbl)
	db.AddTable(u)
	return db, sql
}

// sameCell is Value identity read only through T, AsFloat and String, so it
// means the same under any Value layout: a REAL compares by its bits (-0 is
// not 0, and a NaN equals itself), every other value by type and rendering.
func sameCell(a, b Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == TypeFloat {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return a.String() == b.String()
}

// sameResult is result identity under sameCell: the same header, the same
// Ordered flag and the same cells in the same order.
func sameResult(a, b *Result) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Ordered != b.Ordered || !slices.Equal(a.Columns, b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !slices.EqualFunc(a.Rows[i], b.Rows[i], sameCell) {
			return false
		}
	}
	return true
}

// checkSemCase runs one decoded case on every resultLegs leg. It reports
// whether the statement errored and how many rows it returned.
func checkSemCase(t *testing.T, data []byte) (failed bool, rows int) {
	t.Helper()
	db, sql := semCase(data)
	res, err := runLegs(t, db, sql)
	if err != nil {
		return true, 0
	}
	return false, len(res.Rows)
}

// TestPropertyValueSemantics runs random statements over random tables of
// edge values on every execution leg: the legs must agree on the error
// text or on every cell, float bits included.
func TestPropertyValueSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	errored, empty, answered := 0, 0, 0
	for iter := 0; iter < 1500; iter++ {
		data := make([]byte, 40+rng.Intn(940))
		rng.Read(data)
		switch failed, rows := checkSemCase(t, data); {
		case failed:
			errored++
		case rows == 0:
			empty++
		default:
			answered++
		}
	}
	if errored < 50 || empty < 50 || answered < 500 {
		t.Fatalf("%d errors, %d empty and %d non-empty results: the generator lost a branch", errored, empty, answered)
	}
}

// FuzzValueSemantics runs TestPropertyValueSemantics's check on cases
// decoded from fuzz bytes.
func FuzzValueSemantics(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 6, 0, 0, 0, 8, 16, 24})
	f.Add([]byte{40, 0, 2, 2, 2, 2, 1, 1, 3, 8, 16, 24, 32, 40, 48, 56, 8, 8, 8})
	f.Add([]byte{200, 0, 6, 4, 5, 3, 2, 7, 9, 0, 3, 5, 2, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzzer's minimizer is quadratic in the input length, and an
		// input this long is already over a hundred rows.
		if len(data) > 400 {
			t.Skip()
		}
		checkSemCase(t, data)
	})
}
