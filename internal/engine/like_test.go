package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// unicodeDB is a tiny table of non-ASCII names for LIKE regressions.
func unicodeDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("unicode")
	script := `
CREATE TABLE people (id INT, name TEXT);
INSERT INTO people VALUES
 (1, 'José'),
 (2, 'Zoë'),
 (3, '日本語'),
 (4, 'abc'),
 (5, 'ÉCLAIR');
`
	if err := db.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLikeMatchUnicode exercises the matcher directly: _ must consume one
// rune, not one byte, and % boundaries must never split a multi-byte
// sequence. The ASCII cases pin the fast path to the same semantics.
func TestLikeMatchUnicode(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"é", "_", true},   // one rune, two bytes
		{"é", "__", false}, // byte-wise matching made this true
		{"éa", "__", true},
		{"José", "Jos_", true},
		{"José", "J%É", true}, // case-insensitive across the fold
		{"日本語", "___", true},
		{"日本語", "日_語", true},
		{"日本語", "%本%", true},
		{"日本語", "日本", false},
		{"Zoë", "zo_", true},
		{"Zoë", "%ë", true},
		{"abc", "a_c", true}, // ASCII fast path
		{"abc", "a%", true},
		{"abc", "____", false},
	}
	ex := &Executor{}
	for _, c := range cases {
		if got := ex.like(c.s, c.p); got != c.want {
			t.Errorf("like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// likeLoweredRef is LIKE as it was defined before the matcher folded case
// itself: both sides lowered by strings.ToLower, then an ASCII byte loop or
// the rune loop over the lowered copies.
func likeLoweredRef(s, p string) bool {
	s, p = strings.ToLower(s), strings.ToLower(p)
	if !isASCII(s) || !isASCII(p) {
		return likeMatchRunes([]rune(s), []rune(p))
	}
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		if pi < len(p) && (p[pi] == '_' || p[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(p) && p[pi] == '%' {
			starP, starS = pi, si
			pi++
		} else if starP >= 0 {
			starS++
			si, pi = starS, starP+1
		} else {
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// likeFragments build LIKE subjects and patterns: both cases of ASCII
// letters around the wildcards, runs of % and _, non-ASCII letters, invalid
// UTF-8 bytes, the Kelvin sign U+212A (which lowers to an ASCII k) and
// U+0130 (which lowers to an i plus a combining dot).
var likeFragments = []string{
	"a", "A", "b", "B", "k", "K", "i", "I", "z", "Z", "@", "[", "`", "{", " ",
	"%", "%%", "_", "__", "%_%",
	"é", "É", "ß", "日", "\u212a", "\u0130", "\xff", "\xc3", "\xe6\x97",
}

func randomLikeText(rng *rand.Rand, asciiOnly bool) string {
	var sb strings.Builder
	for n := rng.Intn(9); n > 0; n-- {
		f := likeFragments[rng.Intn(len(likeFragments))]
		if asciiOnly && !isASCII(f) {
			continue
		}
		sb.WriteString(f)
	}
	return sb.String()
}

// checkLikeFold requires Executor.like to agree with likeLoweredRef.
func checkLikeFold(t *testing.T, ex *Executor, s, p string) {
	t.Helper()
	if got, want := ex.like(s, p), likeLoweredRef(s, p); got != want {
		t.Fatalf("like(%q, %q) = %v, lowered copies give %v", s, p, got, want)
	}
}

// TestLikeFoldMatchesLowered checks the case-folding matcher against the
// definition it replaced on random subjects and patterns; a third of them
// are ASCII only, so the byte loop sees both cases of every letter.
func TestLikeFoldMatchesLowered(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ex := &Executor{}
	for iter := 0; iter < 20000; iter++ {
		ascii := iter%3 == 0
		s, p := randomLikeText(rng, ascii), randomLikeText(rng, ascii)
		checkLikeFold(t, ex, s, p)
		// A pattern cut from the subject matches often, not just by chance.
		if len(s) > 0 {
			i := rng.Intn(len(s))
			checkLikeFold(t, ex, s, "%"+s[i:i+rng.Intn(len(s)-i+1)]+"%")
		}
	}
}

func FuzzLikeFold(f *testing.F) {
	f.Add("Hello World", "%o w%")
	f.Add("ABC", "a_c")
	f.Add("\u212aelvin", "kel%")
	f.Add("kelvin", "\u212a%")
	f.Add("\u0130stanbul", "i%")
	f.Add("JOSÉ", "jos_")
	f.Add("a\xffB", "A_b")
	f.Add("AaAaAaB", "%a%a%b")
	f.Fuzz(func(t *testing.T, s, p string) {
		// The matcher is quadratic and the minimizer quadratic in the input.
		if len(s) > 64 || len(p) > 64 {
			t.Skip()
		}
		checkLikeFold(t, &Executor{}, s, p)
	})
}

// TestLikeUnicodeBothExecutors runs multi-byte LIKE patterns through the
// dynamic interpreter and the planned path; the two must agree with each
// other and with the rune-wise expectation.
func TestLikeUnicodeBothExecutors(t *testing.T) {
	db := unicodeDB(t)
	cases := []struct {
		pattern string
		want    []string
	}{
		{"Jos_", []string{"José"}}, // byte-wise saw 5 bytes and failed
		{"____", []string{"José"}},
		{"___", []string{"Zoë", "日本語", "abc"}},
		{"日_語", []string{"日本語"}},
		{"%本%", []string{"日本語"}},
		{"%ë", []string{"Zoë"}},
		{"z%", []string{"Zoë"}},
		{"é%", []string{"ÉCLAIR"}}, // fold on a multi-byte leading rune
	}
	for _, c := range cases {
		q := fmt.Sprintf("SELECT name FROM people WHERE name LIKE '%s' ORDER BY id", c.pattern)
		res, err := runBothWays(t, db, q)
		if err != nil {
			t.Fatalf("pattern %q: %v", c.pattern, err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, fmt.Sprint(row[0]))
		}
		if len(got) != len(c.want) {
			t.Errorf("pattern %q: got %v, want %v", c.pattern, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("pattern %q: got %v, want %v", c.pattern, got, c.want)
				break
			}
		}
	}
}

// TestLikeNullsFourLegs checks LIKE's three-valued logic on every leg: a
// NULL subject or pattern makes LIKE and NOT LIKE NULL, which WHERE drops.
func TestLikeNullsFourLegs(t *testing.T) {
	db := NewDatabase("like_nulls")
	script := `
CREATE TABLE n (id INT, s TEXT);
INSERT INTO n VALUES (1, 'Alpha'), (2, NULL), (3, 'BETA'), (4, 'gAmma'), (5, 'xyz'), (6, 'Ärger');
`
	if err := db.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string][]int64{
		"SELECT id FROM n WHERE s LIKE '%a%'":      {1, 3, 4},
		"SELECT id FROM n WHERE s NOT LIKE '%a%'":  {5, 6},
		"SELECT id FROM n WHERE NOT (s LIKE 'ä%')": {1, 3, 4, 5},
		"SELECT id FROM n WHERE s LIKE NULL":       {},
		"SELECT id FROM n WHERE s NOT LIKE NULL":   {},
	} {
		if res, err := runLegs(t, db, sql); err != nil || !reflect.DeepEqual(firstColumnInts(res), want) {
			t.Errorf("%s: %+v (err %v), want %v", sql, res, err, want)
		}
	}
	sql := "SELECT id, s LIKE 'a%', s NOT LIKE 'a%', s NOT LIKE NULL FROM n WHERE id < 4"
	want := [][]Value{
		{Int(1), Bool(true), Bool(false), Null()},
		{Int(2), Null(), Null(), Null()},
		{Int(3), Bool(false), Bool(true), Null()},
	}
	if res, err := runLegs(t, db, sql); err != nil || !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("%s: %+v (err %v), want %v", sql, res, err, want)
	}
}

// ----------------------------------------------------------------------------
// Benchmarks: LIKE over 10 000 mixed-case subjects, ASCII and not, on the
// planned path and on the plan-less Select oracle.

func benchLikeDB(b *testing.B) *Database {
	b.Helper()
	db := NewDatabase("bench_like")
	if err := db.LoadScript("CREATE TABLE t (id INT, a TEXT, u TEXT);"); err != nil {
		b.Fatal(err)
	}
	t, _ := db.Table("t")
	for i := 0; i < 10000; i++ {
		h := i * 7919 % 10007
		t.Rows = append(t.Rows, []Value{Int(int64(i)), Text(fmt.Sprintf("Name %05d AbC", h)), Text(fmt.Sprintf("Émile %05d Zoë", h))})
	}
	return db
}

func BenchmarkLikeASCII(b *testing.B) {
	benchRunVsSelect(b, benchLikeDB(b), "SELECT id FROM t WHERE a LIKE '%e 09%abc'")
}

func BenchmarkLikeUnicode(b *testing.B) {
	benchRunVsSelect(b, benchLikeDB(b), "SELECT id FROM t WHERE u LIKE 'é%9_ zOË'")
}
