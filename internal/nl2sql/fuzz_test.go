package nl2sql

import (
	"reflect"
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/feedback"
	"fisql/internal/sqlparse"
)

// FuzzRepair checks the repair engine never panics on arbitrary feedback
// text and only ever returns parseable SQL when it reports a change.
func FuzzRepair(f *testing.F) {
	seeds := []struct {
		sql, fb string
		op      int
	}{
		{"SELECT name FROM singer WHERE country = 'Spain'", "the country should be 'France'", 2},
		{"SELECT name FROM singer", "sort the results by age in descending order", 0},
		{"SELECT name, description FROM singer", "do not give the description", 1},
		{"SELECT COUNT(*) FROM singer WHERE createdTime >= '2023-01-01'", "we are in 2024", 2},
		{"SELECT MIN(age) FROM singer", "I wanted the maximum, not the minimum", 2},
		{"SELECT name FROM singer", "", 0},
		{"SELECT name FROM singer", "the  should be ", 2},
		{"NOT SQL AT ALL", "anything", 0},
		{"SELECT a FROM t", "the x should be 'a', not 'b'", 2},
	}
	for _, s := range seeds {
		f.Add(s.sql, s.fb, s.op)
	}
	lx := lex()
	f.Fuzz(func(t *testing.T, sql, fb string, opRaw int) {
		op := dataset.Op(((opRaw % 3) + 3) % 3)
		r := &Repairer{Lex: lx}
		var hl *feedback.Highlight
		if len(fb)%2 == 0 && len(sql) > 3 {
			hl = &feedback.Highlight{Text: sql[:3]}
		}
		got, changed := r.Repair(sql, fb, op, hl)
		if !changed {
			if got != sql {
				t.Fatalf("unchanged repair altered the SQL: %q -> %q", sql, got)
			}
			return
		}
		if _, err := sqlparse.ParseSelect(got); err != nil {
			t.Fatalf("repair produced unparseable SQL %q from %q + %q: %v", got, sql, fb, err)
		}
	})
}

// patternSeeds lists every gated feedback pattern with texts it matches,
// one per alternative of each literal entry, and a text it nearly matches.
var patternSeeds = []struct {
	p     *pattern
	match []string
	miss  string
}{
	{reYear, []string{"we are in 2024", "Please change the year to 2023.", "the year should be\n1999"}, "we are in 24"},
	{reInsteadOf, []string{"show the name instead of the age"}, "show the name instead of age"},
	{reWantedNot, []string{"I wanted the maximum, not the minimum"}, "i wanted the maximum not the minimum"},
	{reMeantNot, []string{"i meant the bands, not the singers"}, "i meant the bands, not singers"},
	{reShouldBeNot, []string{"the country should be 'France', not 'Spain'"}, "the country should be 'France' not 'Spain'"},
	{reColShouldBe, []string{"the age should be 30"}, "the age should 30"},
	{reValShouldBe, []string{"the value should be 7"}, "the value should  be 7"},
	{reSortBy, []string{"sort the results by age in descending order", "order by name in ascending order"}, "sort the results by age in descending"},
	{reOrderThe, []string{"order the singers in ascending order"}, "order the singers ascending order"},
	{reOnlyEq, []string{"only include those whose country is 'France'", "only count those whose age is 3", "only keep those whose name is Bob"}, "only include those where country is 'France'"},
	{reOnlyGt, []string{"only keep those with age greater than 30"}, "only keep those with age greater 30"},
	{reDistinct, []string{"no duplicates", "distinct names", "each only once"}, "dupl icate"},
	{reAlsoShow, []string{"also show the age", "also give the name", "also include the country"}, "also show age"},
	{reLimitTopN, []string{"only show the top 3", "only give the first 10"}, "only show the top three"},
	{reDoNotGive, []string{"do not give the description", "don't show age"}, "do not the description"},
	{reDropCond, []string{"drop the condition on age", "remove the filter on country"}, "drop the conditions on age"},
}

// FuzzRepairPatterns holds each pattern's literal gate to its regex: text
// the gate refuses must not match, and text it admits gets the groups an
// ungated match returns.
func FuzzRepairPatterns(f *testing.F) {
	for _, ps := range patternSeeds {
		for _, m := range ps.match {
			if !ps.p.re.MatchString(asciiLower(m)) {
				f.Fatalf("seed %q does not match %s", m, ps.p.re)
			}
			f.Add(m)
		}
		if ps.p.re.MatchString(asciiLower(ps.miss)) {
			f.Fatalf("near miss %q matches %s", ps.miss, ps.p.re)
		}
		f.Add(ps.miss)
	}
	f.Add("the age should be 30\nwe are in 2024\nsort by name in descending order")
	f.Add("i wanted the count,\nnot the total")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 512 {
			return
		}
		m := &fbMatch{lower: asciiLower(text), orig: text}
		for _, ps := range patternSeeds {
			if !ps.p.admits(m.lower) {
				if idx := ps.p.re.FindStringSubmatchIndex(m.lower); idx != nil {
					t.Fatalf("%s matches %q, which its literals %q refuse", ps.p.re, text, ps.p.lits)
				}
				continue
			}
			if got, want := m.groups(ps.p), m.submatches(ps.p.re); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %q: gated groups %q, ungated %q", ps.p.re, text, got, want)
			}
		}
	})
}
