package dataset

import (
	"strings"
	"testing"

	"fisql/internal/schema"
)

// Every template constructor must produce a candidate whose gold query
// executes, whose paraphrase carries each trap phrase, and whose traps
// survive Realize verification (execution-different, FixedIn-coherent).

func childSchema() *schema.Schema {
	s := testSchema()
	s.Tables = append(s.Tables, schema.Table{
		Name: "concert", NL: []string{"concerts"},
		PrimaryKey:  []string{"concert_id"},
		ForeignKeys: []schema.ForeignKey{{Column: "singer_id", RefTable: "singer", RefColumn: "singer_id"}},
		Columns: []schema.Column{
			{Name: "concert_id", Type: "INT"},
			{Name: "singer_id", Type: "INT"},
			{Name: "venue", Type: "TEXT", NL: []string{"venue"}},
			{Name: "attendance", Type: "INT", NL: []string{"attendance"}},
		},
	})
	return s
}

func fullGen(t *testing.T) *Gen {
	t.Helper()
	ds := New("ttest")
	g, err := NewGen(ds, childSchema(), newRng())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Populate(30); err != nil {
		t.Fatal(err)
	}
	return g
}

func checkCandidate(t *testing.T, g *Gen, c *Candidate, name string) {
	t.Helper()
	if c == nil {
		t.Fatalf("%s: candidate not built", name)
	}
	if _, err := g.run(c.Gold); err != nil {
		t.Fatalf("%s: gold does not execute: %v", name, err)
	}
	for _, p := range c.Perturbs {
		if !ContainsPhrase(c.Paraphrase, p.Trap.Phrase) {
			t.Errorf("%s: paraphrase %q lacks phrase %q", name, c.Paraphrase, p.Trap.Phrase)
		}
		if !ContainsPhrase(c.Question, p.Trap.Phrase) && !strings.Contains(
			schema.Normalize(c.Question), schema.Normalize(p.Trap.Phrase)) {
			t.Errorf("%s: question %q lacks phrase %q", name, c.Question, p.Trap.Phrase)
		}
	}
}

func TestTemplateConstructors(t *testing.T) {
	g := fullGen(t)
	singer := g.Schema.Table("singer")
	concert := g.Schema.Table("concert")
	name := *singer.Column("name")
	song := *singer.Column("song_name")
	country := *singer.Column("country")
	age := *singer.Column("age")
	venue := *concert.Column("venue")
	fk := concert.ForeignKeys[0]

	cases := []struct {
		name string
		c    *Candidate
	}{
		{"CountAll", g.CountAll(singer)},
		{"ListCol", g.ListCol(singer, name)},
		{"ListDistinct", g.ListDistinct(singer, country)},
		{"FilterEq", g.FilterEq(singer, name, country)},
		{"FilterTwo", g.FilterTwo(singer, name, country, song)},
		{"CountFilterCmp", g.CountFilterCmp(singer, age)},
		{"AggCol", g.AggCol(singer, age, "AVG")},
		{"Superlative", g.Superlative(singer, song, age, false)},
		{"OrderList", g.OrderList(singer, name, age, true)},
		{"GroupCount", g.GroupCount(singer, country)},
		{"Having", g.Having(singer, country, 2, 5)},
		{"JoinList", g.JoinList(concert, venue, singer, name, fk)},
		{"JoinFilter", g.JoinFilter(concert, venue, singer, country, fk)},
		{"InList", g.InList(singer, name, country)},
		{"LikePrefix", g.LikePrefix(singer, song, name)},
		{"CreatedIn", g.CreatedIn(singer, *singer.Column("joined_date"), "March", 2024, 2023)},
		{"NotIn", g.NotIn(singer, name, concert, fk)},
	}
	for _, tc := range cases {
		checkCandidate(t, g, tc.c, tc.name)
	}
}

func TestTemplatesRealizeWithEachPerturb(t *testing.T) {
	g := fullGen(t)
	singer := g.Schema.Table("singer")
	name := *singer.Column("name")
	country := *singer.Column("country")

	// For each trappable template, at least one perturbation must survive
	// Realize's verification across a few attempts.
	builders := map[string]func() *Candidate{
		"FilterEq":  func() *Candidate { return g.FilterEq(singer, name, country) },
		"InList":    func() *Candidate { return g.InList(singer, name, country) },
		"CountAll":  func() *Candidate { return g.CountAll(singer) },
		"GroupSize": func() *Candidate { return g.GroupCount(singer, country) },
	}
	for bname, build := range builders {
		realized := false
		for attempt := 0; attempt < 10 && !realized; attempt++ {
			c := build()
			if c == nil {
				continue
			}
			for pi := range c.Perturbs {
				if e := g.Realize(c, c.Perturbs[pi:pi+1]); e != nil {
					realized = true
					break
				}
			}
		}
		if !realized {
			t.Errorf("%s: no perturbation ever realizes", bname)
		}
	}
}

func TestWrongTablePairRequiresDistinctCounts(t *testing.T) {
	g := fullGen(t)
	singer := g.Schema.Table("singer")
	concert := g.Schema.Table("concert")
	c := g.WrongTablePair(singer, concert, "artists on the roster")
	checkCandidate(t, g, c, "WrongTablePair")
	e := g.Realize(c, c.Perturbs)
	// Tables are populated with different row counts, so the trap bites.
	if e == nil {
		t.Fatal("wrong-table pair failed to realize")
	}
	if e.Traps[0].Kind != WrongTable {
		t.Errorf("kind: %v", e.Traps[0].Kind)
	}
}
