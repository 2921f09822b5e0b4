package dataset

import (
	"slices"
	"strings"
	"testing"

	"fisql/internal/schema"
)

// miniAssemble builds a small corpus over the test schema with every slot
// kind exercised, covering the assembler in-package.
func miniAssemble(t *testing.T, q Quotas) *Dataset {
	t.Helper()
	ds := New("mini")
	rng := newRng()
	g, err := NewGen(ds, childSchema(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Populate(30); err != nil {
		t.Fatal(err)
	}
	singer := g.Schema.Table("singer")
	concert := g.Schema.Table("concert")
	var candidates []*Candidate
	add := func(c *Candidate) {
		if c != nil {
			candidates = append(candidates, c)
		}
	}
	name := *singer.Column("name")
	song := *singer.Column("song_name")
	country := *singer.Column("country")
	age := *singer.Column("age")
	date := *singer.Column("joined_date")
	venue := *concert.Column("venue")
	att := *concert.Column("attendance")

	add(g.CountAll(singer))
	add(g.CountAll(concert))
	for _, proj := range []schema.Column{name, song} {
		for _, filter := range []schema.Column{country, song, name} {
			if proj.Name == filter.Name {
				continue
			}
			add(g.FilterEq(singer, proj, filter))
		}
	}
	add(g.ListCol(singer, name))
	add(g.ListCol(concert, venue))
	add(g.ListDistinct(singer, country))
	add(g.CountFilterCmp(singer, age))
	add(g.CountFilterCmp(concert, att))
	add(g.AggCol(singer, age, "AVG"))
	add(g.AggCol(concert, att, "MAX"))
	add(g.Superlative(singer, song, age, true))
	add(g.OrderList(singer, name, age, false))
	add(g.GroupCount(singer, country))
	add(g.Having(singer, country, 2, 5))
	add(g.FilterTwo(singer, name, country, song))
	add(g.InList(singer, name, country))
	add(g.LikePrefix(singer, song, name))
	for _, m := range Months()[:6] {
		add(g.CreatedIn(singer, date, m, 2024, 2023))
	}
	add(g.NotIn(singer, name, concert, concert.ForeignKeys[0]))

	asm := &Assembler{DS: ds, Gens: map[string]*Gen{g.Schema.Name: g}, Rng: rng}
	if err := asm.Assemble(candidates, q); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAssembleMiniCorpus(t *testing.T) {
	q := Quotas{
		Total:             20,
		Covered:           3,
		TwoTrap:           1,
		TwoTrapGood:       1,
		SingleGood:        3,
		GoodAmbiguous:     1,
		GoodRewrite:       1,
		GroundingHard:     1,
		Misaligned:        1,
		Vague:             1,
		Unannotated:       1,
		GenericDemosPerDB: 2,
	}
	ds := miniAssemble(t, q)
	if len(ds.Examples) != 20 {
		t.Fatalf("examples: %d", len(ds.Examples))
	}
	if got := len(ds.Errors()); got != q.Trapped() {
		t.Errorf("trapped: %d, want %d", got, q.Trapped())
	}

	var covered, twoTrap, ambiguous, rewrite, gh, misaligned, vague, unannotated int
	for _, e := range ds.Errors() {
		if len(e.Traps) == 2 {
			twoTrap++
			continue
		}
		tr := e.Traps[0]
		switch {
		case tr.DemoCovered:
			covered++
		case tr.AmbiguousOp:
			ambiguous++
		case tr.RewriteFixable:
			rewrite++
		case tr.GroundingHard:
			gh++
		case tr.Misaligned:
			misaligned++
			if tr.DecoyColumn == "" || tr.DecoyValue == "" {
				t.Error("misaligned trap lacks a decoy")
			}
		case tr.Vague:
			vague++
		case !e.Annotatable:
			unannotated++
		}
	}
	if covered != 3 || twoTrap != 1 || ambiguous != 1 || rewrite != 1 ||
		gh != 1 || misaligned != 1 || vague != 1 || unannotated != 1 {
		t.Errorf("slots: covered=%d twoTrap=%d amb=%d rw=%d gh=%d mis=%d vague=%d unann=%d",
			covered, twoTrap, ambiguous, rewrite, gh, misaligned, vague, unannotated)
	}

	// Demo pool: covering demos plus generic demos, none leaking uncovered
	// phrases.
	if len(ds.Demos) < 3 {
		t.Errorf("demo pool too small: %d", len(ds.Demos))
	}
	for _, e := range ds.Errors() {
		for _, tr := range e.Traps {
			if tr.DemoCovered {
				continue
			}
			for _, d := range ds.Demos {
				if ContainsPhrase(d.Question, tr.Phrase) {
					t.Fatalf("demo %q leaks %q", d.Question, tr.Phrase)
				}
			}
		}
	}
}

func TestAssembleFailsWhenQuotaUnfillable(t *testing.T) {
	// Demand more grounding-hard examples than FilterTwo candidates exist.
	q := Quotas{Total: 5, GroundingHard: 4}
	ds := New("mini2")
	g, err := NewGen(ds, testSchema(), newRng())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Populate(20); err != nil {
		t.Fatal(err)
	}
	singer := g.Schema.Table("singer")
	candidates := []*Candidate{
		g.CountAll(singer),
		g.FilterTwo(singer, *singer.Column("name"), *singer.Column("country"), *singer.Column("song_name")),
	}
	asm := &Assembler{DS: ds, Gens: map[string]*Gen{g.Schema.Name: g}, Rng: newRng()}
	if err := asm.Assemble(candidates, q); err == nil {
		t.Fatal("unfillable quota must error")
	}
}

func TestAssembleFailsWhenTooFewCandidates(t *testing.T) {
	ds := New("mini3")
	g, err := NewGen(ds, testSchema(), newRng())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Populate(20); err != nil {
		t.Fatal(err)
	}
	candidates := []*Candidate{g.CountAll(g.Schema.Table("singer"))}
	asm := &Assembler{DS: ds, Gens: map[string]*Gen{g.Schema.Name: g}, Rng: newRng()}
	if err := asm.Assemble(candidates, Quotas{Total: 10}); err == nil {
		t.Fatal("too few candidates must error")
	}
}

// TestUncoveredPhrasesMatchContainsPhrase pins the once-normalized phrase
// check of Assemble's conflict passes to ContainsPhrase, including both
// empty cases: a raw empty phrase never matches, and a blank one (which
// normalizes to "") matches every question.
func TestUncoveredPhrasesMatchContainsPhrase(t *testing.T) {
	phrases := []string{"", "   ", "Song Name", "song  name", "how many", "É", "x\ty"}
	questions := []string{"", " ", "List the SONG   name", "How many singers?", "é or É", "x y", "nothing"}
	for _, p := range phrases {
		ds := New("phrases")
		ds.AddExample(&Example{Question: "q", Traps: []Trap{{Phrase: p}, {Phrase: "covered", DemoCovered: true}}})
		uncovered := (&Assembler{DS: ds}).uncoveredPhrases()
		for _, q := range questions {
			norm := schema.Normalize(q)
			got := slices.ContainsFunc(uncovered, func(u string) bool { return strings.Contains(norm, u) })
			if want := ContainsPhrase(q, p); got != want {
				t.Errorf("phrase %q, question %q: once-normalized check %t, ContainsPhrase %t", p, q, got, want)
			}
		}
	}
}
