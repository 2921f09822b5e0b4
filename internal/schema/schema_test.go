package schema

import (
	"strings"
	"testing"
)

func sample() *Schema {
	return &Schema{
		Name: "concert_singer",
		Tables: []Table{
			{
				Name: "singer", NL: []string{"singers"},
				PrimaryKey: []string{"singer_id"},
				Columns: []Column{
					{Name: "singer_id", Type: "INT"},
					{Name: "name", Type: "TEXT", NL: []string{"name"}},
					{Name: "song_name", Type: "TEXT", NL: []string{"song name"}},
					{Name: "age", Type: "INT", NL: []string{"age"}},
				},
			},
			{
				Name: "concert", NL: []string{"concerts"},
				ForeignKeys: []ForeignKey{{Column: "singer_id", RefTable: "singer", RefColumn: "singer_id"}},
				Columns: []Column{
					{Name: "concert_id", Type: "INT"},
					{Name: "singer_id", Type: "INT"},
					{Name: "year", Type: "INT", NL: []string{"year"}},
				},
			},
		},
	}
}

func TestDDL(t *testing.T) {
	ddl := sample().DDL()
	for _, want := range []string{
		"CREATE TABLE singer (singer_id INT, name TEXT, song_name TEXT, age INT, PRIMARY KEY (singer_id));",
		"FOREIGN KEY (singer_id) REFERENCES singer(singer_id)",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}

func TestPromptText(t *testing.T) {
	pt := sample().PromptText()
	if !strings.Contains(pt, "Database: concert_singer") {
		t.Error("prompt text missing database header")
	}
	if !strings.Contains(pt, "Table singer(singer_id INT, name TEXT, song_name TEXT, age INT)") {
		t.Errorf("prompt text missing table line:\n%s", pt)
	}
	if !strings.Contains(pt, "[singer_id -> singer.singer_id]") {
		t.Error("prompt text missing FK annotation")
	}
}

func TestTableLookup(t *testing.T) {
	s := sample()
	if s.Table("SINGER") == nil {
		t.Error("table lookup should be case-insensitive")
	}
	if s.Table("nope") != nil {
		t.Error("unknown table should be nil")
	}
	tab := s.Table("singer")
	if tab.Column("NAME") == nil {
		t.Error("column lookup should be case-insensitive")
	}
	if tab.Column("nope") != nil {
		t.Error("unknown column should be nil")
	}
	if tab.Phrase() != "singers" {
		t.Errorf("phrase: %q", tab.Phrase())
	}
}

func TestLexiconResolve(t *testing.T) {
	lx := NewLexicon(sample())
	ref, ok := lx.Resolve("song name")
	if !ok || ref.Column != "song_name" {
		t.Errorf("song name -> %v, %v", ref, ok)
	}
	ref, ok = lx.Resolve("singers")
	if !ok || ref.Table != "singer" || ref.Column != "" {
		t.Errorf("singers -> %v, %v", ref, ok)
	}
	if _, ok := lx.Resolve("nonexistent thing"); ok {
		t.Error("unknown phrase should not resolve")
	}
}

func TestLexiconHumanizedNames(t *testing.T) {
	lx := NewLexicon(sample())
	// song_name has no "song_name" NL phrase, but the humanized identifier
	// is registered automatically.
	ref, ok := lx.ResolveColumn("song name")
	if !ok || ref.Column != "song_name" {
		t.Errorf("humanized: %v, %v", ref, ok)
	}
	ref, ok = lx.ResolveColumn("singer id")
	if !ok || ref.Column != "singer_id" {
		t.Errorf("singer id: %v, %v", ref, ok)
	}
}

func TestLexiconAmbiguityOrder(t *testing.T) {
	lx := NewLexicon(sample())
	// Plant an ambiguous jargon entry ahead of the real one.
	lx.AddFirst("name", Ref{Table: "singer", Column: "song_name"})
	ref, _ := lx.Resolve("name")
	if ref.Column != "song_name" {
		t.Errorf("AddFirst should win: %v", ref)
	}
	if !lx.Ambiguous("name") {
		t.Error("name should be ambiguous now")
	}
	cands := lx.Candidates("name")
	if len(cands) < 2 || cands[0].Column != "song_name" {
		t.Errorf("candidates: %v", cands)
	}
}

func TestResolveColumnFuzzy(t *testing.T) {
	lx := NewLexicon(sample())
	ref, ok := lx.ResolveColumn("the song names")
	if !ok || ref.Column != "song_name" {
		t.Errorf("fuzzy resolve: %v, %v", ref, ok)
	}
	if _, ok := lx.ResolveColumn("zzz qqq"); ok {
		t.Error("garbage should not resolve")
	}
}

func TestResolveTable(t *testing.T) {
	lx := NewLexicon(sample())
	ref, ok := lx.ResolveTable("concerts")
	if !ok || ref.Table != "concert" {
		t.Errorf("concerts: %v, %v", ref, ok)
	}
	// A column phrase must not resolve as a table.
	if ref, ok := lx.ResolveTable("age"); ok && ref.Table == "singer" && ref.Column == "" {
		// fuzzy match may land on something; just require it is a table ref
		if ref.Column != "" {
			t.Errorf("ResolveTable returned a column: %v", ref)
		}
	}
}

func TestNormalize(t *testing.T) {
	if Normalize("  Song   NAME ") != "song name" {
		t.Errorf("got %q", Normalize("  Song   NAME "))
	}
}

func TestPhrasesSorted(t *testing.T) {
	lx := NewLexicon(sample())
	ps := lx.Phrases()
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			t.Fatalf("phrases not sorted at %d: %q < %q", i, ps[i], ps[i-1])
		}
	}
}

func TestRefString(t *testing.T) {
	if (Ref{Table: "t"}).String() != "t" {
		t.Error("table ref string")
	}
	if (Ref{Table: "t", Column: "c"}).String() != "t.c" {
		t.Error("column ref string")
	}
}

// AddFirst registers a candidate ahead of existing ones, making it the naive
// resolution.
func (lx *Lexicon) AddFirst(phrase string, ref Ref) {
	key := Normalize(phrase)
	lx.entries[key] = append([]Ref{ref}, lx.entries[key]...)
}

// Ambiguous reports whether a phrase has multiple distinct resolutions.
func (lx *Lexicon) Ambiguous(phrase string) bool {
	return len(lx.entries[Normalize(phrase)]) > 1
}
