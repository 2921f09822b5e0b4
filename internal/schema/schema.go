// Package schema models database schemas together with the natural-language
// vocabulary that maps user phrases onto schema elements.
//
// The NL annotations are what make the benchmarks interesting: the simulated
// NL2SQL model links question phrases to tables/columns through a Lexicon
// built from these annotations, and the closed-domain (Experience Platform)
// schemas deliberately contain jargon whose naive lexicon entry is wrong —
// the paper's central failure mode.
package schema

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Column is a table column plus its natural-language surface forms.
type Column struct {
	Name string
	Type string // SQL type name: INT, REAL, TEXT, BOOL, DATE
	// NL lists phrases users employ for this column ("name", "song name").
	// The first entry is the canonical phrase used when generating
	// questions.
	NL []string
}

// ForeignKey is a single-column reference to another table.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// Table is a relation plus its natural-language surface forms.
type Table struct {
	Name string
	// NL lists phrases users employ for this table; the first entry is
	// canonical ("singers", "audiences").
	NL          []string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return &t.Columns[i]
		}
	}
	return nil
}

// Phrase returns the canonical NL phrase for the table.
func (t *Table) Phrase() string {
	if len(t.NL) > 0 {
		return t.NL[0]
	}
	return t.Name
}

// Schema is one database's layout.
type Schema struct {
	Name   string
	Tables []Table
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	for i := range s.Tables {
		if strings.EqualFold(s.Tables[i].Name, name) {
			return &s.Tables[i]
		}
	}
	return nil
}

// DDL renders the schema as a CREATE TABLE script loadable by the engine.
func (s *Schema) DDL() string {
	var sb strings.Builder
	for _, t := range s.Tables {
		sb.WriteString("CREATE TABLE ")
		sb.WriteString(t.Name)
		sb.WriteString(" (")
		for i, c := range t.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name)
			sb.WriteByte(' ')
			sb.WriteString(c.Type)
		}
		if len(t.PrimaryKey) > 0 {
			sb.WriteString(", PRIMARY KEY (")
			sb.WriteString(strings.Join(t.PrimaryKey, ", "))
			sb.WriteString(")")
		}
		for _, fk := range t.ForeignKeys {
			fmt.Fprintf(&sb, ", FOREIGN KEY (%s) REFERENCES %s(%s)", fk.Column, fk.RefTable, fk.RefColumn)
		}
		sb.WriteString(");\n")
	}
	return sb.String()
}

// PromptText serializes the schema the way the NL2SQL prompt presents it
// (Figure 1 of the paper: full schema definitions).
func (s *Schema) PromptText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Database: %s\n", s.Name)
	for _, t := range s.Tables {
		fmt.Fprintf(&sb, "Table %s(", t.Name)
		for i, c := range t.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %s", c.Name, c.Type)
		}
		sb.WriteString(")")
		for _, fk := range t.ForeignKeys {
			fmt.Fprintf(&sb, " [%s -> %s.%s]", fk.Column, fk.RefTable, fk.RefColumn)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ----------------------------------------------------------------------------
// Lexicon

// Ref locates a schema element a phrase can resolve to.
type Ref struct {
	Table  string
	Column string // empty for table references
}

// String renders the reference.
func (r Ref) String() string {
	if r.Column == "" {
		return r.Table
	}
	return r.Table + "." + r.Column
}

// Lexicon maps normalized phrases to candidate schema elements. When a
// phrase is ambiguous, candidates are kept in priority order: the first is
// what a naive linker picks. Closed-domain traps are built by registering
// the *wrong* resolution first.
//
// Registration (Add) must happen-before any concurrent use; once
// built, a Lexicon is read-only and safe for concurrent resolution.
type Lexicon struct {
	entries map[string][]Ref
}

// NewLexicon builds a lexicon from the schema's NL annotations. Each table
// and column phrase maps to its element; phrases registered by multiple
// elements accumulate candidates in schema order. The humanized identifier
// itself (underscores as spaces) is always registered too, so feedback can
// name a column that lacks a curated phrase.
func NewLexicon(s *Schema) *Lexicon {
	lx := &Lexicon{entries: make(map[string][]Ref)}
	for _, t := range s.Tables {
		for _, p := range t.NL {
			lx.Add(p, Ref{Table: t.Name})
		}
		lx.Add(strings.ReplaceAll(t.Name, "_", " "), Ref{Table: t.Name})
		for _, c := range t.Columns {
			for _, p := range c.NL {
				lx.Add(p, Ref{Table: t.Name, Column: c.Name})
			}
			lx.Add(strings.ReplaceAll(c.Name, "_", " "), Ref{Table: t.Name, Column: c.Name})
		}
	}
	return lx
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts; every byte from utf8.RuneSelf up is false.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// IsASCIISpace reports whether b is an ASCII byte that unicode.IsSpace
// accepts. It is false for every byte >= utf8.RuneSelf, so a byte loop that
// uses it must treat those bytes separately.
func IsASCIISpace(b byte) bool { return asciiSpace[b] }

// Normalize lower-cases and collapses whitespace in a phrase: it returns
// strings.Join(strings.Fields(strings.ToLower(phrase)), " "). ASCII input
// takes a byte pass. While the input is already normalized it copies
// nothing, so normalized input comes back as itself (less one trailing
// space, as a substring); from the first byte that is not, it writes one
// allocation sized for the whole output. A byte >= utf8.RuneSelf takes the
// definition.
func Normalize(phrase string) string {
	i := 0
	for ; i < len(phrase); i++ {
		c := phrase[i]
		if c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' ||
			asciiSpace[c] && (c != ' ' || i == 0 || phrase[i-1] == ' ') {
			break
		}
	}
	sep := i > 0 && phrase[i-1] == ' ' // a word ended, so a space is owed before the next one
	kept := phrase[:i]
	if sep {
		kept = phrase[:i-1]
	}
	if i == len(phrase) {
		return kept
	}
	var sb strings.Builder
	sb.Grow(len(phrase))
	sb.WriteString(kept)
	for ; i < len(phrase); i++ {
		c := phrase[i]
		switch {
		case c >= utf8.RuneSelf:
			return strings.Join(strings.Fields(strings.ToLower(phrase)), " ")
		case asciiSpace[c]:
			sep = sb.Len() > 0
			continue
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		if sep {
			sb.WriteByte(' ')
			sep = false
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// Add registers one candidate for a phrase (appended after existing ones).
func (lx *Lexicon) Add(phrase string, ref Ref) {
	key := Normalize(phrase)
	lx.entries[key] = append(lx.entries[key], ref)
}

// Resolve returns the naive (first) resolution for a phrase.
func (lx *Lexicon) Resolve(phrase string) (Ref, bool) {
	refs := lx.entries[Normalize(phrase)]
	if len(refs) == 0 {
		return Ref{}, false
	}
	return refs[0], true
}

// Candidates returns all resolutions for a phrase, naive first.
func (lx *Lexicon) Candidates(phrase string) []Ref {
	return lx.entries[Normalize(phrase)]
}

// Phrases returns all registered phrases, sorted (for deterministic tests
// and debugging).
func (lx *Lexicon) Phrases() []string {
	out := make([]string, 0, len(lx.entries))
	for p := range lx.entries {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ResolveColumn finds the best column match for a free-text phrase: exact
// phrase lookup first, then token-overlap against all column phrases. Used
// by the feedback repair engine to ground "do not give descriptions" onto a
// projection column.
func (lx *Lexicon) ResolveColumn(phrase string) (Ref, bool) {
	if ref, ok := lx.Resolve(phrase); ok && ref.Column != "" {
		return ref, true
	}
	want := tokenSet(phrase)
	bestScore := 0.0
	var best Ref
	for p, refs := range lx.entries {
		ref := refs[0]
		if ref.Column == "" {
			continue
		}
		score := overlap(want, tokenSet(p))
		if score > bestScore {
			bestScore = score
			best = ref
		}
	}
	if bestScore == 0 {
		return Ref{}, false
	}
	return best, true
}

// ResolveTable finds the best table match for a free-text phrase: exact
// phrase lookup first (preferring table entries), then token-overlap
// against all table phrases.
func (lx *Lexicon) ResolveTable(phrase string) (Ref, bool) {
	for _, ref := range lx.Candidates(phrase) {
		if ref.Column == "" {
			return ref, true
		}
	}
	want := tokenSet(phrase)
	bestScore := 0.0
	var best Ref
	for p, refs := range lx.entries {
		for _, ref := range refs {
			if ref.Column != "" {
				continue
			}
			score := overlap(want, tokenSet(p))
			if score > bestScore {
				bestScore = score
				best = ref
			}
		}
	}
	if bestScore == 0 {
		return Ref{}, false
	}
	return best, true
}

func tokenSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, w := range strings.Fields(Normalize(s)) {
		out[singular(w)] = true
	}
	return out
}

// singular strips a plural 's' so "descriptions" matches "description".
func singular(w string) string {
	if len(w) > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") {
		return w[:len(w)-1]
	}
	return w
}

func overlap(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	n := 0
	for w := range a {
		if b[w] {
			n++
		}
	}
	return float64(n) / float64(len(a)+len(b)-n)
}
