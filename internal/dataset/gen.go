package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"fisql/internal/engine"
	"fisql/internal/schema"
	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// Gen carries the state shared by one database's example generation.
type Gen struct {
	DS     *Dataset
	Schema *schema.Schema
	DB     *engine.Database
	Ex     *engine.Executor
	Rng    *rand.Rand
}

// NewGen prepares a generator for one schema: registers it with the dataset
// and returns the generator (the database is still empty).
func NewGen(ds *Dataset, s *schema.Schema, rng *rand.Rand) (*Gen, error) {
	db, err := ds.AddSchema(s)
	if err != nil {
		return nil, err
	}
	return &Gen{DS: ds, Schema: s, DB: db, Ex: engine.NewExecutor(db), Rng: rng}, nil
}

// ----------------------------------------------------------------------------
// Data population

// Populate fills every table in the schema with roughly n rows of plausible
// data (the exact count varies per table so that row-count statistics
// distinguish tables). Values derive from column names. Foreign keys sample
// from the parent table's rows, so population follows schema order (parents
// must precede children).
func (g *Gen) Populate(n int) error {
	for ti := range g.Schema.Tables {
		st := &g.Schema.Tables[ti]
		t, ok := g.DB.Table(st.Name)
		if !ok {
			return fmt.Errorf("table %s missing from database", st.Name)
		}
		rows := n/2 + 1 + g.Rng.Intn(n)
		for r := 0; r < rows; r++ {
			row := make([]engine.Value, len(st.Columns))
			for ci, c := range st.Columns {
				v, err := g.columnValue(st, c, r)
				if err != nil {
					return err
				}
				row[ci] = v
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return nil
}

// ScaleRows grows every populated table to mult times its current row count
// by appending freshly generated rows, for benchmarking the engine on much
// larger databases than the examples need. It runs strictly after the base
// population (and example generation) so the 1x corpus stays byte-identical:
// scaling only appends. Primary keys continue the existing sequence and
// foreign keys sample the parent's already-scaled rows, so population order
// (parents before children) still holds referential integrity. Generation is
// deterministic for a fixed Rng seed and multiplier.
func (g *Gen) ScaleRows(mult int) error {
	if mult <= 1 {
		return nil
	}
	for ti := range g.Schema.Tables {
		st := &g.Schema.Tables[ti]
		t, ok := g.DB.Table(st.Name)
		if !ok {
			return fmt.Errorf("table %s missing from database", st.Name)
		}
		base := len(t.Rows)
		for r := base; r < base*mult; r++ {
			row := make([]engine.Value, len(st.Columns))
			for ci, c := range st.Columns {
				v, err := g.columnValue(st, c, r)
				if err != nil {
					return err
				}
				row[ci] = v
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return nil
}

func (g *Gen) columnValue(t *schema.Table, c schema.Column, rowIdx int) (engine.Value, error) {
	name := strings.ToLower(c.Name)
	// Primary-key ids are sequential; foreign keys sample the parent.
	if len(t.PrimaryKey) == 1 && strings.EqualFold(t.PrimaryKey[0], c.Name) {
		return engine.Int(int64(rowIdx + 1)), nil
	}
	for _, fk := range t.ForeignKeys {
		if strings.EqualFold(fk.Column, c.Name) {
			parent, ok := g.DB.Table(fk.RefTable)
			if !ok || len(parent.Rows) == 0 {
				return engine.Null(), nil
			}
			pi := parent.ColumnIndex(fk.RefColumn)
			if pi < 0 {
				return engine.Null(), nil
			}
			return parent.Rows[g.Rng.Intn(len(parent.Rows))][pi], nil
		}
	}
	typ := engine.TypeFromSQL(c.Type)
	pick := func(pool []string) engine.Value { return engine.Text(pool[g.Rng.Intn(len(pool))]) }
	switch {
	case strings.Contains(name, "email"):
		return engine.Text(strings.ToLower(firstNames[g.Rng.Intn(len(firstNames))]) + "@example.com"), nil
	case strings.Contains(name, "country"):
		return pick(countries), nil
	case strings.Contains(name, "city") || strings.Contains(name, "location"):
		return pick(cities), nil
	case strings.Contains(name, "theme"):
		return pick(themes), nil
	case strings.Contains(name, "genre") || strings.Contains(name, "category") || strings.Contains(name, "type"):
		return pick(genres), nil
	case strings.Contains(name, "status") || strings.Contains(name, "state"):
		return pick(statuses), nil
	case strings.Contains(name, "month"):
		return pick(months), nil
	case strings.Contains(name, "time") || strings.Contains(name, "date"):
		// ISO dates across 2022-2024 so month/year filters bite.
		y := 2022 + g.Rng.Intn(3)
		m := 1 + g.Rng.Intn(12)
		d := 1 + g.Rng.Intn(28)
		return engine.Text(fmt.Sprintf("%04d-%02d-%02d", y, m, d)), nil
	case strings.Contains(name, "year"):
		y := 1990 + g.Rng.Intn(35)
		if typ == engine.TypeInt {
			return engine.Int(int64(y)), nil
		}
		return engine.Text(fmt.Sprintf("%d", y)), nil
	case strings.Contains(name, "age"):
		return engine.Int(int64(18 + g.Rng.Intn(60))), nil
	case strings.Contains(name, "name") || strings.Contains(name, "title"):
		if typ == engine.TypeText {
			return engine.Text(firstNames[g.Rng.Intn(len(firstNames))] + " " + lastNames[g.Rng.Intn(len(lastNames))]), nil
		}
	case strings.Contains(name, "description") || strings.Contains(name, "song"):
		return pick(wordPool), nil
	}
	switch typ {
	case engine.TypeInt:
		return engine.Int(int64(1 + g.Rng.Intn(10000))), nil
	case engine.TypeFloat:
		return engine.Float(float64(g.Rng.Intn(100000)) / 100.0), nil
	case engine.TypeBool:
		return engine.Bool(g.Rng.Intn(2) == 0), nil
	default:
		return pick(wordPool), nil
	}
}

// SampleValue returns a value present in the named column's data, as SQL
// literal text, plus its engine value. Returns ok=false for empty tables.
func (g *Gen) SampleValue(table, column string) (text string, v engine.Value, ok bool) {
	t, found := g.DB.Table(table)
	if !found || len(t.Rows) == 0 {
		return "", engine.Value{}, false
	}
	ci := t.ColumnIndex(column)
	if ci < 0 {
		return "", engine.Value{}, false
	}
	v = t.Rows[g.Rng.Intn(len(t.Rows))][ci]
	if v.IsNull() {
		return "", engine.Value{}, false
	}
	return v.String(), v, true
}

// ----------------------------------------------------------------------------
// Candidates and perturbations

// Perturb describes one way to plant a trap in a candidate's gold query.
type Perturb struct {
	Trap  Trap
	Apply func(*sqlast.SelectStmt)
}

// Hint tags candidates that only specific quota slots may consume.
type Hint int

// Candidate hints.
const (
	// HintNone marks ordinary candidates.
	HintNone Hint = iota
	// HintGroundingHard marks candidates built for grounding-hard traps
	// (two plausible edit sites, e.g. the FilterTwo template).
	HintGroundingHard
)

// Candidate is a generated example before trap assignment.
type Candidate struct {
	DB       string
	Question string
	Gold     *sqlast.SelectStmt
	Perturbs []Perturb
	// Paraphrase is an alternative phrasing of the question used to build
	// covering demonstrations (it contains the same trap phrases).
	Paraphrase string
	Hint       Hint
}

// run executes sel on the planned path the product serves from, so a trap
// is verified by the same engine that will execute it.
func (g *Gen) run(sel *sqlast.SelectStmt) (*engine.Result, error) {
	return g.Ex.Run(engine.PlanSelect(g.DB, sel))
}

// differs reports whether wrong runs and its result differs from gold's —
// the soundness condition for a planted trap.
func (g *Gen) differs(gold *engine.Result, wrong *sqlast.SelectStmt) bool {
	rw, err := g.run(wrong)
	return err == nil && !engine.EqualResults(gold, rw)
}

// Realize turns a candidate plus a chosen set of perturbations into an
// Example, verifying every variant executes and differs from gold. Returns
// nil if verification fails (the caller then tries other perturbations or
// leaves the candidate untrapped).
func (g *Gen) Realize(c *Candidate, chosen []Perturb) *Example {
	gold, err := g.run(c.Gold)
	if err != nil {
		return nil
	}
	e := &Example{
		DB:       c.DB,
		Question: c.Question,
		Gold:     sqlast.Print(c.Gold),
	}
	for _, p := range chosen {
		e.Traps = append(e.Traps, p.Trap)
	}
	if len(chosen) > 0 {
		e.Variants = make(map[uint8]string)
		full := uint8(1<<len(chosen)) - 1
		for mask := uint8(1); mask <= full; mask++ {
			wrong := sqlast.CloneSelect(c.Gold)
			for i, p := range chosen {
				if mask&(1<<i) != 0 {
					p.Apply(wrong)
				}
			}
			if !g.differs(gold, wrong) {
				return nil
			}
			e.Variants[mask] = sqlast.Print(wrong)
		}
		// The example's gold must also be verifiably *fixed* per trap, so
		// the annotator's structural FixedIn checks agree with reality.
		goldSel := sqlast.CloneSelect(c.Gold)
		for i := range chosen {
			if !e.FixedIn(i, goldSel) {
				return nil
			}
		}
		// And every trap must be detectably unfixed in the full variant.
		if wrongSel := mustParse(e.Variants[full]); wrongSel != nil {
			for i := range chosen {
				if e.FixedIn(i, wrongSel) {
					return nil
				}
			}
		}
	}
	return e
}

func mustParse(sql string) *sqlast.SelectStmt {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil
	}
	return sel
}

// ----------------------------------------------------------------------------
// Demonstration helpers

// CoverDemo builds a demonstration that disambiguates the given example's
// traps: its question is the candidate's paraphrase (sharing the trap
// phrases) and its SQL is the gold query.
func CoverDemo(e *Example, paraphrase string) Demo {
	var phrases []string
	for _, t := range e.Traps {
		phrases = append(phrases, t.Phrase)
	}
	return Demo{DB: e.DB, Question: paraphrase, SQL: e.Gold, Phrases: phrases}
}

// ContainsPhrase reports whether the normalized haystack contains the
// normalized phrase. This is the single definition of "a demonstration
// covers a trap" used by both dataset construction and the simulated model,
// so the two can never disagree.
func ContainsPhrase(haystack, phrase string) bool {
	if phrase == "" {
		return false
	}
	return strings.Contains(schema.Normalize(haystack), schema.Normalize(phrase))
}
