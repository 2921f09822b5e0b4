// Package nl2sql implements the SQL-side model behaviour: the rule-based
// feedback repair engine (how the simulated model edits a query given
// natural-language feedback, an inferred or routed operation type, and an
// optional highlight), plus a small heuristic generator used as a fallback
// for questions outside the benchmark corpora.
package nl2sql

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"fisql/internal/dataset"
	"fisql/internal/feedback"
	"fisql/internal/schema"
	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// Repairer applies feedback edits to SQL queries, grounding user phrases
// through the schema lexicon.
type Repairer struct {
	Lex *schema.Lexicon
}

// Repair edits prevSQL according to the feedback text, treating it as the
// given operation type. It returns the (possibly unchanged) SQL and whether
// an edit was applied. The highlight, when present, grounds ambiguous edits
// to a span of the displayed SQL.
func (r *Repairer) Repair(prevSQL, fbText string, op dataset.Op, hl *feedback.Highlight) (string, bool) {
	sel, err := sqlparse.ParseSelect(prevSQL)
	if err != nil {
		return prevSQL, false
	}
	// Pattern-match on a lower-cased copy but slice captured groups out of
	// the original text, so values keep the user's casing ('Priya', not
	// 'priya'). Lowering must be ASCII-only: Unicode case mapping can
	// change byte lengths and would misalign the capture offsets.
	orig := strings.TrimRight(strings.TrimSpace(fbText), ".!?")
	text := &fbMatch{lower: asciiLower(orig), orig: orig}
	changed := false
	switch op {
	case dataset.OpEdit:
		changed = r.applyEdit(sel, text, hl)
	case dataset.OpAdd:
		changed = r.applyAdd(sel, text)
	case dataset.OpRemove:
		changed = r.applyRemove(sel, text)
	}
	if !changed {
		return prevSQL, false
	}
	return sqlast.Print(sel), true
}

// ----------------------------------------------------------------------------
// Edit

// asciiLower lowercases A-Z only, guaranteeing len(out) == len(s) so byte
// offsets remain valid in the original string.
func asciiLower(s string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			if b == nil {
				b = []byte(s)
			}
			b[i] = c + 'a' - 'A'
		}
	}
	if b == nil {
		return s
	}
	return string(b)
}

// fbMatch pairs the lower-cased feedback (for matching) with the original
// (for case-preserving extraction). Both strings are always the same byte
// length.
type fbMatch struct {
	lower, orig string
}

// pattern is a feedback regex with the literals every match of it
// contains. Each entry of lits lists alternatives separated by '|', one of
// which a match holds; text that lacks every alternative of some entry
// cannot match, so the regex is not run on it.
type pattern struct {
	re   *regexp.Regexp
	lits [][]string
}

func newPattern(expr string, lits ...string) *pattern {
	p := &pattern{re: regexp.MustCompile(expr)}
	for _, l := range lits {
		p.lits = append(p.lits, strings.Split(l, "|"))
	}
	return p
}

// admits reports whether text holds one alternative of every literal
// entry: false means the regex cannot match text.
func (p *pattern) admits(text string) bool {
	for _, alts := range p.lits {
		found := false
		for _, a := range alts {
			if strings.Contains(text, a) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// groups runs the pattern against the lower-cased text and returns the
// capture groups sliced from the original text; nil when it does not match.
func (m *fbMatch) groups(p *pattern) []string {
	if !p.admits(m.lower) {
		return nil
	}
	return m.submatches(p.re)
}

// submatches is groups without the literal gate.
func (m *fbMatch) submatches(re *regexp.Regexp) []string {
	idx := re.FindStringSubmatchIndex(m.lower)
	if idx == nil {
		return nil
	}
	out := make([]string, 0, len(idx)/2)
	for i := 0; i < len(idx); i += 2 {
		if idx[i] < 0 {
			out = append(out, "")
			continue
		}
		out = append(out, m.orig[idx[i]:idx[i+1]])
	}
	return out
}

func (m *fbMatch) contains(p *pattern) bool { return p.admits(m.lower) && p.re.MatchString(m.lower) }

var (
	reYear        = newPattern(`(?:we are in|change the year to|the year should be)\s+(\d{4})`, "we are in|change the year to|the year should be")
	reInsteadOf   = newPattern(`the ([a-z0-9_ ]+?) instead of the ([a-z0-9_ ]+)$`, " instead of the ")
	reWantedNot   = newPattern(`i wanted the ([a-z]+), not the ([a-z]+)$`, "i wanted the ", ", not the ")
	reMeantNot    = newPattern(`i meant the ([a-z0-9_ ]+?), not the ([a-z0-9_ ]+)$`, "i meant the ", ", not the ")
	reShouldBeNot = newPattern(`^the (.+?) should be (.+?), not (.+)$`, " should be ", ", not ")
	reColShouldBe = newPattern(`^the (.+?) should be (.+)$`, " should be ")
	reValShouldBe = newPattern(`^the value should be (.+)$`, "the value should be ")
)

func (r *Repairer) applyEdit(sel *sqlast.SelectStmt, text *fbMatch, hl *feedback.Highlight) bool {
	if m := text.groups(reYear); m != nil {
		return setYear(sel, m[1])
	}
	if m := text.groups(reInsteadOf); m != nil {
		return r.swapColumn(sel, m[2], m[1])
	}
	if m := text.groups(reWantedNot); m != nil {
		return swapAggregate(sel, strings.ToLower(m[2]), strings.ToLower(m[1]))
	}
	if m := text.groups(reMeantNot); m != nil {
		return r.swapTable(sel, m[2], m[1])
	}
	// "the value should be X" (no column named) must be tried before the
	// general column patterns, which would otherwise swallow it.
	if m := text.groups(reValShouldBe); m != nil {
		return setSomeComparisonValue(sel, parseValue(m[1]), hl)
	}
	// "the X should be A, not B" carries the wrong value too, so the
	// literal can be located anywhere (comparison, IN list, LIKE pattern).
	if m := text.groups(reShouldBeNot); m != nil {
		if replaceLiteral(sel, parseValue(m[3]), parseValue(m[2])) {
			return true
		}
		if ref, ok := r.Lex.ResolveColumn(m[1]); ok {
			return setComparisonValue(sel, ref.Column, parseValue(m[2]))
		}
		return false
	}
	if m := text.groups(reColShouldBe); m != nil {
		if ref, ok := r.Lex.ResolveColumn(m[1]); ok {
			return setComparisonValue(sel, ref.Column, parseValue(m[2]))
		}
		return false
	}
	return false
}

// replaceLiteral swaps every literal whose text equals old for new,
// anywhere in the statement. Returns whether anything changed.
func replaceLiteral(sel *sqlast.SelectStmt, old, new value) bool {
	changed := false
	sqlast.WalkSelect(sel, func(e sqlast.Expr) bool {
		if lit, ok := e.(*sqlast.Literal); ok && lit.Text == old.text {
			lit.Text = new.text
			changed = true
		}
		return true
	})
	return changed
}

// setYear shifts the years of the query's ISO-date literals so that the
// earliest one becomes the stated year — the repair a competent model
// performs for "we are in 2024". Shifting (rather than overwriting) keeps
// ranges that straddle a year boundary intact: a December window
// ['2023-12-01','2024-01-01') becomes ['2024-12-01','2025-01-01').
func setYear(sel *sqlast.SelectStmt, year string) bool {
	target, err := strconv.Atoi(year)
	if err != nil {
		return false
	}
	minYear := 0
	sqlast.WalkSelect(sel, func(e sqlast.Expr) bool {
		if lit, ok := e.(*sqlast.Literal); ok && lit.Kind == sqlast.LitString && isISODate(lit.Text) {
			y, _ := strconv.Atoi(lit.Text[:4])
			if minYear == 0 || y < minYear {
				minYear = y
			}
		}
		return true
	})
	if minYear == 0 || minYear == target {
		return false
	}
	delta := target - minYear
	changed := false
	sqlast.WalkSelect(sel, func(e sqlast.Expr) bool {
		if lit, ok := e.(*sqlast.Literal); ok && lit.Kind == sqlast.LitString && isISODate(lit.Text) {
			y, _ := strconv.Atoi(lit.Text[:4])
			lit.Text = fmt.Sprintf("%04d%s", y+delta, lit.Text[4:])
			changed = true
		}
		return true
	})
	return changed
}

func isISODate(s string) bool {
	if len(s) < 10 {
		return false
	}
	for i, r := range s[:10] {
		switch i {
		case 4, 7:
			if r != '-' {
				return false
			}
		default:
			if r < '0' || r > '9' {
				return false
			}
		}
	}
	return true
}

// swapColumn replaces references to the old column with the new one in the
// SELECT list.
func (r *Repairer) swapColumn(sel *sqlast.SelectStmt, oldPhrase, newPhrase string) bool {
	oldRef, ok1 := r.Lex.ResolveColumn(oldPhrase)
	newRef, ok2 := r.Lex.ResolveColumn(newPhrase)
	if !ok1 || !ok2 || strings.EqualFold(oldRef.Column, newRef.Column) {
		return false
	}
	changed := false
	for _, it := range sel.Items {
		sqlast.Walk(it.Expr, func(e sqlast.Expr) bool {
			if cr, ok := e.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Column, oldRef.Column) {
				cr.Column = newRef.Column
				changed = true
			}
			return true
		})
	}
	return changed
}

var aggByWord = map[string]string{
	"count": "COUNT", "total": "SUM", "sum": "SUM", "average": "AVG",
	"mean": "AVG", "minimum": "MIN", "lowest": "MIN", "smallest": "MIN",
	"maximum": "MAX", "highest": "MAX", "largest": "MAX",
}

// swapAggregate replaces the old aggregate function with the new one
// throughout the query (including scalar subqueries).
func swapAggregate(sel *sqlast.SelectStmt, oldWord, newWord string) bool {
	oldAgg, ok1 := aggByWord[oldWord]
	newAgg, ok2 := aggByWord[newWord]
	if !ok1 || !ok2 || oldAgg == newAgg {
		return false
	}
	changed := false
	sqlast.WalkSelect(sel, func(e sqlast.Expr) bool {
		if fc, ok := e.(*sqlast.FuncCall); ok && fc.Name == oldAgg {
			// COUNT(*) cannot become SUM(*); move the star onto the first
			// argument-free form only when a concrete column exists.
			if fc.Star && newAgg != "COUNT" {
				return true
			}
			fc.Name = newAgg
			changed = true
		}
		return true
	})
	return changed
}

// swapTable replaces the old table with the new one in FROM clauses.
func (r *Repairer) swapTable(sel *sqlast.SelectStmt, oldPhrase, newPhrase string) bool {
	oldRef, ok1 := r.Lex.ResolveTable(oldPhrase)
	newRef, ok2 := r.Lex.ResolveTable(newPhrase)
	if !ok1 || !ok2 || strings.EqualFold(oldRef.Table, newRef.Table) {
		return false
	}
	changed := false
	var visit func(s *sqlast.SelectStmt)
	visit = func(s *sqlast.SelectStmt) {
		if s == nil {
			return
		}
		if s.From != nil {
			if strings.EqualFold(s.From.First.Name, oldRef.Table) {
				s.From.First.Name = newRef.Table
				changed = true
			}
			for i := range s.From.Joins {
				if strings.EqualFold(s.From.Joins[i].Source.Name, oldRef.Table) {
					s.From.Joins[i].Source.Name = newRef.Table
					changed = true
				}
			}
		}
		if s.Compound != nil {
			visit(s.Compound.Right)
		}
	}
	visit(sel)
	// Subqueries referencing the old table follow too.
	sqlast.WalkSelect(sel, func(e sqlast.Expr) bool {
		switch x := e.(type) {
		case *sqlast.SubqueryExpr:
			visit(x.Sub)
		case *sqlast.ExistsExpr:
			visit(x.Sub)
		case *sqlast.InExpr:
			visit(x.Sub)
		}
		return true
	})
	return changed
}

// value is a parsed feedback value with its preferred literal kind.
type value struct {
	text   string
	quoted bool
}

func parseValue(raw string) value {
	raw = strings.TrimSpace(strings.TrimRight(raw, ".!?"))
	if len(raw) >= 2 && raw[0] == '\'' && raw[len(raw)-1] == '\'' {
		return value{text: raw[1 : len(raw)-1], quoted: true}
	}
	return value{text: raw}
}

func (v value) literal(previous *sqlast.Literal) *sqlast.Literal {
	if previous != nil {
		// Preserve the kind of the literal being replaced: a text column
		// compared to '1992' stays quoted even if the feedback says 1992.
		return &sqlast.Literal{Kind: previous.Kind, Text: v.text}
	}
	if v.quoted || !isNumeric(v.text) {
		return sqlast.Str(v.text)
	}
	return sqlast.Num(v.text)
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	dot := false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '.' && !dot && i > 0:
			dot = true
		case r == '-' && i == 0:
		default:
			return false
		}
	}
	return true
}

// comparison locates Binary comparisons with a literal right-hand side.
type comparison struct {
	bin *sqlast.Binary
	col string
}

func comparisons(e sqlast.Expr) []comparison {
	var out []comparison
	sqlast.Walk(e, func(x sqlast.Expr) bool {
		if b, ok := x.(*sqlast.Binary); ok {
			if cr, ok := b.L.(*sqlast.ColumnRef); ok {
				if _, ok := b.R.(*sqlast.Literal); ok {
					out = append(out, comparison{bin: b, col: cr.Column})
				}
			}
		}
		return true
	})
	return out
}

// setComparisonValue replaces the literal in the comparison on the named
// column (searching WHERE, then HAVING).
func setComparisonValue(sel *sqlast.SelectStmt, col string, v value) bool {
	for _, root := range []sqlast.Expr{sel.Where, sel.Having} {
		for _, c := range comparisons(root) {
			if strings.EqualFold(c.col, col) {
				c.bin.R = v.literal(c.bin.R.(*sqlast.Literal))
				return true
			}
		}
	}
	// HAVING COUNT(*) > n has no column ref; match aggregate comparisons
	// when the phrase resolved to nothing better.
	if sel.Having != nil {
		if b, ok := sel.Having.(*sqlast.Binary); ok {
			if lit, ok := b.R.(*sqlast.Literal); ok {
				b.R = v.literal(lit)
				return true
			}
		}
	}
	return false
}

// setSomeComparisonValue handles un-grounded value edits ("the value should
// be X"): without a highlight it edits the first literal comparison in the
// WHERE clause; with a highlight it edits the comparison inside the
// highlighted span — the mechanism by which highlights rescue grounding.
func setSomeComparisonValue(sel *sqlast.SelectStmt, v value, hl *feedback.Highlight) bool {
	comps := comparisons(sel.Where)
	if len(comps) == 0 {
		return false
	}
	target := comps[0]
	if hl != nil && hl.Text != "" {
		low := strings.ToLower(hl.Text)
		for _, c := range comps {
			if strings.Contains(low, strings.ToLower(c.col)) {
				target = c
				break
			}
		}
	}
	target.bin.R = v.literal(target.bin.R.(*sqlast.Literal))
	return true
}

// ----------------------------------------------------------------------------
// Add

var (
	reSortBy    = newPattern(`(?:sort|order)(?: the results)? by (.+?) in (ascending|descending) order`, " by ", "scending order")
	reOrderThe  = newPattern(`order the (.+?) in (ascending|descending) order`, "order the ", "scending order")
	reOnlyEq    = newPattern(`only (?:include|count|keep) those whose (.+?) is (.+)$`, " those whose ", " is ")
	reOnlyGt    = newPattern(`only (?:include|count|keep) those with (.+?) greater than (.+)$`, " those with ", " greater than ")
	reDistinct  = newPattern(`duplicate|distinct|only once`, "duplicate|distinct|only once")
	reAlsoShow  = newPattern(`also (?:show|give|include) the (.+)$`, "also show the |also give the |also include the ")
	reLimitTopN = newPattern(`only (?:show|give) the (?:top|first) (\d+)`, "only show the |only give the ", "top |first ")
)

func (r *Repairer) applyAdd(sel *sqlast.SelectStmt, text *fbMatch) bool {
	if m := text.groups(reSortBy); m != nil {
		return r.addOrderBy(sel, m[1], strings.ToLower(m[2]) == "descending")
	}
	if m := text.groups(reOrderThe); m != nil {
		return r.addOrderBy(sel, m[1], strings.ToLower(m[2]) == "descending")
	}
	if m := text.groups(reOnlyEq); m != nil {
		return r.addFilter(sel, m[1], parseValue(m[2]), sqlast.OpEq)
	}
	if m := text.groups(reOnlyGt); m != nil {
		return r.addFilter(sel, m[1], parseValue(m[2]), sqlast.OpGt)
	}
	if m := text.groups(reAlsoShow); m != nil {
		if ref, ok := r.Lex.ResolveColumn(m[1]); ok {
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: &sqlast.ColumnRef{Column: ref.Column}})
			return true
		}
		return false
	}
	if m := text.groups(reLimitTopN); m != nil {
		sel.Limit = sqlast.Num(m[1])
		return true
	}
	if text.contains(reDistinct) {
		if sel.Distinct {
			return false
		}
		sel.Distinct = true
		return true
	}
	return false
}

func (r *Repairer) addOrderBy(sel *sqlast.SelectStmt, phrase string, desc bool) bool {
	ref, ok := r.Lex.ResolveColumn(phrase)
	if !ok {
		return false
	}
	sel.OrderBy = []sqlast.OrderItem{{Expr: &sqlast.ColumnRef{Column: ref.Column}, Desc: desc}}
	return true
}

func (r *Repairer) addFilter(sel *sqlast.SelectStmt, phrase string, v value, op sqlast.BinaryOp) bool {
	ref, ok := r.Lex.ResolveColumn(phrase)
	if !ok {
		return false
	}
	var lit *sqlast.Literal
	if v.quoted || !isNumeric(v.text) {
		lit = sqlast.Str(v.text)
	} else {
		lit = sqlast.Num(v.text)
	}
	cond := &sqlast.Binary{Op: op, L: &sqlast.ColumnRef{Column: ref.Column}, R: lit}
	if sel.Where == nil {
		sel.Where = cond
	} else {
		sel.Where = &sqlast.Binary{Op: sqlast.OpAnd, L: sel.Where, R: cond}
	}
	return true
}

// ----------------------------------------------------------------------------
// Remove

var (
	reDoNotGive = newPattern(`(?:do not|don't) (?:give|show|need|include)(?: the)? (.+)$`, "do not |don't ")
	reDropCond  = newPattern(`(?:drop|remove) the (?:condition|filter) on (.+)$`, "drop the |remove the ", "the condition on |the filter on ")
)

func (r *Repairer) applyRemove(sel *sqlast.SelectStmt, text *fbMatch) bool {
	if m := text.groups(reDropCond); m != nil {
		if ref, ok := r.Lex.ResolveColumn(m[1]); ok {
			return removeFilter(sel, ref.Column)
		}
		return false
	}
	if m := text.groups(reDoNotGive); m != nil {
		if ref, ok := r.Lex.ResolveColumn(m[1]); ok {
			return removeSelectItem(sel, ref.Column)
		}
		return false
	}
	return false
}

func removeSelectItem(sel *sqlast.SelectStmt, col string) bool {
	if len(sel.Items) <= 1 {
		return false
	}
	for i, it := range sel.Items {
		match := false
		sqlast.Walk(it.Expr, func(e sqlast.Expr) bool {
			if cr, ok := e.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Column, col) {
				match = true
			}
			return true
		})
		if match {
			sel.Items = append(sel.Items[:i], sel.Items[i+1:]...)
			return true
		}
	}
	return false
}

// removeFilter drops the conjunct mentioning the column from the WHERE
// AND-chain.
func removeFilter(sel *sqlast.SelectStmt, col string) bool {
	mentions := func(e sqlast.Expr) bool {
		found := false
		sqlast.Walk(e, func(x sqlast.Expr) bool {
			if cr, ok := x.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Column, col) {
				found = true
			}
			return true
		})
		return found
	}
	var prune func(e sqlast.Expr) (sqlast.Expr, bool)
	prune = func(e sqlast.Expr) (sqlast.Expr, bool) {
		if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
			if l, changed := prune(b.L); changed {
				if l == nil {
					return b.R, true
				}
				b.L = l
				return b, true
			}
			if r, changed := prune(b.R); changed {
				if r == nil {
					return b.L, true
				}
				b.R = r
				return b, true
			}
			return b, false
		}
		if mentions(e) {
			return nil, true
		}
		return e, false
	}
	if sel.Where == nil {
		return false
	}
	w, changed := prune(sel.Where)
	if !changed {
		return false
	}
	sel.Where = w
	return true
}
