package fisql

import (
	"strings"
	"testing"

	"fisql/internal/sqlast"
	"fisql/internal/sqlparse"
)

// TestCorpusPrintFixedPoint is FuzzParse's fixed point over the corpora:
// every gold and demonstration SQL of both corpora parses, and its print
// parses back to the same print. The clause spans of each printed SELECT
// lie inside the text, do not overlap, come in clause order, and each
// starts with its clause's keyword; feedback highlights are resolved
// against them.
func TestCorpusPrintFixedPoint(t *testing.T) {
	for _, build := range []func() (*System, error){NewSpiderSystem, NewExperiencePlatformSystem} {
		sys, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var sqls []string
		for _, e := range sys.DS.Examples {
			sqls = append(sqls, e.Gold)
		}
		for _, d := range sys.DS.Demos {
			sqls = append(sqls, d.SQL)
		}
		selects := 0
		for _, src := range sqls {
			stmt, err := sqlparse.Parse(src)
			if err != nil {
				t.Fatalf("%s: corpus SQL %q does not parse: %v", sys.DS.Name, src, err)
			}
			printed, spans := sqlast.PrintWithSpans(stmt)
			stmt2, err := sqlparse.Parse(printed)
			if err != nil {
				t.Fatalf("%s: print %q of %q does not parse: %v", sys.DS.Name, printed, src, err)
			}
			if again := sqlast.Print(stmt2); again != printed {
				t.Fatalf("%s: print not a fixed point:\n first: %q\nsecond: %q", sys.DS.Name, printed, again)
			}
			if _, ok := stmt.(*sqlast.SelectStmt); !ok {
				continue
			}
			selects++
			if len(spans) == 0 || spans[0].Clause != sqlast.ClauseSelect {
				t.Fatalf("%s: %q: spans %v do not open with SELECT", sys.DS.Name, printed, spans)
			}
			for i, sp := range spans {
				if sp.Start < 0 || sp.Start >= sp.End || sp.End > len(printed) {
					t.Fatalf("%s: %q: span %v outside the text", sys.DS.Name, printed, sp)
				}
				if i > 0 && (sp.Clause <= spans[i-1].Clause || sp.Start < spans[i-1].End) {
					t.Fatalf("%s: %q: span %v overlaps or precedes %v", sys.DS.Name, printed, sp, spans[i-1])
				}
				if text := printed[sp.Start:sp.End]; !strings.HasPrefix(text, sp.Clause.String()) {
					t.Fatalf("%s: %q: %v span %q does not start with its keyword", sys.DS.Name, printed, sp.Clause, text)
				}
			}
		}
		if selects < len(sys.DS.Examples) {
			t.Fatalf("%s: only %d SELECTs in %d corpus statements", sys.DS.Name, selects, len(sqls))
		}
	}
}
