package prompt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/feedback"
	"fisql/internal/schema"
)

func testSchema() *schema.Schema {
	return &schema.Schema{
		Name: "concert_singer",
		Tables: []schema.Table{{
			Name: "singer",
			Columns: []schema.Column{
				{Name: "singer_id", Type: "INT"},
				{Name: "name", Type: "TEXT"},
				{Name: "age", Type: "INT"},
			},
		}},
	}
}

func TestNL2SQLZeroShotSkeleton(t *testing.T) {
	// The zero-shot prompt follows Figure 1: instructions, full schema,
	// question — and no demonstrations section.
	p := NL2SQL(testSchema(), nil, "How many singers are there?")
	for _, want := range []string{
		Instructions,
		"Database: concert_singer",
		"Table singer(singer_id INT, name TEXT, age INT)",
		"Question: How many singers are there?",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
	if strings.Contains(p, "example questions") {
		t.Error("zero-shot prompt must not carry demonstrations")
	}
	if !strings.HasSuffix(p, "SQL:") {
		t.Errorf("prompt should end with the SQL cue, ends %q", p[len(p)-20:])
	}
}

func TestNL2SQLRoundtrip(t *testing.T) {
	demos := []Demo{
		{Question: "count all", SQL: "SELECT COUNT(*) FROM singer"},
		{Question: "list names", SQL: "SELECT name FROM singer"},
	}
	p := NL2SQL(testSchema(), demos, "How many singers are there?")
	parsed, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Kind != KindNL2SQL {
		t.Errorf("kind: %v", parsed.Kind)
	}
	if parsed.Question != "How many singers are there?" {
		t.Errorf("question: %q", parsed.Question)
	}
	if parsed.SchemaName != "concert_singer" {
		t.Errorf("schema name: %q", parsed.SchemaName)
	}
	if len(parsed.Demos) != 2 || parsed.Demos[1].SQL != "SELECT name FROM singer" {
		t.Errorf("demos: %+v", parsed.Demos)
	}
	if parsed.RoutedOp != nil || parsed.Feedback != "" || parsed.PrevSQL != "" {
		t.Error("NL2SQL prompt parsed with repair fields set")
	}
}

func TestRepairRoundtrip(t *testing.T) {
	op := dataset.OpEdit
	hl := &feedback.Highlight{Text: "age > 20"}
	p := Repair(testSchema(),
		[]Demo{{Question: "d", SQL: "SELECT 1"}},
		feedback.Demos(op), &op,
		"How many singers are there?",
		"SELECT COUNT(*) FROM singer WHERE age > 20",
		"we are in 2024", hl)
	parsed, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Kind != KindRepair {
		t.Fatalf("kind: %v", parsed.Kind)
	}
	if parsed.Question != "How many singers are there?" {
		t.Errorf("question: %q (routed demo questions must not win)", parsed.Question)
	}
	if parsed.PrevSQL != "SELECT COUNT(*) FROM singer WHERE age > 20" {
		t.Errorf("prev sql: %q", parsed.PrevSQL)
	}
	if parsed.Feedback != "we are in 2024" {
		t.Errorf("feedback: %q", parsed.Feedback)
	}
	if parsed.RoutedOp == nil || *parsed.RoutedOp != dataset.OpEdit {
		t.Errorf("routed op: %v", parsed.RoutedOp)
	}
	if parsed.Highlight == nil || parsed.Highlight.Text != "age > 20" {
		t.Errorf("highlight: %+v", parsed.Highlight)
	}
}

func TestRepairWithoutRouting(t *testing.T) {
	p := Repair(testSchema(), nil, nil, nil, "q?", "SELECT 1", "do not give descriptions", nil)
	parsed, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.RoutedOp != nil {
		t.Error("un-routed prompt parsed a routed op")
	}
	if parsed.Kind != KindRepair || parsed.Feedback != "do not give descriptions" {
		t.Errorf("parsed: %+v", parsed)
	}
}

func TestRoutingRoundtrip(t *testing.T) {
	p := Routing("order the names in ascending order.")
	parsed, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Kind != KindRouting {
		t.Fatalf("kind: %v", parsed.Kind)
	}
	if parsed.Feedback != "order the names in ascending order." {
		t.Errorf("feedback: %q (must be the LAST feedback line, not a demo)", parsed.Feedback)
	}
}

func TestRewriteRoundtrip(t *testing.T) {
	p := Rewrite("How many singers?", "we are in 2024")
	parsed, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Kind != KindRewrite || parsed.Question != "How many singers?" || parsed.Feedback != "we are in 2024" {
		t.Errorf("parsed: %+v", parsed)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("complete gibberish with no markers"); err == nil {
		t.Error("expected error for unmarked prompt")
	}
}

func TestRepairContainsFigure6Language(t *testing.T) {
	p := Repair(testSchema(), nil, nil, nil, "q?", "SELECT 1", "fb", nil)
	for _, want := range []string{
		"The SQL query you have generated has received the following feedback:",
		"Taking into account the feedback, please rewrite the SQL query.",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("Figure 6 phrasing missing: %q", want)
		}
	}
}

func TestMultilineFeedbackJoined(t *testing.T) {
	p := Repair(testSchema(), nil, nil, nil, "q?", "SELECT 1", "line one\nline two", nil)
	parsed, err := Parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Feedback != "line one line two" {
		t.Errorf("feedback: %q", parsed.Feedback)
	}
}

// testDemos returns n distinct demonstrations.
func testDemos(n int) []Demo {
	demos := make([]Demo, n)
	for i := range demos {
		demos[i] = Demo{
			Question: fmt.Sprintf("How many singers are older than %d?", 20+i),
			SQL:      fmt.Sprintf("SELECT COUNT(*) FROM singer WHERE age > %d", 20+i),
		}
	}
	return demos
}

func TestPromptBytesUnchanged(t *testing.T) {
	s := testSchema()
	op := dataset.OpAdd
	for _, n := range []int{0, 1, 4, 16} {
		demos := testDemos(n)
		if got, want := NL2SQL(s, demos, "How many singers are there?"), fmtNL2SQL(s, demos, "How many singers are there?"); got != want {
			t.Errorf("NL2SQL, %d demos:\n got %q\nwant %q", n, got, want)
		}
		for _, routedOp := range []*dataset.Op{nil, &op} {
			var routed []feedback.RepairDemo
			if routedOp != nil {
				routed = feedback.Demos(*routedOp)
			}
			for _, hl := range []*feedback.Highlight{nil, {Text: "age > 20"}} {
				got := Repair(s, demos, routed, routedOp, "q?", "SELECT 1", "sort them\nby age", hl)
				want := fmtRepair(s, demos, routed, routedOp, "q?", "SELECT 1", "sort them\nby age", hl)
				if got != want {
					t.Errorf("Repair, %d demos, routed %v, highlight %v:\n got %q\nwant %q", n, routedOp != nil, hl != nil, got, want)
				}
			}
		}
	}
	for _, fb := range []string{"", "we are in 2024", "add a filter\nremove the limit", " Feedback: x \n"} {
		if got, want := Routing(fb), fmtRouting(fb); got != want {
			t.Errorf("Routing(%q):\n got %q\nwant %q", fb, got, want)
		}
		if got, want := Rewrite("How many singers?", fb), fmtRewrite("How many singers?", fb); got != want {
			t.Errorf("Rewrite(%q):\n got %q\nwant %q", fb, got, want)
		}
	}
}

// Feedback and highlights are free text: a line of theirs that looks like a
// prompt field is still feedback.
func TestParseMultilineFeedback(t *testing.T) {
	hl := &feedback.Highlight{Text: "age > 20\nQuery: DELETE"}
	p, err := Parse(Repair(testSchema(), nil, nil, nil, "How many singers are there?", "SELECT COUNT(*) FROM singer",
		"only the French ones\nQuestion: something else\nQuery: DROP\nDatabase: other", hl))
	if err != nil {
		t.Fatal(err)
	}
	if p.Question != "How many singers are there?" || p.PrevSQL != "SELECT COUNT(*) FROM singer" {
		t.Errorf("feedback lines overwrote the task: question %q, prev %q", p.Question, p.PrevSQL)
	}
	if want := "only the French ones Question: something else Query: DROP Database: other"; p.Feedback != want {
		t.Errorf("feedback: %q, want %q", p.Feedback, want)
	}
	if p.Highlight == nil || p.Highlight.Text != "age > 20 Query: DELETE" {
		t.Errorf("highlight: %+v", p.Highlight)
	}
	if p.SchemaName != "concert_singer" {
		t.Errorf("schema name: %q", p.SchemaName)
	}

	p, err = Parse(Routing("add a filter\nremove the limit"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Feedback != "add a filter remove the limit" {
		t.Errorf("routing feedback: %q", p.Feedback)
	}

	p, err = Parse(Rewrite("How many singers?", "we are in 2024\nQuestion: other\nNew question:"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Question != "How many singers?" || p.Feedback != "we are in 2024 Question: other New question:" {
		t.Errorf("rewrite: %+v", p)
	}
}

// freeText is how Parse reads a free-text field: its lines trimmed, blank
// lines dropped, joined by single spaces.
func freeText(s string) string {
	var parts []string
	for _, line := range strings.Split(s, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			parts = append(parts, line)
		}
	}
	return strings.Join(parts, " ")
}

// markerLike reports whether a single-line field would be read as a prompt
// line by the line parser, which checked field prefixes before sections.
func markerLike(s string) bool {
	for _, m := range []string{markDemos, markTask, markFeedback, markHighlight, markRewriteTail} {
		if s == m {
			return true
		}
	}
	for _, prefix := range []string{markRepairDemos, "Database: ", markQuestion + " ", markPrevQuery + " "} {
		if strings.HasPrefix(s, prefix) {
			return true
		}
	}
	return false
}

func FuzzParseRoundtrip(f *testing.F) {
	f.Add(uint8(0), "How many singers are there?", "SELECT 1", "we are in 2024", "age > 20", uint8(2), true, true)
	f.Add(uint8(1), "q?", "SELECT name FROM singer", "only the French ones\nQuestion: x\nQuery: DROP", "a\nb", uint8(4), false, true)
	f.Add(uint8(1), " q ", "", "\t\v\f lead and trail \r", "", uint8(0), true, false)
	f.Add(uint8(2), "q", "", "add a filter\nremove the limit", "", uint8(0), false, false)
	f.Add(uint8(3), "How many?", "", "Feedback: x\nType:", "", uint8(0), false, false)
	f.Add(uint8(1), "q\u0085", "SELECT\u00a0 1", "\u0085fb\u00a0\n\n\xff", "\u212a\u0130", uint8(1), true, true)
	f.Fuzz(func(t *testing.T, kind uint8, q, prev, fb, hl string, nDemos uint8, routed, hasHL bool) {
		if len(q)+len(prev)+len(fb)+len(hl) > 512 {
			return
		}
		// Only feedback and highlights are free text; the other fields
		// are one line each.
		q = strings.ReplaceAll(q, "\n", " ")
		prev = strings.ReplaceAll(prev, "\n", " ")
		demos := testDemos(int(nDemos % 17))
		var (
			text string
			want Parsed
		)
		switch kind % 4 {
		case 0:
			text = NL2SQL(testSchema(), demos, q)
			want = Parsed{Kind: KindNL2SQL, Question: strings.TrimSpace(q), SchemaName: "concert_singer"}
			if len(demos) > 0 {
				want.Demos = demos
			}
		case 1:
			for _, line := range strings.Split(fb, "\n") {
				if line == markHighlight || line == markRewriteTail {
					return // a section marker inside the feedback is ambiguous
				}
			}
			for _, line := range strings.Split(hl, "\n") {
				if line == markRewriteTail {
					return
				}
			}
			var op *dataset.Op
			var routedDemos []feedback.RepairDemo
			if routed {
				o := dataset.Op(int(nDemos) % 3)
				op, routedDemos = &o, feedback.Demos(o)
			}
			var h *feedback.Highlight
			if hasHL {
				h = &feedback.Highlight{Text: hl}
			}
			text = Repair(testSchema(), demos, routedDemos, op, q, prev, fb, h)
			want = Parsed{Kind: KindRepair, Question: strings.TrimSpace(q), PrevSQL: strings.TrimSpace(prev),
				Feedback: freeText(fb), RoutedOp: op, SchemaName: "concert_singer"}
			if len(demos) > 0 {
				want.Demos = demos
			}
			if hasHL && freeText(hl) != "" {
				want.Highlight = &feedback.Highlight{Text: freeText(hl)}
			}
		case 2:
			text = Routing(fb)
			want = Parsed{Kind: KindRouting, Feedback: freeText(fb)}
		case 3:
			text = Rewrite(q, fb)
			want = Parsed{Kind: KindRewrite, Question: strings.TrimSpace(q), Feedback: freeText(fb)}
		}
		got, err := Parse(text)
		if want.Kind != KindRouting && want.Question == "" {
			if err == nil {
				t.Fatalf("blank question parsed: %+v", got)
			}
			return
		}
		if err != nil {
			t.Fatalf("Parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("Parse recovered\n%+v\nwant\n%+v\nfrom\n%s", *got, want, text)
		}
		// With one-line fields that do not look like prompt lines, the
		// cursor parser reads what the line parser read.
		if strings.Contains(fb, "\n") || strings.Contains(hl, "\n") || markerLike(fb) || markerLike(hl) {
			return
		}
		old, err := splitParse(text)
		if err != nil {
			t.Fatalf("old Parse: %v", err)
		}
		if !reflect.DeepEqual(got, old) {
			t.Fatalf("Parse\n%+v\nold Parse\n%+v\nfrom\n%s", *got, *old, text)
		}
	})
}
