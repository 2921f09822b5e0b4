// Package prompt builds and parses the prompts of the FISQL pipeline: the
// zero-/few-shot NL2SQL prompt (paper Figure 1), the feedback-regeneration
// prompt (Figure 6) with optional routed repair demonstrations (Figure 5),
// the feedback-type routing prompt, and the query-rewrite prompt.
//
// The same package owns parsing because the simulated LLM must understand
// exactly the prompts the pipeline produces — like a real API, it sees only
// text, and this package is the single source of truth for the layout.
//
// Every builder sizes its output before writing it, so a prompt is one
// allocation; Parse reads a prompt once and returns substrings of it.
package prompt

import (
	"fmt"
	"strings"
	"sync"

	"fisql/internal/dataset"
	"fisql/internal/feedback"
	"fisql/internal/schema"
)

// Section markers. Builders emit them; the parser keys on them.
const (
	markSchema      = "Schema:"
	markDemos       = "Here are example questions and their SQL queries:"
	markRepairDemos = "Here are examples of how to perform"
	markQuestion    = "Question:"
	markPrevQuery   = "Query:"
	markFeedback    = "The SQL query you have generated has received the following feedback:"
	markHighlight   = "The user highlighted this segment of the query:"
	markTask        = "Here is the question you need to answer:"
	markRewriteTail = "Taking into account the feedback, please rewrite the SQL query."
	markRouting     = "Classify the user feedback into one of the operation types: Add, Remove, Edit."
	markRewriteTask = "Rewrite the user question so that it also reflects the feedback."
	markFinal       = "SQL:"
)

// Fixed framing of the routed demonstrations and of the two short prompts.
const (
	routedDemosTail = " updates to SQL queries based on feedback:\n"
	routingTail     = "\nType:"
	rewriteHead     = markRewriteTask + "\n\n" + markQuestion + " "
	rewriteFeedback = "\nFeedback: "
	rewriteTail     = "\nNew question:"
)

// Instructions is the generic task instruction block (Figure 1's skeleton).
const Instructions = "You are an expert text-to-SQL assistant. " +
	"Translate the user question into a single SQL query over the schema below. " +
	"Respond with the SQL query only."

// Demo is a (question, SQL) in-context demonstration.
type Demo struct {
	Question string
	SQL      string
}

// schemaTextCache memoizes Schema.PromptText per schema. Schemas are
// immutable after corpus construction (see the concurrency contract in
// DESIGN.md) and keyed by pointer identity like the engine's plan cache,
// so the serialization — the largest block of every prompt — is built once
// per schema instead of once per request. The cache is unbounded but holds
// one entry per database of the loaded corpora.
var schemaTextCache sync.Map // *schema.Schema -> string

func schemaText(s *schema.Schema) string {
	if v, ok := schemaTextCache.Load(s); ok {
		return v.(string)
	}
	text := s.PromptText()
	schemaTextCache.Store(s, text)
	return text
}

// headLen is the length of what writeHead writes.
func headLen(st string, demos []Demo) int {
	n := len(Instructions) + len("\n\n"+markSchema+"\n") + len(st)
	if len(demos) > 0 {
		n += len("\n" + markDemos + "\n")
		for _, d := range demos {
			n += len("Q: \nSQL: \n") + len(d.Question) + len(d.SQL)
		}
	}
	return n
}

// writeHead writes what the NL2SQL and repair prompts share: instructions,
// full schema and the retrieved demonstrations, if any.
func writeHead(sb *strings.Builder, st string, demos []Demo) {
	sb.WriteString(Instructions + "\n\n" + markSchema + "\n")
	sb.WriteString(st)
	if len(demos) > 0 {
		sb.WriteString("\n" + markDemos + "\n")
		for _, d := range demos {
			writeDemo(sb, d)
		}
	}
}

// writeDemo writes one retrieved demonstration.
func writeDemo(sb *strings.Builder, d Demo) {
	sb.WriteString("Q: ")
	sb.WriteString(d.Question)
	sb.WriteString("\nSQL: ")
	sb.WriteString(d.SQL)
	sb.WriteString("\n")
}

// writeLine writes prefix, value and a newline.
func writeLine(sb *strings.Builder, prefix, value string) {
	sb.WriteString(prefix)
	sb.WriteString(value)
	sb.WriteString("\n")
}

// NL2SQL builds the generation prompt: instructions, full schema, optional
// retrieved demonstrations, and the question. With no demos this is the
// zero-shot prompt of Figure 1.
func NL2SQL(s *schema.Schema, demos []Demo, question string) string {
	st := schemaText(s)
	var sb strings.Builder
	sb.Grow(headLen(st, demos) + len("\n"+markQuestion+" \n"+markFinal) + len(question))
	writeHead(&sb, st, demos)
	sb.WriteString("\n" + markQuestion + " ")
	sb.WriteString(question)
	sb.WriteString("\n" + markFinal)
	return sb.String()
}

// Repair builds the feedback-incorporation prompt of Figure 6: the NL2SQL
// prompt plus the previous query, the user feedback, optionally the routed
// repair demonstrations (Figure 5) and a highlight.
func Repair(s *schema.Schema, demos []Demo, routed []feedback.RepairDemo, routedOp *dataset.Op,
	question, prevSQL, fbText string, hl *feedback.Highlight) string {
	st := schemaText(s)
	n := headLen(st, demos) + len(question) + len(prevSQL) + len(fbText) +
		len("\n"+markTask+"\n"+markQuestion+" \n"+markPrevQuery+" \n"+markFeedback+"\n\n"+markRewriteTail+"\n"+markPrevQuery)
	if routedOp != nil {
		n += len("\n"+markRepairDemos+" "+routedDemosTail) + len(routedOp.String())
		for _, d := range routed {
			n += len("Question: \nQuery: \nFeedback: \nUpdated query: \n") +
				len(d.Question) + len(d.Original) + len(d.Feedback) + len(d.Updated)
		}
	}
	if hl != nil {
		n += len(markHighlight+"\n\n") + len(hl.Text)
	}
	var sb strings.Builder
	sb.Grow(n)
	writeHead(&sb, st, demos)
	if routedOp != nil {
		sb.WriteString("\n" + markRepairDemos + " ")
		sb.WriteString(routedOp.String())
		sb.WriteString(routedDemosTail)
		for _, d := range routed {
			writeLine(&sb, "Question: ", d.Question)
			writeLine(&sb, "Query: ", d.Original)
			writeLine(&sb, "Feedback: ", d.Feedback)
			writeLine(&sb, "Updated query: ", d.Updated)
		}
	}
	sb.WriteString("\n" + markTask + "\n")
	writeLine(&sb, markQuestion+" ", question)
	writeLine(&sb, markPrevQuery+" ", prevSQL)
	writeLine(&sb, markFeedback+"\n", fbText)
	if hl != nil {
		writeLine(&sb, markHighlight+"\n", hl.Text)
	}
	sb.WriteString(markRewriteTail + "\n" + markPrevQuery)
	return sb.String()
}

// routingHead is the fixed part of every routing prompt, up to the feedback
// to classify. Demonstrations are emitted in fixed operation order so the
// prompt bytes are deterministic.
var routingHead = sync.OnceValue(func() string {
	var sb strings.Builder
	sb.WriteString(markRouting + "\n\n")
	examples := feedback.TaxonomyExamples()
	for _, op := range []dataset.Op{dataset.OpAdd, dataset.OpRemove, dataset.OpEdit} {
		writeLine(&sb, "Feedback: ", examples[op])
		writeLine(&sb, "Type: ", op.String())
	}
	sb.WriteString("\nFeedback: ")
	return sb.String()
})

// Routing builds the feedback-type identification prompt.
func Routing(fbText string) string {
	return routingHead() + fbText + routingTail
}

// Rewrite builds the query-rewrite baseline prompt: paraphrase question +
// feedback into a new standalone question.
func Rewrite(question, fbText string) string {
	return rewriteHead + question + rewriteFeedback + fbText + rewriteTail
}

// ----------------------------------------------------------------------------
// Parsing (used by the simulated model)

// Kind discriminates parsed prompt types.
type Kind int

// Prompt kinds.
const (
	KindNL2SQL Kind = iota
	KindRepair
	KindRouting
	KindRewrite
)

// Parsed is the structured view of a prompt.
type Parsed struct {
	Kind      Kind
	Question  string
	PrevSQL   string
	Feedback  string
	Highlight *feedback.Highlight
	Demos     []Demo
	// RoutedOp is the operation type of the repair demonstrations, if the
	// prompt included a routed demonstration section.
	RoutedOp *dataset.Op
	// SchemaName is the database name announced in the schema block.
	SchemaName string
}

// Parse decodes a prompt built by this package. It reads the prompt once,
// a line at a time from a cursor.
//
// Feedback and highlights are free text. In a repair prompt, every line of
// the feedback section up to the exact highlight or closing marker line is
// feedback, and every line of the highlight section up to the closing
// marker is the highlight, whatever it looks like. In a routing or rewrite
// prompt the feedback is everything between the fixed header and the fixed
// tail. Free text is read as its lines, trimmed, with blank lines dropped,
// joined by single spaces.
func Parse(text string) (*Parsed, error) {
	switch {
	case strings.HasPrefix(text, markRouting):
		fb, ok := between(text, routingHead(), routingTail)
		if !ok {
			return nil, fmt.Errorf("routing prompt without feedback line")
		}
		return &Parsed{Kind: KindRouting, Feedback: joinLines(fb)}, nil
	case strings.HasPrefix(text, markRewriteTask):
		body, ok := between(text, rewriteHead, rewriteTail)
		q, fb, found := strings.Cut(body, rewriteFeedback)
		p := &Parsed{Kind: KindRewrite, Question: strings.TrimSpace(q), Feedback: joinLines(fb)}
		if !ok || !found || p.Question == "" {
			return nil, fmt.Errorf("rewrite prompt without question")
		}
		return p, nil
	}

	p := &Parsed{Kind: KindNL2SQL}
	inDemos, inRouted := false, false
	var hlText string
	// free is the feedback or highlight text whose section is open (nil
	// outside both); the section runs from byte freeAt to the line that
	// closes it.
	var free *string
	freeAt := 0
	for rest := text; rest != ""; {
		at := len(text) - len(rest)
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if free != nil {
			if line != markRewriteTail && (line != markHighlight || free == &hlText) {
				continue
			}
			*free = joinLines(text[freeAt:at])
			free = nil
		}
		switch {
		case line == markDemos:
			inDemos, inRouted = true, false
		case line == markTask:
			inDemos, inRouted = false, false
		case line == markFeedback:
			p.Kind = KindRepair
			inDemos, inRouted = false, false
			free, freeAt = &p.Feedback, len(text)-len(rest)
		case line == markHighlight:
			free, freeAt = &hlText, len(text)-len(rest)
		case strings.HasPrefix(line, markRepairDemos+" "):
			inDemos, inRouted = false, true
			name, _, _ := strings.Cut(line[len(markRepairDemos)+1:], " ")
			if op, ok := dataset.ParseOp(name); ok {
				p.RoutedOp = &op
			}
		case strings.HasPrefix(line, "Database: "):
			if p.SchemaName == "" {
				p.SchemaName = strings.TrimSpace(line[len("Database: "):])
			}
		case strings.HasPrefix(line, markQuestion+" "):
			if !inRouted { // demonstration questions are not the task question
				p.Question = strings.TrimSpace(line[len(markQuestion):])
			}
		case strings.HasPrefix(line, markPrevQuery+" "):
			if !inRouted {
				p.PrevSQL = strings.TrimSpace(line[len(markPrevQuery):])
			}
		case inDemos && strings.HasPrefix(line, "Q: "):
			d := Demo{Question: line[len("Q: "):]}
			if next, after, _ := strings.Cut(rest, "\n"); strings.HasPrefix(next, "SQL: ") {
				d.SQL = next[len("SQL: "):]
				rest = after
			}
			if p.Demos == nil {
				p.Demos = make([]Demo, 0, strings.Count(rest, "\nQ: ")+1)
			}
			p.Demos = append(p.Demos, d)
		}
	}
	if free != nil {
		*free = joinLines(text[freeAt:])
	}
	if hlText != "" {
		p.Highlight = &feedback.Highlight{Text: hlText}
	}
	if p.Question == "" {
		return nil, fmt.Errorf("prompt without question")
	}
	return p, nil
}

// between returns what text holds between head and tail.
func between(text, head, tail string) (string, bool) {
	body, ok := strings.CutPrefix(text, head)
	if !ok {
		return "", false
	}
	return strings.CutSuffix(body, tail)
}

// joinLines reads a free-text section: each line trimmed, blank lines
// dropped, the rest joined by one space. Text that is one line after
// trimming comes back as a substring of s.
func joinLines(s string) string {
	s = strings.TrimSpace(s)
	if !strings.Contains(s, "\n") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for s != "" {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		if line = strings.TrimSpace(line); line != "" {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(line)
		}
	}
	return sb.String()
}
