package prompt

import (
	"fmt"
	"strings"

	"fisql/internal/dataset"
	"fisql/internal/feedback"
	"fisql/internal/schema"
)

// The builders and the parser as they were defined with fmt and
// strings.Split. The tests hold the one-allocation builders to these bytes,
// and the cursor parser to this parser wherever no field spans lines or
// looks like a marker.

func fmtNL2SQL(s *schema.Schema, demos []Demo, question string) string {
	var sb strings.Builder
	sb.WriteString(Instructions)
	sb.WriteString("\n\n")
	sb.WriteString(markSchema)
	sb.WriteString("\n")
	sb.WriteString(s.PromptText())
	if len(demos) > 0 {
		sb.WriteString("\n")
		sb.WriteString(markDemos)
		sb.WriteString("\n")
		for _, d := range demos {
			fmt.Fprintf(&sb, "Q: %s\nSQL: %s\n", d.Question, d.SQL)
		}
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%s %s\n%s", markQuestion, question, markFinal)
	return sb.String()
}

func fmtRepair(s *schema.Schema, demos []Demo, routed []feedback.RepairDemo, routedOp *dataset.Op,
	question, prevSQL, fbText string, hl *feedback.Highlight) string {
	var sb strings.Builder
	sb.WriteString(Instructions)
	sb.WriteString("\n\n")
	sb.WriteString(markSchema)
	sb.WriteString("\n")
	sb.WriteString(s.PromptText())
	if len(demos) > 0 {
		sb.WriteString("\n")
		sb.WriteString(markDemos)
		sb.WriteString("\n")
		for _, d := range demos {
			fmt.Fprintf(&sb, "Q: %s\nSQL: %s\n", d.Question, d.SQL)
		}
	}
	if routedOp != nil {
		fmt.Fprintf(&sb, "\n%s %s updates to SQL queries based on feedback:\n", markRepairDemos, routedOp.String())
		for _, d := range routed {
			fmt.Fprintf(&sb, "Question: %s\nQuery: %s\nFeedback: %s\nUpdated query: %s\n",
				d.Question, d.Original, d.Feedback, d.Updated)
		}
	}
	sb.WriteString("\n")
	sb.WriteString(markTask)
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%s %s\n", markQuestion, question)
	fmt.Fprintf(&sb, "%s %s\n", markPrevQuery, prevSQL)
	fmt.Fprintf(&sb, "%s\n%s\n", markFeedback, fbText)
	if hl != nil {
		fmt.Fprintf(&sb, "%s\n%s\n", markHighlight, hl.Text)
	}
	fmt.Fprintf(&sb, "%s\n%s", markRewriteTail, markPrevQuery)
	return sb.String()
}

func fmtRouting(fbText string) string {
	var sb strings.Builder
	sb.WriteString(markRouting)
	sb.WriteString("\n\n")
	examples := feedback.TaxonomyExamples()
	for _, op := range []dataset.Op{dataset.OpAdd, dataset.OpRemove, dataset.OpEdit} {
		fmt.Fprintf(&sb, "Feedback: %s\nType: %s\n", examples[op], op)
	}
	fmt.Fprintf(&sb, "\nFeedback: %s\nType:", fbText)
	return sb.String()
}

func fmtRewrite(question, fbText string) string {
	var sb strings.Builder
	sb.WriteString(markRewriteTask)
	sb.WriteString("\n\n")
	fmt.Fprintf(&sb, "%s %s\n", markQuestion, question)
	fmt.Fprintf(&sb, "Feedback: %s\n", fbText)
	sb.WriteString("New question:")
	return sb.String()
}

func splitParse(text string) (*Parsed, error) {
	switch {
	case strings.HasPrefix(text, markRouting):
		lines := strings.Split(text, "\n")
		for i := len(lines) - 1; i >= 0; i-- {
			if f, ok := strings.CutPrefix(lines[i], "Feedback: "); ok {
				return &Parsed{Kind: KindRouting, Feedback: strings.TrimSpace(f)}, nil
			}
		}
		return nil, fmt.Errorf("routing prompt without feedback line")
	case strings.HasPrefix(text, markRewriteTask):
		p := &Parsed{Kind: KindRewrite}
		for _, line := range strings.Split(text, "\n") {
			if q, ok := strings.CutPrefix(line, markQuestion+" "); ok {
				p.Question = strings.TrimSpace(q)
			}
			if f, ok := strings.CutPrefix(line, "Feedback: "); ok {
				p.Feedback = strings.TrimSpace(f)
			}
		}
		if p.Question == "" {
			return nil, fmt.Errorf("rewrite prompt without question")
		}
		return p, nil
	}

	p := &Parsed{Kind: KindNL2SQL}
	lines := strings.Split(text, "\n")
	inDemos, inRouted, inHighlight, inFeedback := false, false, false, false
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		switch {
		case line == markDemos:
			inDemos, inRouted = true, false
		case strings.HasPrefix(line, markRepairDemos):
			inDemos, inRouted = false, true
			for _, opName := range []string{"Add", "Remove", "Edit"} {
				if strings.Contains(line, " "+opName+" ") {
					if op, ok := dataset.ParseOp(opName); ok {
						p.RoutedOp = &op
					}
				}
			}
		case line == markTask:
			inDemos, inRouted = false, false
		case line == markFeedback:
			p.Kind = KindRepair
			inFeedback = true
			inDemos, inRouted, inHighlight = false, false, false
		case line == markHighlight:
			inHighlight = true
			inFeedback = false
		case line == markRewriteTail:
			inHighlight, inFeedback = false, false
		case strings.HasPrefix(line, "Database: "):
			if p.SchemaName == "" {
				p.SchemaName = strings.TrimSpace(strings.TrimPrefix(line, "Database: "))
			}
		case strings.HasPrefix(line, markQuestion+" "):
			q := strings.TrimSpace(strings.TrimPrefix(line, markQuestion))
			if inRouted {
				continue
			}
			p.Question = q
		case strings.HasPrefix(line, markPrevQuery+" "):
			if inRouted {
				continue
			}
			p.PrevSQL = strings.TrimSpace(strings.TrimPrefix(line, markPrevQuery))
		case inDemos && strings.HasPrefix(line, "Q: "):
			d := Demo{Question: strings.TrimPrefix(line, "Q: ")}
			if i+1 < len(lines) && strings.HasPrefix(lines[i+1], "SQL: ") {
				d.SQL = strings.TrimPrefix(lines[i+1], "SQL: ")
				i++
			}
			p.Demos = append(p.Demos, d)
		case inFeedback && strings.TrimSpace(line) != "":
			if p.Feedback != "" {
				p.Feedback += " "
			}
			p.Feedback += strings.TrimSpace(line)
		case inHighlight && strings.TrimSpace(line) != "":
			p.Highlight = &feedback.Highlight{Text: strings.TrimSpace(line)}
		}
	}
	if p.Question == "" {
		return nil, fmt.Errorf("prompt without question")
	}
	return p, nil
}
