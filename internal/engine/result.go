package engine

import "strings"

// Result is the output of executing a SELECT.
type Result struct {
	// Columns is the header. Results of one plan may share it, so it must
	// not be written.
	Columns []string
	Rows    [][]Value
	// Ordered is true when the query had an ORDER BY, in which case row
	// order is significant for equality.
	Ordered bool
}

// EqualResults implements the execution-match metric: identical column
// count, identical row multiset under the grouping equivalence (key.go) —
// compared in order as soon as either side imposed an ORDER BY. The
// asymmetric case matters: a prediction that drops the gold query's ORDER BY
// must count as wrong, exactly as in SPIDER-style execution-accuracy
// harnesses. Column names are excluded: execution accuracy compares data,
// not header spelling.
func EqualResults(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	idx := keyIndex{hint: len(a.Rows)}
	if a.Ordered || b.Ordered {
		for i := range a.Rows {
			ka, _ := idx.id(a.Rows[i])
			if kb, _ := idx.id(b.Rows[i]); kb != ka {
				return false
			}
		}
		return true
	}
	// Multiset: count a's keys up and b's down. The row counts are equal, so
	// no count going below zero means every count ends at zero.
	var count []int32
	for _, r := range a.Rows {
		if k, isNew := idx.id(r); isNew {
			count = append(count, 1)
		} else {
			count[k]++
		}
	}
	for _, r := range b.Rows {
		k, isNew := idx.id(r)
		if isNew || count[k] == 0 {
			return false
		}
		count[k]--
	}
	return true
}

// Format renders the result as an aligned text table for CLI/chat display.
func (r *Result) Format() string {
	if len(r.Rows) == 0 {
		return "(no rows)"
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := v.String()
			cells[i][j] = s
			if j < len(widths) && len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(vals []string) {
		for j, s := range vals {
			if j > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(s)
			for k := len(s); k < widths[j]; k++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	for j, w := range widths {
		if j > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
}
