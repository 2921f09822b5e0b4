package dataset

import (
	"fmt"
	"strings"
)

// scaleWords lends scaled demonstration variants lexical diversity. The
// pool is intentionally larger than a few entries: variants must spread in
// vector space, not stack into exact-tie clusters (see ScaleDemos).
var scaleWords = []string{
	"alternate", "rephrased", "restated", "another", "similar",
	"equivalent", "reworded", "paraphrased", "casual", "formal",
	"short", "verbose", "spoken", "written", "terse", "loose",
	"plain", "polished", "rough", "quick", "careful", "direct",
	"indirect", "literal",
}

// ScaleDemos deterministically scales the demonstration pool to mult times
// its size (mult <= 1 returns the pool unchanged). Each variant keeps the
// original database and SQL but rephrases the question: one word is
// dropped and a distinct suffix is appended, so variants cluster around
// their base demonstration without collapsing onto it — the shape of a
// feedback-grown library, where users rephrase the same intent many ways.
//
// The per-variant lexical spread matters beyond realism: variants that
// differ only by same-weight suffix tokens would have identical norms and
// therefore produce exact score ties against any query, so a top-k would
// be decided by pool order alone. Dropping a different base word per
// variant makes scores genuinely distinct.
//
// The original demos come first, byte-identical, at any multiplier
// (mirroring the engine's row scaling in PR 7), and every entry is unique
// under the retrieval store's (db, question, sql) dedup key.
func ScaleDemos(demos []Demo, mult int) []Demo {
	if mult <= 1 || len(demos) == 0 {
		return demos
	}
	out := make([]Demo, 0, len(demos)*mult)
	out = append(out, demos...)
	for v := 1; v < mult; v++ {
		for i, d := range demos {
			h := uint32(v)*2654435761 + uint32(i)*40503
			words := strings.Fields(d.Question)
			if len(words) > 3 {
				drop := int(h>>8) % len(words)
				words = append(words[:drop:drop], words[drop+1:]...)
			}
			c := d
			c.Question = fmt.Sprintf("%s (%s %s wording %d)",
				strings.Join(words, " "),
				scaleWords[h%uint32(len(scaleWords))],
				scaleWords[(h/7)%uint32(len(scaleWords))],
				v)
			out = append(out, c)
		}
	}
	return out
}
