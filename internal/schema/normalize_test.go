package schema

import (
	"strings"
	"testing"
)

// normalizeDef is Normalize as it is defined.
func normalizeDef(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// spaceSeeds exercise every ASCII space, the Unicode spaces and case
// mappings an ASCII fast path could get wrong, invalid UTF-8, and text that
// is already normalized.
var spaceSeeds = []string{
	"", " ", "song name", "how many singers are there?", "  Song   NAME ",
	"a\tb\nc\vd\fe\rf", "\t\v\f lead and trail \r\n", "trailing ", " leading",
	"a\u0085b", "a b", "K", "İstanbul", "KKK", "x\xffy", "\xc3", "café au lait",
	"ONE two", "one  two", "one\ttwo", "1 2 3",
}

func FuzzNormalize(f *testing.F) {
	for _, s := range spaceSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1024 {
			return
		}
		if got, want := Normalize(s), normalizeDef(s); got != want {
			t.Fatalf("Normalize(%q) = %q, want %q", s, got, want)
		}
	})
}

var normalizeSink string

func BenchmarkNormalize(b *testing.B) {
	for _, bc := range []struct{ name, text string }{
		{"normalized", "how many singers are there?"},
		{"question", "How many singers are there?"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				normalizeSink = Normalize(bc.text)
			}
		})
	}
}
