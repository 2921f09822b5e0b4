package rag

import (
	"math"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// tokenizeRunes is the tokenizer as it is defined: lower every rune, keep
// runs of a-z and 0-9.
func tokenizeRunes(text string) []string {
	var out []string
	var sb strings.Builder
	for _, r := range text {
		r = unicode.ToLower(r)
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			sb.WriteRune(r)
		} else if sb.Len() > 0 {
			out = append(out, sb.String())
			sb.Reset()
		}
	}
	if sb.Len() > 0 {
		out = append(out, sb.String())
	}
	return out
}

// vectorMap is vectorInto as it was first written: term frequencies in a
// map, postings sorted by term, then the same weighting.
func (s *Store) vectorMap(toks []string) []posting {
	tf := map[string]float64{}
	for _, t := range toks {
		tf[t]++
	}
	vec := make([]posting, 0, len(tf))
	for t, c := range tf {
		vec = append(vec, posting{term: t, w: c})
	}
	sort.Slice(vec, func(i, j int) bool { return vec[i].term < vec[j].term })
	var norm float64
	for i := range vec {
		idf, ok := s.idf[vec[i].term]
		if !ok {
			idf = math.Log(float64(s.baseN) + 1)
		}
		vec[i].w *= idf
		norm += vec[i].w * vec[i].w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range vec {
			vec[i].w /= norm
		}
	}
	return vec
}

var textSeeds = []string{
	"", "How many Singers are there? (2024)", "how many singers are there", "\t\v\f lead and trail \r\n",
	"a\u0085b", "a b", "Kelvin", "İstanbul", "x\xffy", "\xc3", "café AU lait",
	"list the name of all singers list the name", "ABC123def 456",
}

func FuzzTokenize(f *testing.F) {
	for _, s := range textSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1024 {
			return
		}
		got, want := Tokenize(s), tokenizeRunes(s)
		if strings.Join(got, "|") != strings.Join(want, "|") || len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	})
}

// FuzzVectorInto holds the sorted run-length count to the map and sort it
// replaced: the same terms in the same order with bit-identical weights,
// built fresh or into reused scratch.
func FuzzVectorInto(f *testing.F) {
	for _, s := range textSeeds {
		f.Add(s)
	}
	s := NewStore(pool())
	scratch := make([]posting, 0, 4)
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1024 {
			return
		}
		want := s.vectorMap(Tokenize(text))
		fresh := s.vectorInto(nil, Tokenize(text))
		scratch = s.vectorInto(scratch[:0], Tokenize(text))
		for _, got := range [][]posting{fresh, scratch} {
			if len(got) != len(want) {
				t.Fatalf("%q: %d postings, want %d", text, len(got), len(want))
			}
			for i := range want {
				if got[i].term != want[i].term || math.Float64bits(got[i].w) != math.Float64bits(want[i].w) {
					t.Fatalf("%q: posting %d = %v, want %v", text, i, got[i], want[i])
				}
			}
		}
		if cap(fresh) != len(fresh) {
			t.Fatalf("%q: fresh vector has capacity %d for %d postings", text, cap(fresh), len(fresh))
		}
	})
}

var searchSink []Result

func BenchmarkSearch(b *testing.B) {
	s := NewStore(pool())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchSink = s.Search("How many singers are there in the music database?", "music", 4)
	}
}
