package llm

import (
	"context"
	"strings"
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/prompt"
)

func FuzzCountTokens(f *testing.F) {
	for _, s := range []string{
		"", " ", "one two  three", "\t\v\f lead and trail \r\n", "a\tb\nc\vd\fe\rf",
		"a\u0085b", "a b", " ", "ab\u0085", "K İ", "x\xffy", "\xc3", "word\xc3 more",
		"already normalized text",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1024 {
			return
		}
		if got, want := CountTokens(s), len(strings.Fields(s)); got != want {
			t.Fatalf("CountTokens(%q) = %d, want %d", s, got, want)
		}
	})
}

var tokenSink int

func BenchmarkCountTokens(b *testing.B) {
	_, ds, _ := getSim(b)
	text := promptFor(ds, ds.Examples[0])
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokenSink = CountTokens(text)
	}
}

func BenchmarkSimComplete(b *testing.B) {
	s, ds, _ := getSim(b)
	e := trappedExample(b, ds)
	req := Request{Prompt: prompt.NL2SQL(ds.Schemas[e.DB], poolDemos(ds, 4), e.Question)}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Complete(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// trappedExample returns a corpus example with a trap phrase, the case in
// which the Sim reads every demonstration question.
func trappedExample(t testing.TB, ds *dataset.Dataset) *dataset.Example {
	for _, e := range ds.Examples {
		if len(e.Traps) > 0 && e.Traps[0].Phrase != "" {
			return e
		}
	}
	t.Fatal("no example with a trap phrase")
	return nil
}

// poolDemos returns the first n demonstrations of the corpus pool.
func poolDemos(ds *dataset.Dataset, n int) []prompt.Demo {
	demos := make([]prompt.Demo, n)
	for i := range demos {
		demos[i] = prompt.Demo{Question: ds.Demos[i].Question, SQL: ds.Demos[i].SQL}
	}
	return demos
}
