package llm

import (
	"context"
	"strings"
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/prompt"
)

// FuzzCountTokens holds CountTokens to len(strings.Fields). Its seeds put
// a space or a multi-byte rune on each side of the 8-byte word boundaries,
// and each ASCII byte that is a space (and 0x08, 0x0e, 0x1c-0x1f and 0x7f,
// which are not) inside an 8-byte word.
func FuzzCountTokens(f *testing.F) {
	for _, s := range []string{
		"", " ", "one two  three", "\t\v\f lead and trail \r\n", "a\tb\nc\vd\fe\rf",
		"a\u0085b", "a b", " ", "ab\u0085", "K İ", "x\xffy", "\xc3", "word\xc3 more",
		"already normalized text",
	} {
		f.Add(s)
	}
	for _, off := range []int{7, 8, 9, 15, 16} {
		for _, mid := range []string{" ", "é", "\u0085", "\u00a0", "\xc3"} {
			f.Add(strings.Repeat("a", off) + mid + "bcdefghijklmnopqrstuvwxyz")
			f.Add(strings.Repeat(" ", off) + mid + "  bcdefgh ijklmnop qr")
		}
	}
	for _, c := range "\t\n\v\f\r \b\x0e\x1c\x1d\x1e\x1f\x7f" {
		f.Add("abc" + string(c) + "def" + string(c) + string(c) + "ghijklmno" + string(c))
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
