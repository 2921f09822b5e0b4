package prompt

import "testing"

var promptSink string

func BenchmarkNL2SQLPrompt(b *testing.B) {
	s, demos := testSchema(), testDemos(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		promptSink = NL2SQL(s, demos, "How many singers are there?")
	}
}
