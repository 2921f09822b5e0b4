package dataset_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
	"fisql/internal/engine"
)

// corpusBuilds are the builds TestCorpusDigest pins and
// TestBuildLeavesCountersZero inspects: both corpora at their default seed,
// at the seed TestShapeHoldsAcrossSeeds uses, and scaled.
var corpusBuilds = []struct {
	name   string
	build  func() (*dataset.Dataset, error)
	digest string
}{
	{"spider", spider.Build, "60fe01f405384a39"},
	{"spider/seed4242", func() (*dataset.Dataset, error) { return spider.BuildSeed(4242) }, "4298022377e8f6d7"},
	{"spider/x10", func() (*dataset.Dataset, error) { return spider.BuildRows(10) }, "a854b8f3846a6250"},
	{"aep", aep.Build, "88a5d44a8cfd87ff"},
	{"aep/seed4242", func() (*dataset.Dataset, error) { return aep.BuildSeed(4242) }, "95544cf24325e598"},
	{"aep/x3", func() (*dataset.Dataset, error) { return aep.BuildRows(3) }, "4ce93180e8e45251"},
}

// TestCorpusDigest pins every byte a corpus build produces — examples with
// their traps and variants, demonstrations, lexicons and every table row —
// so a change to how candidates are verified cannot silently move a
// rejected candidate into (or out of) a corpus. On a mismatch the per-part
// digests are logged; run with -v on a known-good commit and diff the two
// logs to name the part that moved.
func TestCorpusDigest(t *testing.T) {
	for _, b := range corpusBuilds {
		ds, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		parts := corpusParts(ds)
		all := sha256.New()
		for _, p := range parts {
			fmt.Fprintf(all, "%s=%s\n", p.name, p.digest)
			t.Logf("%s %s: %s", b.name, p.name, p.digest)
		}
		if got := fmt.Sprintf("%x", all.Sum(nil))[:16]; got != b.digest {
			t.Errorf("%s: corpus digest %s, want %s", b.name, got, b.digest)
		}
	}
}

// TestBuildLeavesCountersZero checks a returned corpus reads zero on every
// engine counter, whatever its construction executed: the serving metrics
// and the -require-columnar gate count the product's queries only.
func TestBuildLeavesCountersZero(t *testing.T) {
	for _, b := range corpusBuilds {
		ds, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for _, name := range sortedKeys(ds.DBs) {
			db := ds.DBs[name]
			if hits, fallbacks := db.ColumnarStats(); hits != 0 || fallbacks != 0 {
				t.Errorf("%s %s: columnar stats %d hits / %d fallbacks, want 0", b.name, name, hits, fallbacks)
			}
			if s := db.SubqueryStats(); s != (engine.SubqueryStats{}) {
				t.Errorf("%s %s: subquery stats %+v, want zero", b.name, name, s)
			}
			if s := db.OrderStats(); s != (engine.OrderStats{}) {
				t.Errorf("%s %s: order stats %+v, want zero", b.name, name, s)
			}
		}
	}
}

type corpusPart struct {
	name, digest string
}

// corpusParts renders a corpus canonically (map contents in sorted key
// order) and returns one digest per part: examples, demos, lexicons, then
// one per database.
func corpusParts(ds *dataset.Dataset) []corpusPart {
	var parts []corpusPart
	part := func(name string, render func(h hash.Hash)) {
		h := sha256.New()
		render(h)
		parts = append(parts, corpusPart{name, fmt.Sprintf("%x", h.Sum(nil))[:16]})
	}
	part("examples", func(h hash.Hash) {
		for _, e := range ds.Examples {
			fmt.Fprintf(h, "example %q %q %q %q annotatable=%t\n", e.ID, e.DB, e.Question, e.Gold, e.Annotatable)
			for _, tr := range e.Traps {
				fmt.Fprintf(h, "  trap %+v\n", tr)
			}
			masks := make([]int, 0, len(e.Variants))
			for m := range e.Variants {
				masks = append(masks, int(m))
			}
			sort.Ints(masks)
			for _, m := range masks {
				fmt.Fprintf(h, "  variant %d %q\n", m, e.Variants[uint8(m)])
			}
		}
	})
	part("demos", func(h hash.Hash) {
		for _, d := range ds.Demos {
			fmt.Fprintf(h, "demo %q %q %q %q\n", d.DB, d.Question, d.SQL, d.Phrases)
		}
	})
	part("lexicons", func(h hash.Hash) {
		for _, name := range sortedKeys(ds.Lexicons) {
			lx := ds.Lexicons[name]
			for _, p := range lx.Phrases() {
				fmt.Fprintf(h, "%s %q %v\n", name, p, lx.Candidates(p))
			}
		}
	})
	for _, name := range sortedKeys(ds.DBs) {
		part("db "+name, func(h hash.Hash) {
			for _, tb := range ds.DBs[name].Tables() {
				fmt.Fprintf(h, "table %q %v\n", tb.Name, tb.Columns)
				for _, row := range tb.Rows {
					for _, v := range row {
						fmt.Fprintf(h, "%d:%q ", v.T, v.String())
					}
					h.Write([]byte{'\n'})
				}
			}
		})
	}
	return parts
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
