package rag

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"fisql/internal/dataset"
	"fisql/internal/dataset/aep"
	"fisql/internal/dataset/spider"
)

func pool() []dataset.Demo {
	return []dataset.Demo{
		{DB: "music", Question: "How many singers are there?", SQL: "SELECT COUNT(*) FROM singer"},
		{DB: "music", Question: "List the name of all singers.", SQL: "SELECT name FROM singer"},
		{DB: "music", Question: "What is the average age of the singers?", SQL: "SELECT AVG(age) FROM singer"},
		{DB: "pets", Question: "How many pets are there?", SQL: "SELECT COUNT(*) FROM pet"},
		{DB: "pets", Question: "List the weight of all pets.", SQL: "SELECT weight FROM pet"},
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("How many Singers are there? (2024)")
	want := []string{"how", "many", "singers", "are", "there", "2024"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestSearchFindsNearDuplicate(t *testing.T) {
	s := NewStore(pool())
	hits := s.Search("Tell me how many singers are there right now", "music", 2)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Demo.SQL != "SELECT COUNT(*) FROM singer" {
		t.Errorf("top hit: %+v", hits[0].Demo)
	}
}

func TestSearchRespectsDBFilter(t *testing.T) {
	s := NewStore(pool())
	for _, hit := range s.Search("how many pets are there", "pets", 5) {
		if hit.Demo.DB != "pets" {
			t.Errorf("hit from wrong db: %+v", hit.Demo)
		}
	}
	all := s.Search("how many are there", "", 10)
	dbs := map[string]bool{}
	for _, h := range all {
		dbs[h.Demo.DB] = true
	}
	if len(dbs) < 2 {
		t.Error("unfiltered search should span databases")
	}
}

func TestSearchK(t *testing.T) {
	s := NewStore(pool())
	if got := len(s.Search("singers", "music", 1)); got > 1 {
		t.Errorf("k=1 returned %d", got)
	}
	if got := len(s.Search("singers age name list average", "music", 100)); got > 3 {
		t.Errorf("more hits than music demos: %d", got)
	}
}

func TestSearchScoresDescending(t *testing.T) {
	s := NewStore(pool())
	hits := s.Search("list the name of all singers", "music", 5)
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatalf("scores not descending: %v", hits)
		}
	}
}

func TestExactQuestionIsTopHit(t *testing.T) {
	s := NewStore(pool())
	for _, d := range pool() {
		hits := s.Search(d.Question, d.DB, 1)
		if len(hits) == 0 || hits[0].Demo.Question != d.Question {
			t.Errorf("exact question %q not top hit: %+v", d.Question, hits)
		}
	}
}

func TestEmptyStore(t *testing.T) {
	s := NewStore(nil)
	if s.Len() != 0 {
		t.Error("empty store length")
	}
	if hits := s.Search("anything", "", 3); len(hits) != 0 {
		t.Errorf("hits from empty store: %v", hits)
	}
}

func TestNoSharedTermsNoHit(t *testing.T) {
	s := NewStore(pool())
	if hits := s.Search("zzzz qqqq wwww", "music", 3); len(hits) != 0 {
		t.Errorf("zero-similarity hits returned: %v", hits)
	}
}

func TestSearchDeterministic(t *testing.T) {
	s := NewStore(pool())
	a := s.Search("how many singers", "music", 3)
	b := s.Search("how many singers", "music", 3)
	if len(a) != len(b) {
		t.Fatal("nondeterministic result count")
	}
	for i := range a {
		if a[i].Demo.Question != b[i].Demo.Question {
			t.Fatal("nondeterministic ordering")
		}
	}
}

func TestCosineBounds(t *testing.T) {
	// Cosine similarity of normalized vectors stays within [0, 1+eps].
	s := NewStore(pool())
	f := func(q string) bool {
		for _, hit := range s.Search(q, "", 10) {
			if hit.Score < 0 || hit.Score > 1.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLargePoolTopK(t *testing.T) {
	var demos []dataset.Demo
	for i := 0; i < 500; i++ {
		demos = append(demos, dataset.Demo{
			DB:       "db",
			Question: fmt.Sprintf("question number %d about topic %d", i, i%7),
			SQL:      "SELECT 1",
		})
	}
	demos = append(demos, dataset.Demo{DB: "db", Question: "the special needle question", SQL: "SELECT 42"})
	s := NewStore(demos)
	hits := s.Search("special needle", "db", 4)
	if len(hits) == 0 || hits[0].Demo.SQL != "SELECT 42" {
		t.Errorf("needle not found: %+v", hits)
	}
	if len(hits) > 4 {
		t.Errorf("k not respected: %d", len(hits))
	}
}

// Regression: k <= 0 used to slice with a negative bound (hits[:k]) and
// panic whenever any demonstration matched the query.
func TestSearchNonPositiveK(t *testing.T) {
	s := NewStore(pool())
	for _, k := range []int{0, -1, -8} {
		if hits := s.Search("how many singers are there", "", k); hits != nil {
			t.Errorf("k=%d: want nil, got %d hits", k, len(hits))
		}
	}
}

// synthVocab is small, so questions drawn from it share terms and their
// scores collide often: the hardest case for the pool-order tie-break.
var synthVocab = []string{
	"count", "list", "name", "age", "singer", "pet", "show", "average",
	"max", "min", "city", "country", "order", "concert", "stadium",
	"weight", "year", "many", "how", "all", "the", "of", "total",
	"distinct", "group", "top", "oldest", "youngest", "per", "each",
}

// synthQuestion draws 2 to 8 words from synthVocab.
func synthQuestion(rng *rand.Rand) string {
	q := synthVocab[rng.Intn(len(synthVocab))]
	for w := 2 + rng.Intn(7); w > 1; w-- {
		q += " " + synthVocab[rng.Intn(len(synthVocab))]
	}
	return q
}

// synthPool builds a pool of n demos spread over dbs, deterministic in the
// state of rng.
func synthPool(rng *rand.Rand, n int, dbs []string) []dataset.Demo {
	demos := make([]dataset.Demo, n)
	for i := range demos {
		demos[i] = dataset.Demo{
			DB:       dbs[rng.Intn(len(dbs))],
			Question: synthQuestion(rng),
			SQL:      fmt.Sprintf("SELECT %d", i),
		}
	}
	return demos
}

// sameResults reports whether the two result lists are byte-identical:
// same demos, same order, bit-equal scores.
func sameResults(want, got []Result) bool {
	if !reflect.DeepEqual(want, got) {
		return false
	}
	for i := range want {
		if math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			return false
		}
	}
	return true
}

// assertSameResults fails unless the two result lists are byte-identical.
func assertSameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if !sameResults(want, got) {
		t.Fatalf("%s: results diverge\nwant: %+v\ngot:  %+v", label, want, got)
	}
}

// cosine merge-joins two term-sorted posting lists: the products of the
// shared terms' weights, added from +0 in sorted term order.
func cosine(a, b []posting) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].term == b[j].term:
			dot += a[i].w * b[j].w
			i++
			j++
		case a[i].term < b[j].term:
			i++
		default:
			j++
		}
	}
	return dot
}

// searchByDefinition is Search as it is defined: vectorize every demo of
// the partition, score it against the query in pool order with the
// merge-join cosine, drop scores <= 0, sort stably by descending score
// and keep the first k.
func searchByDefinition(s *Store, query, db string, k int) []Result {
	qv := s.vector(Tokenize(query))
	hits := []Result{}
	for _, d := range s.demos {
		if db != "" && d.DB != db {
			continue
		}
		if scr := cosine(qv, s.vector(Tokenize(d.Question))); scr > 0 {
			hits = append(hits, Result{Demo: d, Score: scr})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].Score > hits[j].Score })
	return hits[:min(k, len(hits))]
}

// TestSearchMatchesDefinition holds Search to searchByDefinition on seeded
// pools of 0 to 400 demos over 1 to 4 databases, with Adds (duplicates
// among them) interleaved between rounds of searches. Each round searches
// every database and the whole pool with k of 1, 2, 3, the pool size, one
// and two past it, and a random k in between, for a question of the pool,
// a fresh question, one sharing no term with the pool and the empty one.
func TestSearchMatchesDefinition(t *testing.T) {
	allDBs := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dbs := allDBs[:1+rng.Intn(len(allDBs))]
		size := rng.Intn(401)
		if seed < 3 {
			size = []int{0, 1, 400}[seed]
		}
		demos := synthPool(rng, size, dbs)
		s := newStore(demos, 1+rng.Intn(4))
		for round := 0; round < 4; round++ {
			n := s.Len()
			queries := []string{synthQuestion(rng), "unseenterm nosuchword", ""}
			if n > 0 {
				queries = append(queries, s.demos[rng.Intn(n)].Question)
			}
			ks := []int{1, 2, 3, max(n, 1), n + 1, n + 2, 1 + rng.Intn(n+2)}
			for _, q := range queries {
				for _, db := range append([]string{""}, dbs...) {
					for _, k := range ks {
						label := fmt.Sprintf("seed=%d round=%d pool=%d q=%q db=%q k=%d", seed, round, n, q, db, k)
						assertSameResults(t, label, searchByDefinition(s, q, db, k), s.Search(q, db, k))
					}
				}
			}
			for i := rng.Intn(40); i > 0; i-- {
				d := synthPool(rng, 1, dbs)[0]
				d.SQL = fmt.Sprintf("SELECT %d", rng.Intn(n+40))
				if n > 0 && rng.Intn(4) == 0 {
					d = s.demos[rng.Intn(n)] // an exact duplicate, which Add skips
				}
				s.Add(d)
			}
		}
	}
}

// TestSearchCorporaMatchesDefinition holds Search to searchByDefinition on
// both corpora: every example question, against its own database and the
// whole pool, at k of 1, 8 (the paper's k) and the pool size.
func TestSearchCorporaMatchesDefinition(t *testing.T) {
	for _, build := range []func() (*dataset.Dataset, error){aep.Build, spider.Build} {
		ds, err := build()
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore(ds.Demos)
		n := len(ds.Demos)
		for _, e := range ds.Examples {
			for _, db := range []string{e.DB, ""} {
				all := searchByDefinition(s, e.Question, db, n)
				for _, k := range []int{1, 8, n} {
					label := fmt.Sprintf("%s q=%q db=%q k=%d", ds.Name, e.Question, db, k)
					assertSameResults(t, label, all[:min(k, len(all))], s.Search(e.Question, db, k))
				}
			}
		}
	}
}

// FuzzSearch holds Search to searchByDefinition on a pool decoded from the
// input: up to 60 demos over databases "a", "b" and "c", the first base of
// them built by NewStore and the rest folded in by Add one at a time
// (exact duplicates among them), with the query searched after the build
// and after every Add. db selects "", a pool database or an unknown one.
func FuzzSearch(f *testing.F) {
	f.Add([]byte{}, "how many singers", uint8(0), uint8(3))
	f.Add([]byte{3, 0x11, 4, 5, 6, 0x40, 1, 2, 3, 4, 5, 6, 7, 8, 0x22, 9, 9}, "count list name", uint8(1), uint8(8))
	f.Add([]byte{0, 0x0c, 0, 1, 2, 3, 0xf0, 0, 0x0d, 0, 1, 2, 3}, "count name age singer", uint8(2), uint8(1))
	f.Add([]byte{1, 0x2a, 20, 21, 22, 0xf5, 0, 0x10, 1, 1, 1}, "", uint8(4), uint8(69))
	f.Add([]byte{2, 0x05, 3, 3, 0x06, 3, 3, 0x07, 3, 3}, "Age AGE age, the; oldest", uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, query string, dbSel, kSel uint8) {
		if len(data) > 512 || len(query) > 256 {
			return
		}
		dbs := []string{"", "a", "b", "c", "unknown"}
		db := dbs[int(dbSel)%len(dbs)]
		k := 1 + int(kSel)%70
		base := 0
		if len(data) > 0 {
			base, data = int(data[0]), data[1:]
		}
		// Each demo is a header byte: 0xf0 and above duplicates the demo
		// the next byte picks; below it, the database is h%3 and the
		// question has 1+(h/3)%8 words, one byte of synthVocab each.
		var demos []dataset.Demo
		for len(data) > 0 && len(demos) < 60 {
			h := data[0]
			data = data[1:]
			if h >= 0xf0 {
				if len(demos) > 0 && len(data) > 0 {
					demos = append(demos, demos[int(data[0])%len(demos)])
					data = data[1:]
				}
				continue
			}
			words := make([]string, 0, 8)
			for w := 1 + int(h/3)%8; w > 0 && len(data) > 0; w-- {
				words = append(words, synthVocab[int(data[0])%len(synthVocab)])
				data = data[1:]
			}
			demos = append(demos, dataset.Demo{
				DB:       string(rune('a' + h%3)),
				Question: strings.Join(words, " "),
				SQL:      fmt.Sprintf("SELECT %d", len(demos)),
			})
		}
		base = min(base, len(demos))
		s := NewStore(demos[:base])
		check := func() {
			want, got := searchByDefinition(s, query, db, k), s.Search(query, db, k)
			if !sameResults(want, got) {
				t.Fatalf("pool=%d q=%q db=%q k=%d: results diverge\nwant: %+v\ngot:  %+v", s.Len(), query, db, k, want, got)
			}
		}
		check()
		for _, d := range demos[base:] {
			s.Add(d)
			check()
		}
	})
}

// TestParallelBuildIdentity requires the IDF table and every partition's
// ids and postings to be bit-identical at any build worker count.
func TestParallelBuildIdentity(t *testing.T) {
	demos := synthPool(rand.New(rand.NewSource(7)), 1207, []string{"a", "b", "c", "d"})
	serial := newStore(demos, 1)
	for _, workers := range []int{2, 3, 8, 64} {
		par := newStore(demos, workers)
		if !reflect.DeepEqual(serial.idf, par.idf) {
			t.Fatalf("workers=%d: IDF tables diverge", workers)
		}
		if !reflect.DeepEqual(serial.parts, par.parts) {
			t.Fatalf("workers=%d: partitions diverge", workers)
		}
	}
}

// TestAddFoldsDemo checks the incremental path: an added demo is
// immediately retrievable, duplicates are skipped, and existing results are
// byte-identical before and after (frozen IDF: growing the pool must not
// re-weight anything).
func TestAddFoldsDemo(t *testing.T) {
	// The sub-test is named for the index it runs: the exact inverted index.
	t.Run("exact", func(t *testing.T) {
		s := NewStore(pool())
		before := s.Search("list the name of all singers", "music", 3)

		d := dataset.Demo{DB: "films", Question: "How many films were released?", SQL: "SELECT COUNT(*) FROM film"}
		if !s.Add(d) {
			t.Fatal("first Add returned false")
		}
		if s.Add(d) {
			t.Fatal("duplicate Add returned true")
		}
		if s.Len() != len(pool())+1 {
			t.Fatalf("Len = %d", s.Len())
		}
		hits := s.Search("how many films released", "films", 2)
		if len(hits) == 0 || hits[0].Demo.SQL != d.SQL {
			t.Fatalf("added demo not retrieved: %+v", hits)
		}
		after := s.Search("list the name of all singers", "music", 3)
		assertSameResults(t, "pre-existing results changed by Add", before, after)

		st := s.Stats()
		if st.Inserts != 1 || st.DupSkips != 1 || st.Entries != len(pool())+1 || st.Base != len(pool()) {
			t.Fatalf("stats: %+v", st)
		}
	})
}

// TestConcurrentAddSearch is the -race stress: concurrent Adds, Searches
// and Stats snapshots must be race-clean and converge to the right pool
// size.
func TestConcurrentAddSearch(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		s := NewStore(synthPool(rand.New(rand.NewSource(7)), 200, []string{"a", "b"}))
		const writers, perWriter, readers = 4, 40, 4
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					s.Add(dataset.Demo{
						DB:       "a",
						Question: fmt.Sprintf("concurrent question %d from writer %d", i, w),
						SQL:      fmt.Sprintf("SELECT %d, %d", w, i),
					})
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					s.Search("concurrent question count list", "a", 8)
					if i%10 == 0 {
						s.Stats()
					}
				}
			}(r)
		}
		wg.Wait()
		if got, want := s.Len(), 200+writers*perWriter; got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
		hits := s.Search("concurrent question 39 from writer 3", "a", 1)
		if len(hits) == 0 {
			t.Fatal("folded demo not retrievable after concurrent run")
		}
	})
}

// TestSearchObserverToggle installs and removes the search observer while
// searches run. Under -race, a removal that is not synchronized with the
// Search that reads the observer is reported.
func TestSearchObserverToggle(t *testing.T) {
	s := NewStore(pool())
	var observed atomic.Int64
	obs := func(time.Duration) { observed.Add(1) }
	done := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-done:
				return
			default:
			}
			s.SetSearchObserver(obs)
			s.SetSearchObserver(nil)
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Search("how many singers are there", "music", 2)
			}
		}()
	}
	wg.Wait()
	close(done)
	<-toggled

	observed.Store(0)
	s.SetSearchObserver(obs)
	s.Search("how many singers are there", "music", 2)
	if got := observed.Load(); got != 1 {
		t.Fatalf("installed observer saw %d searches, want 1", got)
	}
	s.SetSearchObserver(nil)
	s.Search("how many singers are there", "music", 2)
	if got := observed.Load(); got != 1 {
		t.Fatalf("removed observer saw %d searches, want 1", got)
	}
}
