// Package rag implements the retrieval-augmented demonstration selection of
// the Assistant: a TF-IDF vector index over the demonstration pool with
// cosine-similarity top-k search, filtered per database.
//
// Search is exact: it scores every demonstration in the requested database
// partition (or the whole pool) through an inverted index and keeps the
// top k, breaking score ties by pool order.
//
// Unlike the seed store, a Store is mutable: Add folds new demonstrations —
// the serving path's successful feedback corrections — into the pool at any
// time, concurrently with searches.
package rag

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"fisql/internal/dataset"
)

// posting is one (term, weight) entry of a normalized TF-IDF vector,
// sorted by term within its vector.
type posting struct {
	term string
	w    float64
}

// entry is one demo's weight for a term, at its position in a partition.
type entry struct {
	pos int32
	w   float64
}

// partition indexes the demos of one database. ids lists their pool ids in
// pool order, and a demo's position is its index in ids. postings maps each
// term to the entries of the demos that contain it, in position order.
type partition struct {
	ids      []int32
	postings map[string][]entry
}

// demoKey identifies a demonstration for insert deduplication.
type demoKey struct {
	db, question, sql string
}

// Store is a TF-IDF index over demonstrations. It is safe for concurrent
// use: Search takes a read lock and Add a write lock, so incremental inserts
// interleave with retrieval without ever exposing a partially-indexed entry.
//
// IDF weights are frozen at build time: demonstrations folded in later are
// vectorized against the build-time document frequencies (unseen terms get
// the build-time unseen-term weight). Re-deriving IDF per insert would
// silently re-weight every existing vector — an O(pool) rebuild per Add and
// a determinism hazard — so growing the pool never changes the score of any
// existing (query, demo) pair; a full NewStore rebuild refreshes IDF.
type Store struct {
	mu    sync.RWMutex
	demos []dataset.Demo
	idf   map[string]float64
	// baseN is the pool size the IDF table was derived from; it also fixes
	// the unseen-term weight so query vectorization is independent of later
	// inserts.
	baseN int
	seen  map[demoKey]struct{}
	// parts holds one inverted index per database.
	parts map[string]*partition

	searches atomic.Int64
	hits     atomic.Int64
	inserts  atomic.Int64
	dups     atomic.Int64
	// searchObs, when set, observes every Search's wall time (the serving
	// path's fisql_rag_search_seconds histogram).
	searchObs atomic.Pointer[func(time.Duration)]
}

// Tokenize splits text into lowercase alphanumeric terms.
func Tokenize(text string) []string {
	return appendTokens(nil, text)
}

// appendTokens appends text's tokens to dst. All-ASCII text is cut in place:
// a token without an upper-case letter is a substring of text, any other is
// strings.ToLower of its span. Other text takes appendTokensRunes.
func appendTokens(dst []string, text string) []string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return appendTokensRunes(dst, text)
		}
	}
	start := -1 // first byte of the open token
	for i := 0; i < len(text); i++ {
		c := text[i]
		if ('a' <= c && c <= 'z') || ('0' <= c && c <= '9') || ('A' <= c && c <= 'Z') {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = append(dst, strings.ToLower(text[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, strings.ToLower(text[start:]))
	}
	return dst
}

// appendTokensRunes is appendTokens for any text. Lowering happens per rune
// (identical to strings.ToLower, which applies unicode.ToLower rune-wise)
// so no lowered copy of the whole text is materialized.
func appendTokensRunes(dst []string, text string) []string {
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			dst = append(dst, sb.String())
			sb.Reset()
		}
	}
	for _, r := range text {
		r = unicode.ToLower(r)
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			sb.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return dst
}

// NewStore indexes the demonstration pool, with one build worker per
// GOMAXPROCS.
func NewStore(demos []dataset.Demo) *Store {
	return newStore(demos, 0)
}

// newStore indexes the demonstration pool on at most workers goroutines
// (0 = GOMAXPROCS). Document frequencies merge by integer addition and each
// vector is a pure function of its demo and the merged IDF table, so the
// built store is bit-identical at any worker count.
func newStore(demos []dataset.Demo, workers int) *Store {
	s := &Store{
		demos: demos,
		idf:   make(map[string]float64),
		baseN: len(demos),
		seen:  make(map[demoKey]struct{}, len(demos)),
		parts: make(map[string]*partition),
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(demos) {
		workers = len(demos)
	}
	if workers < 1 {
		workers = 1
	}

	// Pass 1: tokenize every demo and count per-chunk document frequencies.
	// Each worker owns a disjoint demo range; the local df maps merge by
	// addition, so the merged counts are independent of chunking.
	tokenLists := make([][]string, len(demos))
	localDF := make([]map[string]int, workers)
	runChunks(len(demos), workers, func(w, lo, hi int) {
		df := make(map[string]int)
		seen := make(map[string]bool)
		for i := lo; i < hi; i++ {
			toks := Tokenize(demos[i].Question)
			tokenLists[i] = toks
			clear(seen)
			for _, t := range toks {
				if !seen[t] {
					seen[t] = true
					df[t]++
				}
			}
		}
		localDF[w] = df
	})
	df := map[string]int{}
	for _, ldf := range localDF {
		for t, c := range ldf {
			df[t] += c
		}
	}
	n := float64(len(demos)) + 1
	for t, d := range df {
		s.idf[t] = math.Log(n / (1 + float64(d)))
	}

	// Pass 2: build every vector. Slots are disjoint and each vector depends
	// only on its own token list plus the (now frozen) IDF table.
	vecs := make([][]posting, len(demos))
	runChunks(len(demos), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vecs[i] = s.vector(tokenLists[i])
		}
	})

	// Pass 3: fill the partitions and the dedup set in pool order.
	for i, d := range demos {
		s.seen[demoKey{d.DB, d.Question, d.SQL}] = struct{}{}
		s.insert(i, d.DB, vecs[i])
	}
	return s
}

// insert appends demo id, whose vector is vec, to its database's partition.
func (s *Store) insert(id int, db string, vec []posting) {
	p := s.parts[db]
	if p == nil {
		p = &partition{postings: make(map[string][]entry)}
		s.parts[db] = p
	}
	pos := int32(len(p.ids))
	p.ids = append(p.ids, int32(id))
	for _, e := range vec {
		p.postings[e.term] = append(p.postings[e.term], entry{pos: pos, w: e.w})
	}
}

// runChunks splits [0, n) into one contiguous chunk per worker and runs fn
// on each concurrently. fn(w, lo, hi) owns demos [lo, hi).
func runChunks(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n == 0 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// vector builds a normalized TF-IDF posting list sorted by term.
// Accumulation follows sorted term order: floating-point sums depend on
// order, and map iteration order varies run to run, which would make
// equal-similarity ties — and thus retrieval results — nondeterministic.
func (s *Store) vector(toks []string) []posting {
	return s.vectorInto(nil, toks)
}

// vectorInto builds the vector into vec's backing array (the Search
// scratch), or into an exactly sized new one when vec is nil. It sorts toks
// in place and counts each run of equal terms, so the postings come out
// sorted by term before any floating-point accumulation and scores are
// bit-identical to an unpooled build.
func (s *Store) vectorInto(vec []posting, toks []string) []posting {
	slices.Sort(toks)
	if vec == nil {
		distinct := 0
		for i := range toks {
			if i == 0 || toks[i] != toks[i-1] {
				distinct++
			}
		}
		vec = make([]posting, 0, distinct)
	}
	for i := 0; i < len(toks); {
		j := i + 1
		for j < len(toks) && toks[j] == toks[i] {
			j++
		}
		vec = append(vec, posting{term: toks[i], w: float64(j - i)})
		i = j
	}
	var norm float64
	for i := range vec {
		idf, ok := s.idf[vec[i].term]
		if !ok {
			idf = math.Log(float64(s.baseN) + 1) // unseen term
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

// Result is one retrieval hit.
type Result struct {
	Demo  dataset.Demo
	Score float64
}

// queryScratch holds the per-Search temporaries — token list, query
// posting vector and score accumulators — so the serving path's hottest
// retrieval allocations are recycled across requests. The scratch never
// escapes: hits are built fresh, and qv is returned to the pool before
// Search returns. Every acc slot is zero whenever the scratch is pooled.
type queryScratch struct {
	toks []string
	qv   []posting
	acc  []float64
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// release returns the scratch to the pool. Tokens and terms are substrings
// of the query, so they are cleared first: a pooled scratch must not keep
// the last query alive.
func (sc *queryScratch) release() {
	clear(sc.toks)
	clear(sc.qv)
	scratchPool.Put(sc)
}

// Search returns the top-k demonstrations for the query, restricted to the
// given database (empty db means no restriction). Ties break by pool order
// for determinism. k <= 0 returns nil.
//
// Each demo's score is its cosine with the query: the sum of the products
// of their shared terms' weights, added from +0 in sorted term order. The
// query's postings are term-sorted, so walking them in order and adding
// each product into the demo's accumulator performs exactly the additions
// of a merge-join of the two vectors, and the scores are bit-identical.
func (s *Store) Search(query, db string, k int) []Result {
	if k <= 0 {
		return nil
	}
	var obsFn func(time.Duration)
	if p := s.searchObs.Load(); p != nil {
		obsFn = *p
	}
	var t0 time.Time
	if obsFn != nil {
		t0 = time.Now()
	}
	sc := scratchPool.Get().(*queryScratch)
	defer sc.release()
	sc.toks = appendTokens(sc.toks[:0], query)

	s.mu.RLock()
	qv := s.vectorInto(sc.qv[:0], sc.toks)
	sc.qv = qv
	// acc is indexed by position in the database's partition, or by pool
	// id when the search spans every partition.
	var part *partition
	n := len(s.demos)
	if db != "" {
		part, n = s.parts[db], 0
		if part != nil {
			n = len(part.ids)
		}
	}
	if cap(sc.acc) < n {
		sc.acc = make([]float64, n)
	}
	acc := sc.acc[:n]
	if part != nil {
		part.score(acc, qv, nil)
	} else if db == "" {
		for _, p := range s.parts {
			p.score(acc, qv, p.ids)
		}
	}
	// Bounded top-k selection: keep at most k hits, ordered by descending
	// score with pool order breaking ties. Inserting each new hit after all
	// entries scoring >= its score reproduces exactly what a stable
	// descending sort of all hits followed by truncation would keep, without
	// materializing or sorting the full hit list.
	hits := make([]Result, 0, k+1)
	for pos := range acc {
		scr := acc[pos]
		acc[pos] = 0
		if scr <= 0 {
			continue
		}
		if len(hits) == k && hits[k-1].Score >= scr {
			continue
		}
		id := pos
		if part != nil {
			id = int(part.ids[pos])
		}
		i := len(hits)
		for i > 0 && hits[i-1].Score < scr {
			i--
		}
		hits = append(hits, Result{})
		copy(hits[i+1:], hits[i:])
		hits[i] = Result{Demo: s.demos[id], Score: scr}
		if len(hits) > k {
			hits = hits[:k]
		}
	}
	s.mu.RUnlock()

	s.searches.Add(1)
	if len(hits) > 0 {
		s.hits.Add(1)
	}
	if obsFn != nil {
		obsFn(time.Since(t0))
	}
	return hits
}

// score adds each product of a query weight and a demo weight into the
// demo's accumulator: acc[pos], or acc[ids[pos]] when ids is not nil. Each
// demo lies in one partition, so it receives its products in the query's
// sorted term order.
func (p *partition) score(acc []float64, qv []posting, ids []int32) {
	for _, q := range qv {
		es := p.postings[q.term]
		if ids == nil {
			for _, e := range es {
				acc[e.pos] += q.w * e.w
			}
		} else {
			for _, e := range es {
				acc[ids[e.pos]] += q.w * e.w
			}
		}
	}
}

// Add folds one demonstration into the pool, immediately visible to
// concurrent searches. An exact (db, question, sql) duplicate — the common
// case when many sessions converge on the same correction — is skipped, so
// repeated folds cannot balloon the pool; the return value reports whether
// the demo was inserted.
func (s *Store) Add(d dataset.Demo) bool {
	key := demoKey{d.DB, d.Question, d.SQL}
	s.mu.Lock()
	if _, dup := s.seen[key]; dup {
		s.mu.Unlock()
		s.dups.Add(1)
		return false
	}
	s.seen[key] = struct{}{}
	id := len(s.demos)
	s.demos = append(s.demos, d)
	s.insert(id, d.DB, s.vector(Tokenize(d.Question)))
	s.mu.Unlock()
	s.inserts.Add(1)
	return true
}

// Len reports the live pool size (base demonstrations plus folded inserts).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.demos)
}

// SetSearchObserver installs fn to observe every Search's wall time (nil
// disables). Used by the serving path's retrieval latency histogram.
func (s *Store) SetSearchObserver(fn func(time.Duration)) {
	if fn == nil {
		s.searchObs.Store(nil)
		return
	}
	s.searchObs.Store(&fn)
}

// Stats is a point-in-time snapshot of the store's always-on counters.
type Stats struct {
	// Entries is the live pool size; Base is the size at build time.
	Entries, Base int
	// Searches counts Search calls; Hits those that returned at least one
	// demonstration.
	Searches, Hits int64
	// Inserts counts successful Adds, DupSkips deduplicated ones.
	Inserts, DupSkips int64
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	entries := len(s.demos)
	base := s.baseN
	s.mu.RUnlock()
	return Stats{
		Entries:  entries,
		Base:     base,
		Searches: s.searches.Load(),
		Hits:     s.hits.Load(),
		Inserts:  s.inserts.Load(),
		DupSkips: s.dups.Load(),
	}
}
