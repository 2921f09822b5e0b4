// Package rag implements the retrieval-augmented demonstration selection of
// the Assistant: a TF-IDF vector index over the demonstration pool with
// cosine-similarity top-k search, filtered per database.
//
// The pool is served through a pluggable Index (see index.go): the exact
// index scans every posting list (the seed behavior), the HNSW index
// (hnsw.go) navigates an approximate-nearest-neighbor graph and hands its
// candidate set to an exact rerank, so retrieval cost stays near-flat as the
// pool grows. Either way the top-k that Search returns is computed by the
// same exact cosine scoring and pool-order tie-break, which is what makes
// the two indexes byte-identical on corpora the HNSW candidates cover (the
// retrieval differential gate holds this at zero misses).
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

// posting is one (term, weight) entry of a normalized TF-IDF vector.
// Vectors are stored as term-sorted posting lists so cosine similarity is a
// linear merge-join instead of map probes over re-sorted keys per Search.
type posting struct {
	term string
	w    float64
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
	vecs  [][]posting
	idf   map[string]float64
	// baseN is the pool size the IDF table was derived from; it also fixes
	// the unseen-term weight so query vectorization is independent of later
	// inserts.
	baseN int
	seen  map[demoKey]struct{}
	index Index

	searches atomic.Int64
	hits     atomic.Int64
	inserts  atomic.Int64
	dups     atomic.Int64
	// searchObs, when set, observes every Search's wall time (the serving
	// path's fisql_rag_search_seconds histogram).
	searchObs atomic.Value // func(time.Duration)
}

// Options configures a Store build.
type Options struct {
	// Index selects the retrieval index: IndexExact (default) or IndexHNSW.
	Index IndexKind
	// HNSW parameterizes the HNSW graph when Index is IndexHNSW; zero
	// fields take defaults.
	HNSW HNSWConfig
	// Workers bounds the build's worker pool (0 = GOMAXPROCS, 1 = serial).
	// The built store — document frequencies, IDF table and every vector —
	// is bit-identical at any worker count.
	Workers int
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

// NewStore indexes the demonstration pool with the exact scan index and
// default build parallelism — the drop-in equivalent of the seed store.
func NewStore(demos []dataset.Demo) *Store {
	return NewStoreOptions(demos, Options{})
}

// NewStoreOptions indexes the demonstration pool. The tokenize/IDF/vector
// passes run on a worker pool; document frequencies merge by integer
// addition and each vector is a pure function of its demo and the merged
// IDF table, so the build is deterministic at any worker count. The index
// itself is populated serially in pool order, which keeps HNSW graph
// construction reproducible.
func NewStoreOptions(demos []dataset.Demo, opt Options) *Store {
	s := &Store{
		demos: demos,
		idf:   make(map[string]float64),
		baseN: len(demos),
		seen:  make(map[demoKey]struct{}, len(demos)),
	}
	workers := opt.Workers
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
	s.vecs = make([][]posting, len(demos))
	runChunks(len(demos), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.vecs[i] = s.vector(tokenLists[i])
		}
	})

	// Pass 3: populate the index serially in pool order (reproducible HNSW
	// builds) and the dedup set.
	switch opt.Index {
	case IndexHNSW:
		s.index = newHNSWIndex(opt.HNSW)
	default:
		s.index = newExactIndex()
	}
	for i, d := range demos {
		s.seen[demoKey{d.DB, d.Question, d.SQL}] = struct{}{}
		s.index.Insert(i, d.DB, s.vecs[i])
	}
	// A bulk build is the one moment the whole graph is known; let the index
	// settle its memory layout before serving (no-op for the exact scan).
	if o, ok := s.index.(interface{ optimize() }); ok {
		o.optimize()
	}
	return s
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

// cosine merge-joins two term-sorted posting lists. Shared terms are visited
// in sorted term order — the same accumulation order the map-based
// implementation used, and TF-IDF weights are non-negative with absent terms
// contributing exactly +0.0 — so scores are bit-identical to it.
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

// Result is one retrieval hit.
type Result struct {
	Demo  dataset.Demo
	Score float64
}

// queryScratch holds the per-Search temporaries — token list and query
// posting vector — so the serving path's hottest retrieval allocations are
// recycled across requests. The scratch never escapes: hits are built
// fresh, and qv is returned to the pool before Search returns.
type queryScratch struct {
	toks []string
	qv   []posting
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
// The index supplies a candidate id set (the whole db partition for the
// exact index, an ANN neighborhood for HNSW); every candidate is then
// re-scored with the exact cosine and selected by the exact path's
// descending-score, pool-order-tie-break rule. Candidate ids arrive in
// ascending pool order, so whenever the candidate set covers the true
// top-k, the result — demos, scores and order — is byte-identical to an
// exact scan.
func (s *Store) Search(query, db string, k int) []Result {
	if k <= 0 {
		return nil
	}
	obsFn, _ := s.searchObs.Load().(func(time.Duration))
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
	cands := s.index.Candidates(qv, db, k)
	// Bounded top-k selection: keep at most k hits, ordered by descending
	// score with pool order breaking ties. Inserting each new hit after all
	// entries scoring >= its score reproduces exactly what a stable
	// descending sort of all hits followed by truncation would keep, without
	// materializing or sorting the full hit list.
	hits := make([]Result, 0, k+1)
	for _, id := range cands {
		scr := cosine(qv, s.vecs[id])
		if scr <= 0 {
			continue
		}
		if len(hits) == k && hits[k-1].Score >= scr {
			continue
		}
		pos := len(hits)
		for pos > 0 && hits[pos-1].Score < scr {
			pos--
		}
		hits = append(hits, Result{})
		copy(hits[pos+1:], hits[pos:])
		hits[pos] = Result{Demo: s.demos[id], Score: scr}
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
	vec := s.vector(Tokenize(d.Question))
	s.vecs = append(s.vecs, vec)
	s.index.Insert(id, d.DB, vec)
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

// IndexKindName reports which index implementation serves this store.
func (s *Store) IndexKindName() string { return s.index.Kind() }

// SetSearchObserver installs fn to observe every Search's wall time (nil
// disables). Used by the serving path's retrieval latency histogram.
func (s *Store) SetSearchObserver(fn func(time.Duration)) {
	if fn == nil {
		s.searchObs = atomic.Value{}
		return
	}
	s.searchObs.Store(fn)
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
	// Index names the index implementation; IndexProbes counts the searches
	// it actually served (the CI gate that HNSW is not silently bypassed).
	Index       string
	IndexProbes int64
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	entries := len(s.demos)
	base := s.baseN
	kind := s.index.Kind()
	probes := s.index.Probes()
	s.mu.RUnlock()
	return Stats{
		Entries:  entries,
		Base:     base,
		Searches: s.searches.Load(),
		Hits:     s.hits.Load(),
		Inserts:  s.inserts.Load(),
		DupSkips: s.dups.Load(),
		Index:    kind, IndexProbes: probes,
	}
}
