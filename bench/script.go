package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"fisql"
	"fisql/internal/assistant"
	"fisql/internal/engine"
	"fisql/internal/eval"
	"fisql/internal/feedback"
)

// sessionSize is the number of examples one scripted session works
// through before it is dropped: long enough that per-session state
// (history, pubsub ring, journal records) is exercised, short enough that a
// pass opens a few hundred sessions.
const sessionSize = 8

// feedbackRounds is Figure 8's protocol: at most two rounds of feedback
// per wrong answer.
const feedbackRounds = 2

// sessionOpts is the full FISQL configuration the shipped server pins
// (cmd/fisql-server's sysAdapter): routing on, highlights on.
var sessionOpts = fisql.Options{Routing: true, Highlights: true}

// corpus is one benchmark system under its serving name.
type corpus struct {
	name string // "spider" or "aep", the server's corpus key
	sys  *fisql.System
}

// turn is one ask or one feedback of the script, with the request the
// HTTP workloads send for it and the answer every workload must get back.
type turn struct {
	feedback bool
	// question is the ask text; for a feedback turn it is the question the
	// feedback refers to (the session's current one).
	question string
	// Feedback inputs; hl is nil without a highlight.
	text string
	hl   *feedback.Highlight
	// prevSQL is the query the feedback is given on (traced replay input).
	prevSQL string
	// body is the pre-marshalled POST body for the HTTP workloads.
	body []byte
	// sql is the SQL the turn must answer with, rows the FNV-64a of the
	// result it must carry (see hashAnswer).
	sql  string
	rows uint64
}

// scriptSession is one session of the script: up to sessionSize examples
// of one database, asked in order, each followed by its feedback rounds.
type scriptSession struct {
	corpus     string
	db         string
	createBody []byte
	turns      []turn
}

// tally is the paper-facing outcome of the script on one corpus: the
// numbers fisql-eval prints for the same options (EXPERIMENTS.md §4.1,
// Table 3, Figure 8).
type tally struct {
	Examples       int `json:"examples"`
	OneShotErrors  int `json:"one_shot_errors"`
	Annotated      int `json:"annotated"`
	CorrectedByR1  int `json:"corrected_by_round_1"`
	CorrectedByR2  int `json:"corrected_by_round_2"`
	FeedbackTurns  int `json:"feedback_turns"`
	SessionsOpened int `json:"sessions"`
}

// script is the paper loop as a fixed list of turns: every example of
// every corpus asked once, every wrong answer followed by the annotator's
// feedback until the repair matches gold or the rounds run out.
type script struct {
	sessions  []scriptSession
	asks      int
	feedbacks int
	tallies   map[string]*tally
	// hash covers every input and every expected output, so two scripts
	// are equal exactly when their hashes are.
	hash uint64
}

func (s *script) turns() int { return s.asks + s.feedbacks }

// buildScript runs the paper loop once through the library path
// (fisql.System.Session → Ask/Feedback) and records it. Examples are
// shuffled by seed and grouped sessionSize per session by database; the
// program under test never sees the seed, only the turns. maxSessions > 0
// stops after that many sessions (harness tests); 0 builds the whole loop.
func buildScript(corpora []corpus, seed int64, maxSessions int) (*script, error) {
	type item struct {
		c  int
		ex int
	}
	var items []item
	for ci, c := range corpora {
		for ei := range c.sys.DS.Examples {
			items = append(items, item{ci, ei})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	// Bucket by (corpus, db) in shuffled order, then cut each bucket into
	// sessions. Sessions are emitted in order of their first example's
	// shuffled position so corpora and databases interleave.
	type bucketKey struct {
		c  int
		db string
	}
	type group struct {
		first int
		key   bucketKey
		exs   []int
	}
	open := map[bucketKey]*group{}
	var groups []*group
	for pos, it := range items {
		k := bucketKey{it.c, corpora[it.c].sys.DS.Examples[it.ex].DB}
		g := open[k]
		if g == nil {
			g = &group{first: pos, key: k}
			open[k] = g
			groups = append(groups, g)
		}
		g.exs = append(g.exs, it.ex)
		if len(g.exs) == sessionSize {
			delete(open, k)
		}
	}

	ctx := context.Background()
	sc := &script{tallies: map[string]*tally{}}
	// Execution match against gold, as eval.Match does it, but on a plan
	// cache that dies with this call: eval's is process-global and keyed by
	// database pointer, so it would keep every repeated set-up's corpora
	// reachable and inflate heap_live_mb.
	golds := engine.NewCache(0)
	match := func(db *engine.Database, goldSQL, predSQL string) bool {
		gold, err := golds.Query(db, goldSQL)
		if err != nil {
			return false
		}
		pred, err := golds.Query(db, predSQL)
		if err != nil {
			return false
		}
		return engine.EqualResults(gold, pred)
	}
	annots := make([]*feedback.Annotator, len(corpora))
	for ci, c := range corpora {
		annots[ci] = eval.NewAnnotator(c.sys.DS)
		sc.tallies[c.name] = &tally{Examples: len(c.sys.DS.Examples)}
	}
	if maxSessions > 0 && len(groups) > maxSessions {
		groups = groups[:maxSessions]
	}
	for _, g := range groups {
		c := corpora[g.key.c]
		tl := sc.tallies[c.name]
		tl.SessionsOpened++
		ss := scriptSession{corpus: c.name, db: g.key.db}
		ss.createBody = mustJSON(map[string]string{"corpus": c.name, "db": g.key.db})
		sess := c.sys.Session(g.key.db, sessionOpts)
		dbase := c.sys.DS.DBs[g.key.db]
		for _, ei := range g.exs {
			e := c.sys.DS.Examples[ei]
			ans, err := sess.Ask(ctx, e.Question)
			if err != nil {
				return nil, fmt.Errorf("script: ask %s: %w", e.ID, err)
			}
			ss.turns = append(ss.turns, turn{
				question: e.Question,
				body:     mustJSON(map[string]string{"question": e.Question}),
				sql:      ans.SQL,
				rows:     hashAnswer(ans),
			})
			sc.asks++
			if match(dbase, e.Gold, ans.SQL) {
				continue
			}
			tl.OneShotErrors++
			cur := ans.SQL
			for round := 1; round <= feedbackRounds; round++ {
				fb, ok := annots[g.key.c].Annotate(e, cur, round, true)
				if !ok {
					break
				}
				if round == 1 {
					tl.Annotated++
				}
				ans, err := sess.Feedback(ctx, fb.Text, fb.Highlight)
				if err != nil {
					return nil, fmt.Errorf("script: feedback %s round %d: %w", e.ID, round, err)
				}
				req := map[string]any{"text": fb.Text}
				if fb.Highlight != nil {
					req["highlight"] = fb.Highlight.Text
					req["highlight_start"] = fb.Highlight.Start
				}
				ss.turns = append(ss.turns, turn{
					feedback: true,
					question: e.Question,
					text:     fb.Text,
					hl:       fb.Highlight,
					prevSQL:  cur,
					body:     mustJSON(req),
					sql:      ans.SQL,
					rows:     hashAnswer(ans),
				})
				sc.feedbacks++
				tl.FeedbackTurns++
				cur = ans.SQL
				if match(dbase, e.Gold, cur) {
					if round == 1 {
						tl.CorrectedByR1++
					}
					tl.CorrectedByR2++
					break
				}
			}
		}
		sc.sessions = append(sc.sessions, ss)
	}
	sc.hash = sc.computeHash()
	return sc, nil
}

func (s *script) computeHash() uint64 {
	h := newCellHash()
	for i := range s.sessions {
		ss := &s.sessions[i]
		h.cell(ss.corpus)
		h.cell(ss.db)
		for j := range ss.turns {
			t := &ss.turns[j]
			h.cell(string(t.body))
			h.cell(t.sql)
			h.cell(strconv.FormatUint(t.rows, 16))
		}
		h.sep()
	}
	return h.sum()
}

// hashAnswer is the FNV-64a of an answer's result as a client sees it: the
// column names and every cell's rendering, or the execution error text.
func hashAnswer(ans *assistant.Answer) uint64 {
	if ans.ExecErr != nil {
		return hashCells(nil, nil, ans.ExecErr.Error())
	}
	if ans.Result == nil {
		return hashCells(nil, nil, "")
	}
	h := newCellHash()
	for _, c := range ans.Result.Columns {
		h.cell(c)
	}
	h.sep()
	for _, row := range ans.Result.Rows {
		for _, v := range row {
			h.cell(v.String())
		}
		h.sep()
	}
	return h.sum()
}

// hashCells is hashAnswer over the wire form (the server's JSON body).
func hashCells(cols []string, rows [][]string, execErr string) uint64 {
	h := newCellHash()
	if execErr != "" {
		h.cell("error")
		h.cell(execErr)
		return h.sum()
	}
	for _, c := range cols {
		h.cell(c)
	}
	h.sep()
	for _, row := range rows {
		for _, v := range row {
			h.cell(v)
		}
		h.sep()
	}
	return h.sum()
}

// cellHash is an allocation-free FNV-64a over length-delimited cells.
type cellHash struct{ h uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newCellHash() *cellHash { return &cellHash{h: fnvOffset64} }

func (c *cellHash) byte(b byte) { c.h = (c.h ^ uint64(b)) * fnvPrime64 }

func (c *cellHash) cell(s string) {
	for i := 0; i < len(s); i++ {
		c.byte(s[i])
	}
	c.byte(0x1f)
}

func (c *cellHash) sep() { c.byte(0x1e) }

func (c *cellHash) sum() uint64 { return c.h }

// hashBytes is the FNV-64a of a response body.
func hashBytes(b []byte) uint64 {
	h := cellHash{h: fnvOffset64}
	for _, c := range b {
		h.byte(c)
	}
	return h.sum()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and ints cannot fail to marshal
	}
	return b
}
