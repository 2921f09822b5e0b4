package server

import (
	"context"
	"strconv"
	"strings"
	"time"

	"fisql/internal/persist"
)

// RecoveryInfo summarizes a journal replay performed by New.
type RecoveryInfo struct {
	// Records is the number of journal records replayed (including ones
	// skipped because their corpus or database no longer exists).
	Records int
	// Sessions is the number of sessions live after recovery.
	Sessions int
	// Skipped counts records that could not be applied: unknown corpus or
	// database, or a replayed turn that errored (possible only when the
	// model is not deterministic).
	Skipped int
	// TruncatedBytes is the torn/corrupt tail the journal dropped at Open.
	TruncatedBytes int64
	// Duration is the wall time of the replay.
	Duration time.Duration
	// CheckpointErr is the error from the post-recovery checkpoint (nil on
	// success). A failed checkpoint is not fatal — the journal still holds
	// every live session — but the next restart will read again the
	// records of sessions the store cap left out, so the operator should
	// know.
	CheckpointErr error
}

// Recovery reports the journal replay New performed (zero when no journal
// is configured).
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// recoverJournal rebuilds the pre-crash sessions by replaying the
// journal's surviving records through apply, the path live turns take.
// Replay is deterministic — the simulated model, plan cache and answer
// memo reproduce each turn exactly — so a recovered session's history is
// byte-identical to the one the crash interrupted. Unknown corpora or
// databases (a redeploy dropped them) skip the session instead of failing
// recovery. Runs before the server serves any request.
func (s *Server) recoverJournal() {
	t0 := time.Now()
	ctx := context.Background()
	recs := s.journal.Records()
	info := RecoveryInfo{Records: len(recs), TruncatedBytes: s.journal.Stats().TruncatedBytes}
	// Advance the id counter past every id the journal ever issued —
	// including deleted sessions, whose records are dropped from replay. A
	// client still holding a dead id must keep getting 404, not a fresh
	// session that happened to reuse it. The persisted watermark covers ids
	// whose create records compaction already dropped (a delete followed by
	// a checkpoint erases every trace of the session from SessionsSeen);
	// SessionsSeen covers ids that appear only in torn or partial groups.
	s.raiseNextID(s.journal.Watermark())
	for _, id := range s.journal.SessionsSeen() {
		s.raiseNextID(sessionNumber(id))
	}
	groups, skipped := s.replayable(recs)
	info.Skipped += skipped
	// Replay only the sessions the store cap keeps: with a cap lowered
	// across the restart, the earliest-created sessions are the ones a put
	// in creation order would evict. So no put evicts here, and replay
	// journals nothing.
	if s.maxSessions > 0 && len(groups) > s.maxSessions {
		groups = groups[len(groups)-s.maxSessions:]
	}
	for _, group := range groups {
		sess, skipped := s.replayGroup(ctx, group)
		info.Skipped += skipped
		s.store.put(group[0].Session, sess)
	}
	// Reconcile: sessions over the cap were not replayed; checkpoint the
	// journal down to exactly the surviving state so the next recovery
	// replays no ghosts.
	live := s.store.ids()
	s.journal.Retain(func(id string) bool { return live[id] })
	info.CheckpointErr = s.journal.Checkpoint()
	info.Sessions = s.store.len()
	info.Duration = time.Since(t0)
	s.recovery = info
}

// replayable splits a record stream into per-session groups, each beginning
// at its TCreate, and keeps those whose corpus and database still exist.
// Journal record streams (Records and SessionRecords in internal/persist,
// and the replicated follower stream) keep each session's records
// contiguous in creation order, so a group is a maximal run starting at a
// create. skipped counts the records of dropped groups and those preceding
// the first create — possible only in a torn or partial replica stream.
func (s *Server) replayable(recs []persist.Record) (groups [][]persist.Record, skipped int) {
	start := -1
	for i := 0; i <= len(recs); i++ {
		if i < len(recs) && recs[i].Type != persist.TCreate {
			continue
		}
		if start < 0 {
			skipped = i
		} else if sys, ok := s.systems[recs[start].Corpus]; ok && hasDatabase(sys, recs[start].DB) {
			groups = append(groups, recs[start:i])
		} else {
			skipped += i - start
		}
		start = i
	}
	return groups, skipped
}

// replayGroup rebuilds one session from its journal records (group[0] must
// be the TCreate of a replayable group) — the shared deterministic-replay
// path of startup recovery and cluster adoption. Each turn record goes
// through the same apply as a live request, then through publishTurn (the
// record is already journaled). The returned session is not yet registered
// in the store. skipped counts turns that errored or records replay does
// not apply (delete and handoff markers, which a live group never
// contains).
//
// The hub only ever sees turns that reached the journal, and replay is
// deterministic, so a rebuilt topic re-seeds the same sequence numbers with
// byte-identical payloads — a subscriber resuming via Last-Event-ID against
// a restarted or promoted owner continues the sequence it was reading, with
// no regress and no duplicate turn.
func (s *Server) replayGroup(ctx context.Context, group []persist.Record) (sess *session, skipped int) {
	create := group[0]
	sess = s.openSession(create.Session, create.Corpus, create.DB)
	for _, rec := range group[1:] {
		if rec.Type != persist.TAsk && rec.Type != persist.TFeedback {
			skipped++
			continue
		}
		rec, ans, _, err := s.apply(ctx, sess, rec)
		if err != nil {
			skipped++
			continue
		}
		s.publishTurn(nil, rec, ans)
	}
	return sess, skipped
}

// AdoptResult reports what AdoptSessions did.
type AdoptResult struct {
	// Adopted lists the session ids now live on this node.
	Adopted []string
	// Skipped counts records that could not be applied (unknown corpus or
	// database, errored replay turns, or a group abandoned because this
	// node's own journal failed while adopting it).
	Skipped int
	// MaxID is the highest numeric session id among the adopted records (0
	// when none parse); the caller folds it into its id watermark so ids
	// are never reused across a promotion.
	MaxID int64
}

// AdoptSessions takes ownership of sessions replicated to this node: recs
// is the follower-journal record stream of the sessions to adopt, per-
// session contiguous with each group beginning at its TCreate. Each
// session is rebuilt by deterministic replay, committed record by record
// into this node's own journal (and replicated onward to its new
// follower), then registered in the store — the same recovery path a
// restart uses, so the adopted history is byte-identical to what the dead
// owner had acknowledged. Sessions already present are skipped, making a
// retried promotion idempotent.
func (s *Server) AdoptSessions(recs []persist.Record) AdoptResult {
	ctx := context.Background()
	groups, skipped := s.replayable(recs)
	res := AdoptResult{Skipped: skipped}
adopt:
	for _, group := range groups {
		id := group[0].Session
		if s.store.has(id) {
			continue
		}
		sess, skipped := s.replayGroup(ctx, group)
		res.Skipped += skipped
		for _, rec := range group {
			// A replication failure leaves the record durable here: the
			// replicator resyncs the follower on the session's next turn. A
			// local failure means this node's journal broke, and adopting
			// anyway would hold a session it never captured: end the partial
			// group, which also closes the topic the replay seeded.
			if err := s.commit(rec); err != nil && !isReplicationError(err) {
				_ = s.end(sess, deleteRecord(id)) // never registered, so never kept
				res.Skipped += len(group)
				continue adopt
			}
		}
		s.store.put(id, sess)
		res.Adopted = append(res.Adopted, id)
		if n := sessionNumber(id); n > res.MaxID {
			res.MaxID = n
		}
	}
	// Fresh ids issued here must never collide with adopted ones.
	s.raiseNextID(res.MaxID)
	return res
}

func hasDatabase(sys SessionFactory, db string) bool {
	for _, d := range sys.Databases() {
		if d == db {
			return true
		}
	}
	return false
}

// sessionNumber parses the numeric part of a session id ("s42" → 42), or 0
// for an id that has none.
func sessionNumber(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "s"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// raiseNextID moves the id counter up to n if it is below, never down, so
// fresh ids stay ahead of every id issued, preset, recovered or adopted.
func (s *Server) raiseNextID(n int64) {
	for {
		cur := s.nextID.Load()
		if cur >= n || s.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}
