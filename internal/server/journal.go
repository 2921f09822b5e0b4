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
	// every live session — but the next restart will replay records the
	// store already evicted, so the operator should know.
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
	s.replaying.Store(true)
	defer s.replaying.Store(false)

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
	groups, dropped := groupRecords(recs)
	info.Skipped += dropped
	for _, group := range groups {
		sess, skipped, ok := s.replayGroup(ctx, group)
		info.Skipped += skipped
		if !ok {
			continue
		}
		// Register in creation order: with a store cap below the journal's
		// session count, the earliest-created sessions are the LRU victims,
		// matching what the pre-crash eviction order journaled.
		s.store.put(group[0].Session, sess)
	}
	// Reconcile: sessions the replay itself evicted (store cap below the
	// journal's session count) are dead; checkpoint the journal down to
	// exactly the surviving state so the next recovery replays no ghosts.
	live := s.store.ids()
	s.journal.Retain(func(id string) bool { return live[id] })
	info.CheckpointErr = s.journal.Checkpoint()
	info.Sessions = s.store.len()
	info.Duration = time.Since(t0)
	s.recovery = info
}

// groupRecords splits a record stream into per-session groups, each
// beginning at its TCreate. Journal record streams (Records and
// SessionRecords in internal/persist, and the replicated follower stream)
// keep each session's records contiguous in creation order, so a group is
// a maximal run starting at a create. dropped counts records preceding the
// first create — possible only in a torn or partial replica stream.
func groupRecords(recs []persist.Record) (groups [][]persist.Record, dropped int) {
	start := -1
	for i, rec := range recs {
		if rec.Type == persist.TCreate {
			if start >= 0 {
				groups = append(groups, recs[start:i])
			} else {
				dropped = i
			}
			start = i
		}
	}
	if start >= 0 {
		groups = append(groups, recs[start:])
	} else {
		dropped = len(recs)
	}
	return groups, dropped
}

// replayGroup rebuilds one session from its journal records (group[0] must
// be the TCreate) — the shared deterministic-replay path of startup
// recovery and cluster adoption. Each turn record goes through the same
// apply as a live request, then through commit's publish half (the record
// is already journaled). The returned session is not yet registered in the
// store. ok is false when the corpus or database no longer exists; skipped
// counts turns that errored or records replay does not apply (delete and
// handoff markers, which a live group never contains).
//
// The hub only ever sees turns that reached the journal, and replay is
// deterministic, so a rebuilt topic re-seeds the same sequence numbers with
// byte-identical payloads — a subscriber resuming via Last-Event-ID against
// a restarted or promoted owner continues the sequence it was reading, with
// no regress and no duplicate turn.
func (s *Server) replayGroup(ctx context.Context, group []persist.Record) (sess *session, skipped int, ok bool) {
	create := group[0]
	sys, found := s.systems[create.Corpus]
	if !found || !hasDatabase(sys, create.DB) {
		return nil, len(group), false
	}
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
		_, _, _, _ = s.publishTurn(nil, rec, ans)
	}
	return sess, skipped, true
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
// session is rebuilt by deterministic replay, journaled into this node's
// own journal (and replicated onward to its new follower), then registered
// in the store — the same recovery path a restart uses, so the adopted
// history is byte-identical to what the dead owner had acknowledged.
// Sessions already present are skipped, making a retried promotion
// idempotent.
func (s *Server) AdoptSessions(recs []persist.Record) AdoptResult {
	ctx := context.Background()
	var res AdoptResult
	groups, dropped := groupRecords(recs)
	res.Skipped += dropped
	for _, group := range groups {
		id := group[0].Session
		if s.store.has(id) {
			continue
		}
		sess, skipped, ok := s.replayGroup(ctx, group)
		res.Skipped += skipped
		if !ok {
			continue
		}
		adopted := true
		for _, rec := range group {
			if err := s.journalAppend(rec); err != nil {
				if isReplicationError(err) {
					// Locally durable; the replicator resyncs the follower in
					// full on the session's next turn (it tracks per-session
					// follower state and resends everything after a failure).
					continue
				}
				// This node's own journal broke: adopting anyway would hold
				// a session the journal never captured. Un-journal the
				// partial group (best effort) and leave the session behind.
				_ = s.journal.Append(persist.Record{Type: persist.TDelete, Session: id})
				adopted = false
				res.Skipped += len(group)
				break
			}
		}
		if !adopted {
			// The replay already opened and seeded the fanout topic; tear it
			// down with the abandoned session.
			s.hub.CloseTopic(id)
			continue
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
