// Package persist is the durability layer of the serving stack: an
// append-only, CRC32-framed journal of session lifecycle events
// (create/ask/feedback/delete) from which a restarted server rebuilds its
// sessions by deterministic replay through the normal ask/feedback
// pipeline. No session state is serialized — the deterministic simulated
// model plus the plan cache and answer memo make re-deriving it cheaper and
// simpler than snapshotting it (see DESIGN.md "Durability").
//
// The file format is a sequence of length-prefixed frames (record.go). A
// crash can tear at most the frame being written; Open truncates the file
// at the first torn or corrupt frame instead of failing, so every turn
// acknowledged before the crash survives. Compaction rewrites the file with
// an id high-watermark frame followed by the records of live sessions,
// dropping deleted and evicted ones — the watermark keeps dead sessions'
// ids unreusable even after their create records are gone.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy controls when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs at most once per Options.FsyncEvery from a
	// background ticker — the default: bounded data loss, negligible
	// per-request cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs before every Append returns: an acknowledged turn
	// is on disk, at the price of one fsync per mutating request.
	FsyncAlways
	// FsyncOff never syncs except on Close. Crash durability is then up to
	// the operating system's writeback.
	FsyncOff
)

// ParseFsyncPolicy maps the flag spellings to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return "interval"
}

// DefaultFsyncEvery is the interval-policy sync period.
const DefaultFsyncEvery = 100 * time.Millisecond

// DefaultCompactMinBytes is the dead-byte threshold at which the server's
// -journal-compact flag triggers an automatic rewrite by default.
const DefaultCompactMinBytes = 4 << 20

// Options configures Open.
type Options struct {
	// Fsync is the sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (default DefaultFsyncEvery).
	FsyncEvery time.Duration
	// CompactMinBytes triggers an automatic compaction whenever at least
	// this many dead bytes (records of deleted/evicted sessions) have
	// accumulated in the file. <= 0 disables automatic compaction;
	// Checkpoint and Close still compact.
	CompactMinBytes int64
	// FsyncObserver, when set, receives the wall time of every fsync —
	// the wiring point for a latency histogram.
	FsyncObserver func(time.Duration)
}

// Stats are the journal's cumulative tallies, kept as always-on atomics so
// observability wiring can surface them without the journal importing the
// metrics package.
type Stats struct {
	// Records and Bytes count appends since Open (recovered records are not
	// re-counted).
	Records int64
	Bytes   int64
	// Fsyncs counts file syncs; Compactions counts file rewrites.
	Fsyncs      int64
	Compactions int64
	// TruncatedBytes is the size of the torn/corrupt tail Open dropped.
	TruncatedBytes int64
	// LiveSessions is the number of sessions with retained records.
	LiveSessions int64
}

// sessLog is one live session's retained records: the decoded form for
// replay, the framed form for compaction. seq orders sessions by first
// record so compaction and replay preserve creation order.
type sessLog struct {
	seq    uint64
	recs   []Record
	frames []byte // concatenated full frames
}

// Journal is a crash-safe session event log. All methods are safe for
// concurrent use; Append serializes on an internal mutex, so per-session
// record order follows the callers' happens-before order.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	opts Options

	live      map[string]*sessLog
	seenIDs   []string
	seq       uint64
	fileBytes int64 // bytes currently in the file
	liveBytes int64 // bytes of frames belonging to live sessions
	// watermark is the largest numeric session id seen in any TCreate or
	// TWatermark record. Compaction persists it as a TWatermark frame so it
	// survives the deletion of the create records that established it.
	watermark int64
	replay    []Record
	dirty     bool
	closed    bool
	// failed poisons the journal after a partial append the rollback could
	// not undo: a torn frame sits mid-file, so any further append would be
	// acknowledged yet unreachable by the scan at the next Open.
	failed error
	stop   chan struct{}
	done   chan struct{}

	// testWrite, when non-nil, replaces the file write in Append — the
	// fault-injection hook behind the torn-append rollback tests.
	testWrite func(f *os.File, b []byte) (int, error)

	records        atomic.Int64
	bytes          atomic.Int64
	fsyncs         atomic.Int64
	compactions    atomic.Int64
	truncatedBytes atomic.Int64
	liveSessions   atomic.Int64
}

// Open reads (or creates) the journal at path, truncating it at the first
// torn or corrupt frame, and returns it ready for appends. The surviving
// records of sessions without a delete record are available from Records
// for replay.
func Open(path string, opts Options) (*Journal, error) {
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = DefaultFsyncEvery
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("read journal: %w", err)
	}
	recs, ends, scanErr := ScanBytes(data)
	good := int64(0)
	if len(ends) > 0 {
		good = ends[len(ends)-1]
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	if scanErr != nil {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("seek journal: %w", err)
	}

	j := &Journal{
		f:         f,
		path:      path,
		opts:      opts,
		live:      map[string]*sessLog{},
		fileBytes: good,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	j.truncatedBytes.Store(int64(len(data)) - good)
	seen := map[string]bool{}
	prev := int64(0)
	for i, r := range recs {
		if r.Session != "" && !seen[r.Session] {
			seen[r.Session] = true
			j.seenIDs = append(j.seenIDs, r.Session)
		}
		j.trackLocked(r, data[prev:ends[i]])
		prev = ends[i]
	}
	for _, sl := range j.sessionsInOrder() {
		j.replay = append(j.replay, sl.recs...)
	}
	j.liveSessions.Store(int64(len(j.live)))
	if opts.Fsync == FsyncInterval {
		go j.syncLoop()
	} else {
		close(j.done)
	}
	return j, nil
}

// Records returns the recovered records of live sessions in replay order:
// sessions in creation order, each session's records in append order.
// Records of deleted sessions are already dropped. The slice is owned by
// the journal; callers must not mutate it.
func (j *Journal) Records() []Record { return j.replay }

// SessionsSeen returns every distinct session id that appeared anywhere in
// the scanned file, including sessions whose records were dropped by a
// delete. Recovery uses it to keep the id counter ahead of ids that dead
// sessions consumed — a fresh session must never reuse an id some client
// still holds.
func (j *Journal) SessionsSeen() []string { return j.seenIDs }

// Watermark returns the largest numeric session id the journal has ever
// recorded (TCreate IDs and persisted TWatermark frames). Unlike
// SessionsSeen it survives compaction, which drops deleted sessions'
// create records: recovery seeds the id counter from it so a compacted
// journal can never cause a dead session's id to be reissued.
func (j *Journal) Watermark() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.watermark
}

// trackLocked folds r into the live-session map. frame is r's full framed
// encoding.
func (j *Journal) trackLocked(r Record, frame []byte) {
	switch r.Type {
	case TWatermark:
		if r.ID > j.watermark {
			j.watermark = r.ID
		}
		return
	case TCreate:
		if r.ID > j.watermark {
			j.watermark = r.ID
		}
		j.seq++
		if old := j.live[r.Session]; old != nil {
			j.liveBytes -= int64(len(old.frames))
		}
		j.live[r.Session] = &sessLog{seq: j.seq}
		fallthrough
	case TAsk, TFeedback:
		sl := j.live[r.Session]
		if sl == nil {
			// No create on record (it was torn away or compacted after a
			// delete): the session cannot be replayed, don't retain.
			return
		}
		sl.recs = append(sl.recs, r)
		sl.frames = append(sl.frames, frame...)
		j.liveBytes += int64(len(frame))
	case TDelete, THandoff:
		// A handoff ends the session's residence here just like a delete;
		// the session's records now live in the target node's journal.
		if sl := j.live[r.Session]; sl != nil {
			j.liveBytes -= int64(len(sl.frames))
			delete(j.live, r.Session)
		}
	}
}

func (j *Journal) sessionsInOrder() []*sessLog {
	out := make([]*sessLog, 0, len(j.live))
	for _, sl := range j.live {
		out = append(out, sl)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Append writes one record. With FsyncAlways the record is on stable
// storage when Append returns; the other policies only guarantee it is in
// the file. Append may compact the journal in-line when the configured
// dead-byte threshold is crossed.
func (j *Journal) Append(r Record) error {
	frame := appendFrame(nil, r)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal %s is closed", j.path)
	}
	if j.failed != nil {
		return fmt.Errorf("journal %s is failed: %w", j.path, j.failed)
	}
	write := (*os.File).Write
	if j.testWrite != nil {
		write = j.testWrite
	}
	if n, err := write(j.f, frame); err != nil {
		// A partial write (ENOSPC, I/O error) left a torn frame mid-file.
		// Roll the file back to the last good boundary: the scan at the next
		// Open stops at the first corrupt frame, so leaving the torn bytes
		// in place would make every later acknowledged append unrecoverable.
		// If the rollback itself fails, poison the journal — refusing
		// further appends is the only way to keep the append-before-ack
		// contract honest.
		if n > 0 {
			if terr := j.f.Truncate(j.fileBytes); terr != nil {
				j.failed = fmt.Errorf("rollback of torn append: %w (after %v)", terr, err)
			} else if _, serr := j.f.Seek(j.fileBytes, 0); serr != nil {
				j.failed = fmt.Errorf("rollback of torn append: %w (after %v)", serr, err)
			}
		}
		return fmt.Errorf("append journal record: %w", err)
	}
	j.fileBytes += int64(len(frame))
	j.dirty = true
	j.records.Add(1)
	j.bytes.Add(int64(len(frame)))
	j.trackLocked(r, frame)
	j.liveSessions.Store(int64(len(j.live)))
	if j.opts.Fsync == FsyncAlways {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	if min := j.opts.CompactMinBytes; min > 0 && j.fileBytes-j.liveBytes >= min {
		return j.compactLocked()
	}
	return nil
}

// SessionRecords returns a copy of one live session's retained records in
// append order, or nil when the session is not live. Cluster replication
// uses it to resync a session's full history to a fresh follower and to
// hand a session off to a new owner.
func (j *Journal) SessionRecords(id string) []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	sl := j.live[id]
	if sl == nil {
		return nil
	}
	return append([]Record(nil), sl.recs...)
}

// LiveSessions returns the ids of sessions with retained records, in
// creation order.
func (j *Journal) LiveSessions() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.live))
	for _, sl := range j.sessionsInOrder() {
		if len(sl.recs) > 0 {
			out = append(out, sl.recs[0].Session)
		}
	}
	return out
}

// Retain prunes the live-session map to the sessions keep reports true for
// — the server calls this after replay, which leaves out the sessions over
// its store cap that the journal still considers live.
func (j *Journal) Retain(keep func(id string) bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for id, sl := range j.live {
		if !keep(id) {
			j.liveBytes -= int64(len(sl.frames))
			delete(j.live, id)
		}
	}
	j.liveSessions.Store(int64(len(j.live)))
}

// Checkpoint rewrites the journal to contain exactly the live sessions'
// records and syncs it — the graceful-shutdown and post-recovery hook.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal %s is closed", j.path)
	}
	return j.compactLocked()
}

// compactLocked writes the live frames to a temp file, syncs it and renames
// it over the journal. Caller holds j.mu.
func (j *Journal) compactLocked() error {
	tmpPath := j.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("compact journal: %w", err)
	}
	written := int64(0)
	if j.watermark > 0 {
		// The watermark frame leads every compacted file: the live sessions
		// below may no longer include the create record that issued the
		// highest id, and recovery must still never reissue it.
		n, err := tmp.Write(appendFrame(nil, Record{Type: TWatermark, ID: j.watermark}))
		written += int64(n)
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("compact journal: %w", err)
		}
	}
	for _, sl := range j.sessionsInOrder() {
		n, err := tmp.Write(sl.frames)
		written += int64(n)
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("compact journal: %w", err)
		}
	}
	if err := j.observedSync(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("compact journal: %w", err)
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("compact journal: %w", err)
	}
	// Best effort: persist the directory entry for the rename.
	if dir, err := os.Open(filepath.Dir(j.path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	// tmp's handle now refers to the file living at j.path; keep appending
	// through it.
	j.f.Close()
	j.f = tmp
	j.fileBytes = written
	j.liveBytes = written
	j.dirty = false
	// The rewrite replaced the whole file, so a torn frame a failed append
	// left behind is gone with it — the journal is healthy again.
	j.failed = nil
	j.compactions.Add(1)
	return nil
}

func (j *Journal) observedSync(f *os.File) error {
	t0 := time.Now()
	err := f.Sync()
	if err == nil {
		j.fsyncs.Add(1)
		if obs := j.opts.FsyncObserver; obs != nil {
			obs(time.Since(t0))
		}
	}
	return err
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.observedSync(j.f); err != nil {
		return fmt.Errorf("fsync journal: %w", err)
	}
	j.dirty = false
	return nil
}

// syncLoop is the FsyncInterval background ticker.
func (j *Journal) syncLoop() {
	defer close(j.done)
	t := time.NewTicker(j.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.closed {
				_ = j.syncLocked()
			}
			j.mu.Unlock()
		}
	}
}

// Close checkpoints (compacts and syncs) the journal and closes it — the
// graceful-shutdown path. Further appends fail.
func (j *Journal) Close() error {
	j.stopLoop()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.compactLocked()
	j.closed = true
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash closes the file descriptor without checkpointing or syncing,
// leaving the file exactly as the append stream left it — the
// kill-and-restart simulation of the server and cluster crash tests.
func (j *Journal) Crash() error {
	j.stopLoop()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

func (j *Journal) stopLoop() {
	j.mu.Lock()
	select {
	case <-j.stop:
	default:
		close(j.stop)
	}
	j.mu.Unlock()
	<-j.done
}

// SetFsyncObserver installs (or replaces) the fsync latency observer —
// the server wires a histogram in after Open.
func (j *Journal) SetFsyncObserver(fn func(time.Duration)) {
	j.mu.Lock()
	j.opts.FsyncObserver = fn
	j.mu.Unlock()
}

// Stats reports the cumulative tallies.
func (j *Journal) Stats() Stats {
	return Stats{
		Records:        j.records.Load(),
		Bytes:          j.bytes.Load(),
		Fsyncs:         j.fsyncs.Load(),
		Compactions:    j.compactions.Load(),
		TruncatedBytes: j.truncatedBytes.Load(),
		LiveSessions:   j.liveSessions.Load(),
	}
}
