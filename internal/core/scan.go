package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/vlog"
)

// Snapshot pins a point-in-time view: reads through it see only writes
// with sequence numbers at or below the snapshot. Compactions retain the
// versions a live snapshot needs.
type Snapshot struct {
	db       *DB
	seq      kv.SeqNum
	released bool
}

// NewSnapshot captures the current state. Callers must Release it.
func (db *DB) NewSnapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{db: db, seq: db.lastSeq()}
	db.snapshots[s.seq]++
	return s
}

// Release unpins the snapshot; idempotent.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if n := s.db.snapshots[s.seq]; n <= 1 {
		delete(s.db.snapshots, s.seq)
	} else {
		s.db.snapshots[s.seq] = n - 1
	}
}

// errSnapshotReleased is returned by reads through a released snapshot.
var errSnapshotReleased = errors.New("lsmkv: snapshot already released")

// Get reads key at the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if s.released {
		return nil, errSnapshotReleased
	}
	return s.db.getOne(key, s.seq, nil, nil)
}

// Scan calls fn for the newest visible version of every key in [lo, hi]
// (inclusive bounds; nil hi scans to the end of the keyspace), in
// ascending key order, until fn returns false or the range is exhausted.
// fn owns the slices it is handed. Range filters screen runs that
// provably hold no key in the range before any storage access.
func (db *DB) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	start := time.Now()
	err := db.scan(lo, hi, kv.MaxSeqNum, fn)
	db.observe(latScan, start)
	return err
}

func (db *DB) scan(lo, hi []byte, snap kv.SeqNum, fn func(key, value []byte) bool) error {
	sc, err := db.newScanner(lo, hi, snap)
	if err != nil {
		return err
	}
	defer sc.Close()
	return ScanAll(sc, fn)
}

// RunValueLogGC collects one sealed value-log segment that holds a dead
// value and reports whether there was one (never, with key-value separation
// off); a segment with no garbage is not rewritten. The fourth background
// job: live values are appended again and their keys re-pointed through
// commit, each only while the tree still points at the copy being moved, so
// a racing write is never overwritten; retire deletes the emptied segment
// when no snapshot, running read or checkpoint can still reach into it.
func (db *DB) RunValueLogGC() (bool, error) {
	if db.vlog == nil {
		return false, nil
	}
	db.retire() // segments earlier calls emptied, if their last readers have gone
	// A commit appends to the value log and inserts the pointers in one
	// commitMu section, so past this one an entry of a segment sealed by
	// now that the tree does not point at is dead.
	db.commitMu.Lock()
	sealed := db.vlog.ActiveSegment()
	db.commitMu.Unlock()
	// Candidates: the sealed segments not emptied yet, starting after the last
	// one collected (those up to it were read and left alone on the way there).
	db.mu.Lock()
	candidates := slices.DeleteFunc(db.vlog.Segments(), func(n uint64) bool {
		_, dead := db.deadSegments[n]
		return dead || n >= sealed
	})
	first, _ := slices.BinarySearch(candidates, db.gcCursor+1)
	db.mu.Unlock()
	const gcBatch = 64 // relocations to a commit
	j := &job{start: time.Now(), ev: iostat.Event{Type: iostat.EventVlogGC, FromLevel: -1, ToLevel: -1, InputFiles: 1}}
	seg, err := db.vlog.GC(append(candidates[first:], candidates[:first]...), func(seg uint64, entries []vlog.Entry) (bool, error) {
		// A first pass, under no lock, over what the tree points at now.
		var live []vlog.Entry
		j.ev.InputBytes = 0
		for _, e := range entries {
			j.ev.InputBytes += uint64(e.Ptr.Length)
			if db.pointsAt(e.Key, e.Ptr.Encode(), nil) {
				live = append(live, e)
			}
		}
		if len(live) == len(entries) {
			return false, nil
		}
		// Each batch is synced, so a value is durable before a log record
		// points at it. Writers wait under commitMu for a batch's gcBatch
		// point lookups, of keys the first pass just read, then for the
		// survivors' value-log append and sync and one WAL fsync.
		relocated := 0
		for ; len(live) > 0; live = live[min(len(live), gcBatch):] {
			var ops []BatchOp
			for _, e := range live[:min(len(live), gcBatch)] {
				value, err := db.vlog.Get(e.Ptr)
				if err != nil {
					return false, err
				}
				ops = append(ops, BatchOp{Kind: kv.KindSet, Key: e.Key, Value: value, ifPointer: e.Ptr.Encode()})
			}
			db.slowdown()
			n, err := db.commit(ops, true, 0, nil)
			if err != nil {
				return false, err
			}
			relocated += n
			for _, op := range ops { // a relocation left out has no Value
				j.ev.OutputBytes += uint64(len(op.Value))
			}
		}
		j.ev.Detail = fmt.Sprintf("segment=%d relocated=%d/%d dead=%d/%d",
			seg, relocated, j.ev.OutputBytes, len(entries)-relocated, j.ev.InputBytes-j.ev.OutputBytes)
		// Before the segment may go, what left its entries dead must be durable,
		// whatever SyncWAL says: the relocations, and overwrites acknowledged
		// unsynced, which a crash would undo back to a pointer into a deleted
		// file. Frozen logs are synced (freezeMem); with no log, a flush does it.
		if err := db.vlog.Sync(); err != nil {
			return false, err
		}
		if db.opts.DisableWAL {
			return true, db.Flush()
		}
		db.commitMu.Lock()
		defer db.commitMu.Unlock()
		return true, db.wal.Sync()
	})
	if err != nil || seg == 0 {
		return false, err
	}
	j.edit.segment = seg
	return true, db.finish(j)
}

// LevelInfo summarizes one level for metrics and tooling.
type LevelInfo struct {
	Level      int
	Runs       int
	Files      int
	Bytes      uint64
	Entries    uint64
	Tombstones uint64
}

// Levels returns per-level structure info (nil once the database is
// closed).
func (db *DB) Levels() []LevelInfo {
	view, _, err := db.pin()
	if err != nil {
		return nil
	}
	defer view.unref()
	return slices.Clone(view.v.info)
}

// IndexMemory returns resident bytes of pinned per-table structures
// (fences, filters, learned models) across the current version.
func (db *DB) IndexMemory() int {
	view, _, err := db.pin()
	if err != nil {
		return 0
	}
	defer view.unref()
	return view.v.indexBytes
}
