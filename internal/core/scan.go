package core

import (
	"errors"
	"fmt"
	"strings"
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

// Seq returns the snapshot's sequence number.
func (s *Snapshot) Seq() kv.SeqNum { return s.seq }

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
	return s.db.getAppend(key, s.seq, nil, nil)
}

// Scan iterates the snapshot over [lo, hi]; see DB.Scan.
func (s *Snapshot) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	if s.released {
		return errSnapshotReleased
	}
	return s.db.scan(lo, hi, s.seq, fn)
}

// Scan calls fn for the newest visible version of every key in [lo, hi]
// (inclusive bounds; nil hi scans to the end of the keyspace), in
// ascending key order, until fn returns false or the range is exhausted.
// fn owns the slices it is handed. Range filters screen runs that
// provably hold no key in the range before any storage access.
func (db *DB) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	start := db.now()
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

// RunValueLogGC collects one value-log segment, relocating live values by
// re-writing them through the engine. It reports whether a segment was
// collected. No-op when key-value separation is off.
func (db *DB) RunValueLogGC() (bool, error) {
	if db.vlog == nil {
		return false, nil
	}
	start := time.Now()
	collected, err := db.vlog.GC(
		func(key []byte, p vlog.Pointer) bool {
			value, kind, found, err := db.getInternal(key, kv.MaxSeqNum, nil, nil)
			if err != nil || !found || kind != kv.KindValuePointer {
				return false
			}
			q, err := vlog.DecodePointer(value)
			return err == nil && q == p
		},
		func(key, value []byte) error {
			return db.Put(key, value)
		},
	)
	if collected {
		db.events.Add(iostat.Event{
			Type: iostat.EventVlogGC, FromLevel: -1, ToLevel: -1,
			DurMs: float64(time.Since(start).Microseconds()) / 1e3,
		})
	}
	return collected, err
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
	view, err := db.pin()
	if err != nil {
		return nil
	}
	defer view.unref()
	out := make([]LevelInfo, 0, len(view.v.levels))
	for i, level := range view.v.levels {
		info := LevelInfo{Level: i, Runs: len(level)}
		for _, r := range level {
			info.Files += len(r.tables)
			for _, t := range r.tables {
				info.Bytes += t.meta.Size
				info.Entries += t.meta.Entries
				info.Tombstones += t.meta.Tombstones
			}
		}
		out = append(out, info)
	}
	return out
}

// TotalRuns returns the number of sorted runs across all levels — the
// quantity a zero-result point lookup probes in the worst case.
func (db *DB) TotalRuns() int {
	n := 0
	for _, li := range db.Levels() {
		n += li.Runs
	}
	return n
}

// IndexMemory returns resident bytes of pinned per-table structures
// (fences, filters, learned models) across the current version.
func (db *DB) IndexMemory() int {
	view, err := db.pin()
	if err != nil {
		return 0
	}
	defer view.unref()
	total := 0
	for _, level := range view.v.levels {
		for _, r := range level {
			for _, t := range r.tables {
				total += t.reader.ApproxIndexMemory()
			}
		}
	}
	return total
}

// DebugString renders the tree shape for logs and the CLI.
func (db *DB) DebugString() string {
	var b strings.Builder
	for _, li := range db.Levels() {
		if li.Runs == 0 {
			continue
		}
		fmt.Fprintf(&b, "L%d: %d runs, %d files, %.2f MiB\n",
			li.Level, li.Runs, li.Files, float64(li.Bytes)/(1<<20))
	}
	if b.Len() == 0 {
		return "(empty tree)\n"
	}
	return b.String()
}
