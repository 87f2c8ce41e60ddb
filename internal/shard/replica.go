package shard

import (
	"fmt"
	"time"

	"lsmkv/internal/checkpoint"
	"lsmkv/internal/core"
	"lsmkv/internal/replica"
	"lsmkv/internal/vfs"
)

// Replication surface: sequence numbers are per shard (each engine runs
// its own counter), so watermarks, waits, and replicated applies all
// carry a shard index, and the cross-shard watermark is a vector.

// LastSeqs returns every shard's applied sequence watermark, indexed by
// shard: writes acked at (shard, seq) are visible once
// LastSeqs()[shard] >= seq.
func (db *DB) LastSeqs() []uint64 {
	out := make([]uint64, db.n)
	for i, eng := range db.engines {
		out[i] = eng.LastSeq()
	}
	return out
}

// WaitForSeq blocks until shard's watermark reaches seq, the timeout
// elapses, or the database closes — the read-your-writes primitive for
// replica reads.
func (db *DB) WaitForSeq(shard int, seq uint64, timeout time.Duration) error {
	if shard < 0 || shard >= db.n {
		return fmt.Errorf("lsmkv: shard %d out of range [0,%d)", shard, db.n)
	}
	return db.engines[shard].WaitForSeq(seq, timeout)
}

// ApplyReplicated applies one replicated WAL record to shard,
// preserving its original sequence numbers; idempotent at or below the
// watermark. Followers apply the primary's commit stream with it.
func (db *DB) ApplyReplicated(shard int, payload []byte) (uint64, error) {
	if shard < 0 || shard >= db.n {
		return 0, fmt.Errorf("lsmkv: shard %d out of range [0,%d)", shard, db.n)
	}
	return db.engines[shard].ApplyReplicated(payload)
}

// CommitHook observes every committed write batch (shard, first
// sequence number, op count, logical WAL payload). It runs inside the
// shard's commit pipeline — the shard's next commit waits for it, reads
// do not: copy the payload if retaining it, return quickly.
type CommitHook func(shard int, firstSeq uint64, count int, payload []byte)

// SetCommitHook installs fn as the commit-stream observer on every shard
// engine (nil detaches); the replication primary feeds its backlogs from
// it.
func (db *DB) SetCommitHook(fn CommitHook) {
	for i, eng := range db.engines {
		if fn == nil {
			eng.SetCommitHook(nil)
			continue
		}
		shard := i
		eng.SetCommitHook(func(firstSeq uint64, count int, payload []byte) {
			fn(shard, firstSeq, count, payload)
		})
	}
}

// snapshotAt pins a read view at an explicit per-shard sequence vector
// (see core.DB.NewSnapshotAt); primary and follower pin equal vectors to
// compare identical logical states. Callers must Release it.
func (db *DB) snapshotAt(seqs []uint64) (*Snapshot, error) {
	if len(seqs) != db.n {
		return nil, fmt.Errorf("lsmkv: snapshot vector has %d shards, database has %d", len(seqs), db.n)
	}
	snaps := make([]*core.Snapshot, db.n)
	for i, eng := range db.engines {
		s, err := eng.NewSnapshotAt(seqs[i])
		if err != nil {
			for _, prev := range snaps[:i] {
				prev.Release()
			}
			return nil, err
		}
		snaps[i] = s
	}
	return &Snapshot{db: db, snaps: snaps}, nil
}

// MerkleAt summarizes the database's logical content at the given
// per-shard sequence vector (nil means the current watermarks). Equal
// trees at equal vectors mean primary and follower hold identical data.
func (db *DB) MerkleAt(buckets int, seqs []uint64) (*replica.Tree, error) {
	if seqs == nil {
		seqs = db.LastSeqs()
	}
	snap, err := db.snapshotAt(seqs)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	return replica.BuildTree(buckets, seqs, func(fn func(key, value []byte) bool) error {
		return snap.Scan(nil, nil, fn)
	})
}

// Checkpoint copies a manifest-consistent file set for every shard into
// dstDir without pausing writes (sstables are hard-linked when the
// filesystem supports it) and commits it with a CHECKPOINT marker (temp +
// sync + rename — the marker's presence defines completeness; a crash
// mid-checkpoint leaves a markerless directory Sweep clears). The layout
// mirrors the source: shard-i subdirectories plus a SHARDS marker when
// sharded, a flat engine directory when not, so the checkpoint opens as
// a database directly (online backup, follower bootstrap).
func (db *DB) Checkpoint(dstDir string) (checkpoint.Marker, error) {
	var m checkpoint.Marker
	if checkpoint.IsComplete(db.fs, dstDir) {
		return m, fmt.Errorf("lsmkv: checkpoint %s already exists", dstDir)
	}
	// Clear leftovers from a previously interrupted attempt at this
	// path, then rebuild from scratch.
	if err := vfs.RemoveTree(db.fs, dstDir); err != nil {
		return m, err
	}
	if err := db.fs.MkdirAll(dstDir); err != nil {
		return m, err
	}
	if db.n > 1 {
		if err := writeMarker(db.fs, dstDir, db.n); err != nil {
			return m, err
		}
	}
	m.Shards = db.n
	for i, eng := range db.engines {
		dst := dstDir
		if db.n > 1 {
			dst = ShardDir(dstDir, i)
		}
		info, err := eng.Checkpoint(dst)
		if err != nil {
			return checkpoint.Marker{}, fmt.Errorf("lsmkv: checkpoint shard %d: %w", i, err)
		}
		m.LastSeqs = append(m.LastSeqs, info.LastSeq)
		m.Files += info.Files
		m.Bytes += info.Bytes
	}
	if err := checkpoint.WriteMarker(db.fs, dstDir, m); err != nil {
		return checkpoint.Marker{}, err
	}
	return m, nil
}
