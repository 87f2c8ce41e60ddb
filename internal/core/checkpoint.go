package core

import (
	"fmt"
	"path/filepath"
	"sort"

	"lsmkv/internal/checkpoint"
	"lsmkv/internal/iostat"
	"lsmkv/internal/manifest"
)

// CheckpointInfo summarizes one engine-level checkpoint.
type CheckpointInfo struct {
	Files   int
	Bytes   int64
	Linked  int
	LastSeq uint64
}

// Checkpoint copies a manifest-consistent file set into dstDir without
// pausing writes: the destination opens as a normal database holding
// every write committed before the call (and possibly a prefix of the
// writes racing it — WAL replay stops at the copy's torn tail, the same
// point-in-time rule crash recovery follows).
//
// Consistency without a write stall rests on three pins taken under
// db.mu, right after the active log is synced under commitMu (a commit in
// flight finishes first; none starts until the pins are taken): the
// manifest state is cloned (the file list), the current version is
// referenced (compactions cannot delete the listed sstables), and WAL
// and value-log segment deletion is deferred (a flush or a collection
// finishing mid-copy cannot remove a file the clone still needs).
// Sstables are hard-linked when the filesystem supports it — they are
// immutable, so sharing the inode is safe — while WAL and value-log files,
// which receive concurrent appends, are byte-copied. The caller commits
// the checkpoint by writing the marker (see internal/checkpoint) after
// this returns.
func (db *DB) Checkpoint(dstDir string) (CheckpointInfo, error) {
	fs := db.opts.FS
	if err := fs.MkdirAll(dstDir); err != nil {
		return CheckpointInfo{}, err
	}

	// commitMu keeps commits and rotations off the log while it is synced,
	// and until the file set that names it is pinned.
	db.commitMu.Lock()
	err := db.checkOpen()
	if err == nil && db.wal != nil {
		// Flush and sync the active log so every write acked before this
		// point is in the file the copy will read.
		err = db.wal.Sync()
	}
	if err != nil {
		db.commitMu.Unlock()
		return CheckpointInfo{}, err
	}
	db.mu.Lock()
	clone := db.state.Clone()
	v, _ := db.viewLocked()
	var walNums []uint64
	for _, im := range db.imms {
		walNums = append(walNums, im.walNum)
	}
	if db.wal != nil {
		walNums = append(walNums, db.walNum)
	}
	seq := db.seq.Load()
	db.walPins++
	db.mu.Unlock()
	db.commitMu.Unlock()

	info, err := db.copyCheckpointFiles(dstDir, clone, walNums)

	db.mu.Lock()
	db.walPins--
	db.mu.Unlock()
	db.retire() // what flushes and collections finishing mid-copy left behind
	v.unref()

	if err != nil {
		return CheckpointInfo{}, err
	}
	info.LastSeq = seq
	db.stats.Checkpoints.Add(1)
	db.stats.CheckpointBytes.Add(info.Bytes)
	db.events.Add(iostat.Event{
		Type: iostat.EventCheckpoint, FromLevel: -1, ToLevel: -1,
		Detail: fmt.Sprintf("%d files, %d bytes, seq %d", info.Files, info.Bytes, seq),
	})
	return info, nil
}

// copyCheckpointFiles transfers the pinned file set: sstables
// (link-or-copy), WALs and value-log segments (copy), then the cloned
// manifest last — the destination is openable the moment the manifest
// lands.
func (db *DB) copyCheckpointFiles(dstDir string, clone *manifest.State, walNums []uint64) (CheckpointInfo, error) {
	fs := db.opts.FS
	var info CheckpointInfo

	var sstNums []uint64
	for num := range clone.FileNums() {
		sstNums = append(sstNums, num)
	}
	sort.Slice(sstNums, func(i, j int) bool { return sstNums[i] < sstNums[j] })
	for _, num := range sstNums {
		name := fmt.Sprintf("%06d.sst", num)
		n, linked, err := checkpoint.LinkOrCopy(fs, db.tablePath(num), filepath.Join(dstDir, name))
		if err != nil {
			return info, fmt.Errorf("checkpoint %s: %w", name, err)
		}
		info.Files++
		info.Bytes += n
		if linked {
			info.Linked++
		}
	}

	for _, num := range walNums {
		name := fmt.Sprintf("%06d.wal", num)
		n, err := checkpoint.CopyFile(fs, db.walPath(num), filepath.Join(dstDir, name))
		if err != nil {
			return info, fmt.Errorf("checkpoint %s: %w", name, err)
		}
		info.Files++
		info.Bytes += n
	}

	if db.vlog != nil {
		// Sync first: WAL records in the copy may point at separated
		// values, which must be in the segment bytes the copy reads.
		if err := db.vlog.Sync(); err != nil {
			return info, err
		}
		dstVlog := vlogDir(dstDir)
		if err := fs.MkdirAll(dstVlog); err != nil {
			return info, err
		}
		for _, num := range db.vlog.Segments() {
			name := fmt.Sprintf("%06d.vlog", num)
			src := filepath.Join(vlogDir(db.opts.Dir), name)
			n, err := checkpoint.CopyFile(fs, src, filepath.Join(dstVlog, name))
			if err != nil {
				return info, fmt.Errorf("checkpoint %s: %w", name, err)
			}
			info.Files++
			info.Bytes += n
		}
	}

	if err := manifest.Save(fs, dstDir, clone); err != nil {
		return info, err
	}
	info.Files++
	return info, nil
}
