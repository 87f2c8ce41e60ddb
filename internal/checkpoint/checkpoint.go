// Package checkpoint provides the shared plumbing for online backups: a
// durable completion marker (temp + sync + rename, the same commit-point
// discipline as the manifest and the SHARDS marker), hard-link-or-copy
// file transfer, and a sweeper that detects and clears checkpoints a
// crash left half-built.
//
// A checkpoint directory is a byte-for-byte-openable database directory
// (manifest, sstables, WALs, value log) plus a CHECKPOINT marker file.
// The marker is written last: its presence is the definition of a
// complete checkpoint, so a partially copied directory is recognizable
// (no marker) and safe to delete. The marker's name deliberately matches
// no engine file pattern — opening the checkpoint as a database ignores
// it.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lsmkv/internal/vfs"
)

// MarkerName is the completion marker's file name inside a checkpoint
// directory.
const MarkerName = "CHECKPOINT"

const markerMagic = "lsmkv-checkpoint-v1"

// Marker is the durable record of a completed checkpoint.
type Marker struct {
	Magic  string `json:"magic"`
	Shards int    `json:"shards"`
	// LastSeqs is the per-shard applied-sequence watermark captured when
	// the checkpoint began; a follower bootstrapped from this directory
	// recovers to at least these seqs.
	LastSeqs []uint64 `json:"last_seqs"`
	Files    int      `json:"files"`
	Bytes    int64    `json:"bytes"`
}

// ErrIncomplete marks a checkpoint directory without a valid marker.
var ErrIncomplete = errors.New("checkpoint: incomplete (no valid marker)")

// WriteMarker durably commits a checkpoint: marker JSON to a temp file,
// sync, rename into place.
func WriteMarker(fs vfs.FS, dir string, m Marker) error {
	m.Magic = markerMagic
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fs, filepath.Join(dir, MarkerName), data)
}

// ReadMarker loads and validates the marker of a completed checkpoint.
// A missing or malformed marker returns ErrIncomplete.
func ReadMarker(fs vfs.FS, dir string) (*Marker, error) {
	data, err := vfs.ReadFile(fs, filepath.Join(dir, MarkerName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrIncomplete
		}
		return nil, err
	}
	var m Marker
	if err := json.Unmarshal(data, &m); err != nil || m.Magic != markerMagic {
		return nil, ErrIncomplete
	}
	return &m, nil
}

// IsComplete reports whether dir holds a committed checkpoint.
func IsComplete(fs vfs.FS, dir string) bool {
	_, err := ReadMarker(fs, dir)
	return err == nil
}

// CopyFile copies src to dst and syncs it, returning the bytes written.
func CopyFile(fs vfs.FS, src, dst string) (int64, error) {
	in, err := fs.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := fs.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if err != nil {
		out.Close()
		return n, err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return n, err
	}
	return n, out.Close()
}

// LinkOrCopy hard-links src to dst when the filesystem supports it,
// falling back to a synced byte copy. Only use it for immutable files
// (sstables): a link shares the inode, so appends to src would leak into
// the checkpoint. Returns the file size and whether a link was used.
func LinkOrCopy(fs vfs.FS, src, dst string) (int64, bool, error) {
	if l, ok := fs.(vfs.Linker); ok {
		if err := l.Link(src, dst); err == nil {
			fi, err := fs.Stat(dst)
			if err != nil {
				return 0, true, err
			}
			return fi.Size(), true, nil
		}
		// Any link failure (cross-device, unsupported, injected fault)
		// degrades to the copy path.
	}
	n, err := CopyFile(fs, src, dst)
	return n, false, err
}

// Sweep scans root (a directory holding checkpoint directories) and
// removes every child that lacks a valid marker — the debris of a crash
// mid-checkpoint. It returns the names of the directories it cleared.
// A missing root is a no-op.
func Sweep(fs vfs.FS, root string) ([]string, error) {
	names, err := fs.List(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var cleared []string
	for _, name := range names {
		p := filepath.Join(root, name)
		fi, err := fs.Stat(p)
		if err != nil || !fi.IsDir() {
			continue
		}
		if IsComplete(fs, p) {
			continue
		}
		if err := vfs.RemoveTree(fs, p); err != nil {
			return cleared, fmt.Errorf("checkpoint: sweep %s: %w", name, err)
		}
		cleared = append(cleared, name)
	}
	return cleared, nil
}
