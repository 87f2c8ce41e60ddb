// Package vfs abstracts the filesystem beneath every persistence layer
// (WAL, manifest, sstables, value log) so tests can substitute
// implementations that inject faults or simulate crashes. Production code
// uses OS, a thin passthrough to the os package with zero behavior
// change; the crash-recovery harness uses Mem (which tracks per-file
// durability watermarks) wrapped in Faulty (which injects errors on the
// Nth matching operation and can freeze the filesystem mid-run).
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// File is one open file handle. Reads and writes follow os.File
// semantics: Write appends at the handle's offset (all engine writers are
// append-only), ReadAt/WriteAt are positional.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync makes all written data durable: after Sync returns, a crash
	// must not lose it.
	Sync() error
	// Stat returns the file's metadata (only Size is load-bearing).
	Stat() (os.FileInfo, error)
}

// FS is the filesystem interface the engine's persistence layers use.
type FS interface {
	// Create creates (truncating) a file for writing and reading.
	Create(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// OpenReadWrite opens an existing file for reading and writing
	// (value-log segment reopen).
	OpenReadWrite(name string) (File, error)
	// Remove deletes a file. Removing a missing file is an error
	// matching os.IsNotExist.
	Remove(name string) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(dir string) error
	// List returns the base names of the entries in dir.
	List(dir string) ([]string, error)
	// Stat returns metadata for name; a missing file yields an error
	// matching os.IsNotExist.
	Stat(name string) (os.FileInfo, error)
}

// Linker is an optional FS capability: create newname as a hard link to
// oldname. Checkpointing uses it to reference immutable sstables without
// copying their bytes; callers fall back to a byte copy when the FS does
// not implement it (or when Link returns any error).
type Linker interface {
	Link(oldname, newname string) error
}

// ErrNoHardLinks is returned by Link on filesystems without hard-link
// support.
var ErrNoHardLinks = errors.New("vfs: filesystem does not support hard links")

// Default is the FS used when none is configured: the real filesystem.
var Default FS = OS{}

// ReadFile reads the whole file at name.
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteFile creates name with data. It does NOT sync; WriteFileAtomic is
// the durable form.
func WriteFile(fs FS, name string, data []byte) error {
	return writeFile(fs, name, data, false)
}

// WriteFileAtomic durably replaces name with data: write name.tmp, sync,
// close, rename. The sync before the rename is load-bearing — a rename
// made durable before its target's content would surface as a truncated
// or empty file after power loss — so a reader sees the old file or the
// new one, never a torn one. The manifest and the CHECKPOINT and SHARDS
// markers commit through it.
func WriteFileAtomic(fs FS, name string, data []byte) error {
	if err := writeFile(fs, name+".tmp", data, true); err != nil {
		return err
	}
	return fs.Rename(name+".tmp", name)
}

func writeFile(fs FS, name string, data []byte, sync bool) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// RemoveTree deletes every file under dir recursively; a missing dir is
// not an error. Directory entries themselves may remain on filesystems
// whose Remove rejects directories (Mem has no rmdir), which is harmless:
// an empty directory holds no marker and no data.
func RemoveTree(fs FS, dir string) error {
	names, err := fs.List(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, name := range names {
		p := filepath.Join(dir, name)
		fi, err := fs.Stat(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		if fi.IsDir() {
			err = RemoveTree(fs, p)
		} else if err = fs.Remove(p); os.IsNotExist(err) {
			err = nil
		}
		if err != nil {
			return err
		}
	}
	fs.Remove(dir) // best effort; see above
	return nil
}
