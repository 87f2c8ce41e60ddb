// Package wal implements the write-ahead log that makes buffered writes
// durable before they reach the memtable: CRC-framed, length-prefixed
// records appended to a log file, replayed at open to rebuild the buffer
// the tutorial's flush path assumes.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"

	"lsmkv/internal/vfs"
)

// ErrCorrupt indicates a record failed its checksum; replay stops at the
// previous record (standard torn-write handling).
var ErrCorrupt = errors.New("wal: corrupt record")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const headerLen = 8 // crc32 (4) + payload length (4)

// Writer appends records to a log file.
type Writer struct {
	f      vfs.File
	bw     *bufio.Writer
	offset int64
	synced int64 // offset as of the last successful Sync
}

// Options configures a log writer. It has no fields: a record is durable
// once the caller's Sync returns, and when to call it is the caller's
// policy.
type Options struct{}

// Create creates (truncating) a log file at path on fs.
func Create(fs vfs.FS, path string, _ Options) (*Writer, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, bw: bufio.NewWriterSize(f, 64<<10)}, nil
}

// AddRecord appends one record.
func (w *Writer) AddRecord(payload []byte) error {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.offset += int64(headerLen + len(payload))
	return nil
}

// Sync flushes buffered records and fsyncs the file; with nothing
// appended since the last Sync it does nothing.
func (w *Writer) Sync() error {
	if w.synced == w.offset {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced = w.offset
	return nil
}

// Size returns the bytes logically appended so far.
func (w *Writer) Size() int64 { return w.offset }

// Close flushes and closes the log.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Replay reads records from the log at path in order, invoking fn for
// each. A torn or corrupt tail stops replay without error (those records
// were never acknowledged as durable) and reports complete=false;
// corruption in the middle surfaces as ErrCorrupt. A missing file is not
// an error and counts as complete.
//
// Callers replaying a sequence of logs must stop at the first incomplete
// one: a torn tail marks the crash point, and records in later logs are
// from after it. Replaying past the tear would recover history with a
// hole in the middle (point-in-time recovery, not per-file salvage).
func Replay(fs vfs.FS, path string, fn func(payload []byte) error) (complete bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil
		}
		return false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 64<<10)
	off := int64(0)
	for {
		var hdr [headerLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return true, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return false, nil // torn header at tail
			}
			return false, err
		}
		off += headerLen
		want := binary.LittleEndian.Uint32(hdr[0:])
		n := binary.LittleEndian.Uint32(hdr[4:])
		// A declared length running past the file is a torn tail; checking
		// before allocating also bounds the allocation by the file size
		// for adversarial input.
		if int64(n) > size-off {
			return false, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return false, nil // torn payload at tail
			}
			return false, err
		}
		off += int64(n)
		if crc32.Checksum(payload, crcTable) != want {
			// Distinguish "tail garbage" from mid-log corruption: if
			// nothing follows, treat as torn tail.
			if _, err := br.Peek(1); err == io.EOF {
				return false, nil
			}
			return false, ErrCorrupt
		}
		if err := fn(payload); err != nil {
			return false, err
		}
	}
}
