// Package vlog implements WiscKey-style key-value separation (Lu et al.,
// FAST'16), which the tutorial covers as a write-path optimization with a
// read-path cost: large values live in an append-only value log, and the
// LSM-tree stores only small pointers. Compactions then move pointers
// instead of payloads — slashing write amplification for large values —
// while every point read of a separated value pays one extra storage hop.
// Stale values are reclaimed by rewriting the live entries of a sealed log
// segment that holds dead ones (garbage collection).
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"lsmkv/internal/vfs"
)

// Errors returned by the value log.
var (
	ErrCorrupt  = errors.New("vlog: corrupt entry")
	ErrNotFound = errors.New("vlog: segment not found")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Pointer locates one value inside the log.
type Pointer struct {
	Segment uint64 // log segment file number
	Offset  uint64 // entry offset within the segment
	Length  uint32 // value byte length
}

// PointerLen is the encoded size of a Pointer.
const PointerLen = 8 + 8 + 4

// Encode serializes the pointer (fixed width, so it can be stored as an
// LSM value of kind KindValuePointer).
func (p Pointer) Encode() []byte {
	var b [PointerLen]byte
	binary.LittleEndian.PutUint64(b[0:], p.Segment)
	binary.LittleEndian.PutUint64(b[8:], p.Offset)
	binary.LittleEndian.PutUint32(b[16:], p.Length)
	return b[:]
}

// DecodePointer parses an encoded pointer.
func DecodePointer(data []byte) (Pointer, error) {
	if len(data) < PointerLen {
		return Pointer{}, ErrCorrupt
	}
	return Pointer{
		Segment: binary.LittleEndian.Uint64(data[0:]),
		Offset:  binary.LittleEndian.Uint64(data[8:]),
		Length:  binary.LittleEndian.Uint32(data[16:]),
	}, nil
}

// entry layout within a segment:
//
//	crc32 (4) | keyLen uvarint | valLen uvarint | key | value
//
// Keys are stored so GC can ask the tree whether the entry is still live.

// Log is the append-only value log: a sequence of numbered segment files
// in a directory. Safe for concurrent use.
type Log struct {
	mu         sync.Mutex
	fs         vfs.FS
	dir        string
	active     vfs.File
	activeNum  uint64
	activeOff  uint64
	segmentCap uint64
	segments   map[uint64]vfs.File
}

// Open creates or reopens a value log in dir on fs. segmentCap bounds
// segment size before rolling to a new file.
func Open(fs vfs.FS, dir string, segmentCap uint64) (*Log, error) {
	if segmentCap < 1<<10 {
		segmentCap = 64 << 20
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	l := &Log{fs: fs, dir: dir, segmentCap: segmentCap, segments: make(map[uint64]vfs.File)}
	// Reopen existing segments; continue appending to the highest.
	names, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	var nums []uint64
	for _, m := range names {
		if !strings.HasSuffix(m, ".vlog") {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(m, "%06d.vlog", &n); err == nil {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, n := range nums {
		f, err := fs.OpenReadWrite(l.segmentPath(n))
		if err != nil {
			return nil, err
		}
		l.segments[n] = f
	}
	if len(nums) > 0 {
		n := nums[len(nums)-1]
		fi, err := l.segments[n].Stat()
		if err != nil {
			return nil, err
		}
		l.active = l.segments[n]
		l.activeNum = n
		l.activeOff = uint64(fi.Size())
	} else if err := l.rollLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) segmentPath(n uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%06d.vlog", n))
}

// rollLocked starts a new active segment. The outgoing one is synced
// first, so Sync, which reaches only the active segment, leaves nothing
// behind it volatile. Caller holds the lock.
func (l *Log) rollLocked() error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return err
		}
	}
	n := l.activeNum + 1
	f, err := l.fs.Create(l.segmentPath(n))
	if err != nil {
		return err
	}
	l.segments[n] = f
	l.active = f
	l.activeNum = n
	l.activeOff = 0
	return nil
}

// Append stores (key, value) and returns the pointer to hand to the tree.
func (l *Log) Append(key, value []byte) (Pointer, error) {
	rec := make([]byte, 4, 4+10+10+len(key)+len(value))
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = binary.AppendUvarint(rec, uint64(len(value)))
	rec = append(rec, key...)
	rec = append(rec, value...)
	binary.LittleEndian.PutUint32(rec[0:4], crc32.Checksum(rec[4:], crcTable))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.activeOff+uint64(len(rec)) > l.segmentCap && l.activeOff > 0 {
		if err := l.rollLocked(); err != nil {
			return Pointer{}, err
		}
	}
	off := l.activeOff
	if _, err := l.active.WriteAt(rec, int64(off)); err != nil {
		return Pointer{}, err
	}
	l.activeOff += uint64(len(rec))
	return Pointer{Segment: l.activeNum, Offset: off, Length: uint32(len(value))}, nil
}

// Get reads the value behind a pointer, verifying the checksum.
func (l *Log) Get(p Pointer) ([]byte, error) {
	_, val, _, err := l.readEntry(p.Segment, p.Offset)
	if err != nil {
		return nil, err
	}
	if uint32(len(val)) != p.Length {
		return nil, ErrCorrupt
	}
	return val, nil
}

// Verify reads the value behind an encoded pointer and checks it as Get
// does: nil if the log holds it whole, ErrNotFound if its segment is
// gone, ErrCorrupt or a read error (io.EOF past the end) if not.
// Recovery asks it of each logged pointer; it is not a user read.
func (l *Log) Verify(encoded []byte) error {
	p, err := DecodePointer(encoded)
	if err != nil {
		return err
	}
	_, err = l.Get(p)
	return err
}

func (l *Log) segment(n uint64) (vfs.File, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.segments[n]
	if !ok {
		return nil, ErrNotFound
	}
	return f, nil
}

// readEntry reads and verifies the entry at off; n is its encoded length.
func (l *Log) readEntry(seg, off uint64) (key, value []byte, n uint64, err error) {
	f, err := l.segment(seg)
	if err != nil {
		return nil, nil, 0, err
	}
	// Read a generous header window, then the exact payload.
	var hdr [24]byte
	got, err := f.ReadAt(hdr[:], int64(off))
	if got < 6 && err != nil {
		return nil, nil, 0, err
	}
	want := binary.LittleEndian.Uint32(hdr[0:])
	klen, w1 := binary.Uvarint(hdr[4:got])
	if w1 <= 0 {
		return nil, nil, 0, ErrCorrupt
	}
	vlen, w2 := binary.Uvarint(hdr[4+w1 : got])
	if w2 <= 0 {
		return nil, nil, 0, ErrCorrupt
	}
	payload := make([]byte, uint64(w1+w2)+klen+vlen)
	if _, err := f.ReadAt(payload, int64(off)+4); err != nil {
		return nil, nil, 0, err
	}
	if crc32.Checksum(payload, crcTable) != want {
		return nil, nil, 0, ErrCorrupt
	}
	key = payload[w1+w2 : uint64(w1+w2)+klen]
	value = payload[uint64(w1+w2)+klen:]
	return key, value, 4 + uint64(len(payload)), nil
}

// ActiveSegment returns the number of the segment currently appended to.
func (l *Log) ActiveSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.activeNum
}

// Segments returns the live segment numbers in ascending order.
func (l *Log) Segments() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, 0, len(l.segments))
	for n := range l.segments {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SizeBytes returns the total bytes across all segments.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, f := range l.segments {
		if fi, err := f.Stat(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Entry is one record of a sealed segment, as GC hands it to its callback.
type Entry struct {
	Key []byte
	Ptr Pointer
}

// GC offers the candidate segments (never the active one) to collect, in
// order, until it accepts one, and returns that segment (0 for none).
// collect is handed every entry of a segment. It either relocates those the
// tree still points at — appending the value again and re-pointing the key,
// atomically with the check that the key still points here — and returns
// true, or returns false: a segment with nothing dead in it is not rewritten.
// An accepted segment stays readable; the caller offers it no more and
// Removes it once no reader can hold a pointer into it.
func (l *Log) GC(candidates []uint64, collect func(seg uint64, entries []Entry) (bool, error)) (uint64, error) {
	for _, seg := range candidates {
		f, err := l.segment(seg)
		if err != nil {
			return 0, err
		}
		if seg == l.ActiveSegment() {
			continue // still appended to: never collected
		}
		fi, err := f.Stat()
		if err != nil {
			return 0, err
		}
		var entries []Entry
		for off := uint64(0); off < uint64(fi.Size()); {
			key, value, n, err := l.readEntry(seg, off)
			if err != nil {
				return 0, fmt.Errorf("vlog gc at %d/%d: %w", seg, off, err)
			}
			// The key is copied out of the payload so the values can go.
			entries = append(entries, Entry{append([]byte(nil), key...), Pointer{seg, off, uint32(len(value))}})
			off += n
		}
		if ok, err := collect(seg, entries); err != nil || ok {
			return seg, err
		}
	}
	return 0, nil
}

// Remove closes and deletes a segment. A pointer into it fails with
// ErrNotFound from now on.
func (l *Log) Remove(seg uint64) error {
	l.mu.Lock()
	f, ok := l.segments[seg]
	delete(l.segments, seg)
	l.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	f.Close()
	return l.fs.Remove(l.segmentPath(seg))
}

// Sync fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	f := l.active
	l.mu.Unlock()
	return f.Sync()
}

// Close closes every segment file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, f := range l.segments {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	l.segments = map[uint64]vfs.File{}
	return first
}
