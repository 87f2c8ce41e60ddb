// Package fence implements fence pointers — the per-run sparse index
// (a specialization of zonemaps) that maps a user key to the single data
// block that may contain it, so a run probe costs one storage access
// instead of a binary search over the file (tutorial Module II-i). It also
// provides the data-block hash index that replaces the in-block restart
// binary search with a constant-time bucket probe (Module II-iv).
package fence

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
)

// ErrCorrupt is returned when decoding a malformed serialized index.
var ErrCorrupt = errors.New("fence: corrupt index")

// BlockHandle locates a block within a run file.
type BlockHandle struct {
	Offset uint64
	Length uint64
}

// EncodeTo appends the handle in varint form.
func (h BlockHandle) EncodeTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, h.Offset)
	return binary.AppendUvarint(dst, h.Length)
}

// DecodeBlockHandle reads a handle, returning the remaining bytes.
func DecodeBlockHandle(data []byte) (BlockHandle, []byte, bool) {
	off, n := binary.Uvarint(data)
	if n <= 0 {
		return BlockHandle{}, nil, false
	}
	length, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return BlockHandle{}, nil, false
	}
	return BlockHandle{Offset: off, Length: length}, data[n+m:], true
}

// Entry is one fence: the first user key of a block plus the block handle.
type Entry struct {
	FirstKey []byte
	Handle   BlockHandle
}

// Index is the in-memory fence-pointer array for one run: entries sorted
// by FirstKey, one per data block.
type Index struct {
	entries []Entry
}

// Builder accumulates fences in block order.
type Builder struct {
	entries []Entry
}

// Add appends a fence for the next block. FirstKey must be >= every key of
// earlier blocks; Add copies it.
func (b *Builder) Add(firstKey []byte, h BlockHandle) {
	b.entries = append(b.entries, Entry{
		FirstKey: append([]byte(nil), firstKey...),
		Handle:   h,
	})
}

// Count returns the number of fences added.
func (b *Builder) Count() int { return len(b.entries) }

// Build freezes the builder into an Index.
func (b *Builder) Build() *Index { return &Index{entries: b.entries} }

// Encode serializes the fences: uvarint count, then per fence a
// length-prefixed key and a handle.
func (b *Builder) Encode() []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(b.entries)))
	for _, e := range b.entries {
		out = binary.AppendUvarint(out, uint64(len(e.FirstKey)))
		out = append(out, e.FirstKey...)
		out = e.Handle.EncodeTo(out)
	}
	return out
}

// Decode parses a serialized fence array.
func Decode(data []byte) (*Index, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, ErrCorrupt
	}
	data = data[w:]
	// The count is untrusted input: cap the allocation hint by what the
	// remaining bytes could possibly frame (>= 3 bytes per entry).
	capHint := n
	if max := uint64(len(data))/3 + 1; capHint > max {
		capHint = max
	}
	entries := make([]Entry, 0, capHint)
	for i := uint64(0); i < n; i++ {
		klen, w := binary.Uvarint(data)
		if w <= 0 || uint64(len(data)-w) < klen {
			return nil, ErrCorrupt
		}
		key := data[w : w+int(klen) : w+int(klen)]
		var h BlockHandle
		var ok bool
		h, data, ok = DecodeBlockHandle(data[w+int(klen):])
		if !ok {
			return nil, ErrCorrupt
		}
		entries = append(entries, Entry{FirstKey: key, Handle: h})
	}
	if len(data) != 0 {
		return nil, ErrCorrupt
	}
	return &Index{entries: entries}, nil
}

// Len returns the number of blocks indexed.
func (x *Index) Len() int { return len(x.entries) }

// Entry returns the i-th fence.
func (x *Index) Entry(i int) Entry { return x.entries[i] }

// Find returns the index of the block that may contain userKey: the last
// block whose first key is <= userKey. It returns -1 when userKey sorts
// before the first block.
func (x *Index) Find(userKey []byte) int {
	// First block whose FirstKey > userKey, minus one.
	i := sort.Search(len(x.entries), func(i int) bool {
		return bytes.Compare(x.entries[i].FirstKey, userKey) > 0
	})
	return i - 1
}

// ApproxMemory returns the resident bytes of the fence array.
func (x *Index) ApproxMemory() int {
	total := 0
	for _, e := range x.entries {
		total += len(e.FirstKey) + 16
	}
	return total
}
