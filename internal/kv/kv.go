// Package kv defines the key/value data model shared by every layer of the
// engine: user keys, internal keys carrying sequence numbers and operation
// kinds, and the ordering rules that make multi-version reads correct.
//
// An internal key is the user key followed by an 8-byte little-endian
// trailer packing (seqnum << 8) | kind, mirroring the classic LevelDB
// layout. Internal keys sort by user key ascending, then by sequence number
// descending (newest first), then by kind descending. That ordering is what
// lets a point lookup stop at the first match and lets merging iterators
// surface only the latest visible version of each key.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Kind identifies what an entry does to its key.
type Kind uint8

const (
	// KindDelete is a tombstone: the key is logically absent.
	KindDelete Kind = 0
	// KindSet stores the value inline.
	KindSet Kind = 1
	// KindValuePointer stores a pointer into the value log (key-value
	// separation); the value bytes are a vlog.Pointer encoding.
	KindValuePointer Kind = 2
	// KindSetTTL stores the value inline with an expiry: the value bytes
	// are an 8-byte little-endian unix-nanosecond expiry timestamp
	// followed by the payload (see AppendExpiryValue). Past its expiry the
	// entry behaves as a tombstone: reads skip it, and bottommost
	// compaction drops it together with the versions it shadows.
	KindSetTTL Kind = 3
	// KindMax is the largest kind, used when constructing seek keys so a
	// lookup key sorts before every real entry with the same (key, seq).
	KindMax Kind = KindSetTTL
)

func (k Kind) String() string {
	switch k {
	case KindDelete:
		return "delete"
	case KindSet:
		return "set"
	case KindValuePointer:
		return "vptr"
	case KindSetTTL:
		return "setttl"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// SeqNum is a monotonically increasing version number assigned by the
// engine at write time. Snapshot reads see only entries with SeqNum at or
// below the snapshot's sequence.
type SeqNum uint64

// MaxSeqNum is the largest encodable sequence number (56 bits, since the
// trailer packs the kind into the low byte).
const MaxSeqNum SeqNum = (1 << 56) - 1

// TrailerLen is the byte length of the internal-key trailer.
const TrailerLen = 8

// InternalKey is a user key plus its version trailer. The zero value is
// invalid; build one with MakeInternalKey or decode with ParseInternalKey.
type InternalKey struct {
	UserKey []byte
	Seq     SeqNum
	Kind    Kind
}

// MakeInternalKey assembles an internal key. The user key is aliased, not
// copied.
func MakeInternalKey(userKey []byte, seq SeqNum, kind Kind) InternalKey {
	return InternalKey{UserKey: userKey, Seq: seq, Kind: kind}
}

// MakeSearchKey returns the internal key that sorts at or before every
// entry for userKey visible at snapshot seq. Use it as the seek target for
// point lookups.
func MakeSearchKey(userKey []byte, seq SeqNum) InternalKey {
	return InternalKey{UserKey: userKey, Seq: seq, Kind: KindMax}
}

// Trailer packs the sequence number and kind into the 8-byte suffix value.
func (ik InternalKey) Trailer() uint64 {
	return uint64(ik.Seq)<<8 | uint64(ik.Kind)
}

// Encode appends the wire form (user key + 8-byte trailer) to dst and
// returns the extended slice.
func (ik InternalKey) Encode(dst []byte) []byte {
	dst = append(dst, ik.UserKey...)
	var tr [TrailerLen]byte
	binary.LittleEndian.PutUint64(tr[:], ik.Trailer())
	return append(dst, tr[:]...)
}

// Size returns the encoded length of the internal key.
func (ik InternalKey) Size() int { return len(ik.UserKey) + TrailerLen }

// Clone returns a deep copy that shares no memory with ik.
func (ik InternalKey) Clone() InternalKey {
	return InternalKey{
		UserKey: append([]byte(nil), ik.UserKey...),
		Seq:     ik.Seq,
		Kind:    ik.Kind,
	}
}

// Visible reports whether the entry is visible at snapshot seq.
func (ik InternalKey) Visible(seq SeqNum) bool { return ik.Seq <= seq }

func (ik InternalKey) String() string {
	return fmt.Sprintf("%q#%d,%s", ik.UserKey, ik.Seq, ik.Kind)
}

// ParseInternalKey decodes the wire form produced by Encode. The returned
// key aliases data. It reports ok=false if data is too short.
func ParseInternalKey(data []byte) (ik InternalKey, ok bool) {
	if len(data) < TrailerLen {
		return InternalKey{}, false
	}
	n := len(data) - TrailerLen
	tr := binary.LittleEndian.Uint64(data[n:])
	return InternalKey{
		UserKey: data[:n:n],
		Seq:     SeqNum(tr >> 8),
		Kind:    Kind(tr & 0xff),
	}, true
}

// CompareInternal orders two internal keys: user key ascending, then
// sequence number descending, then kind descending. Newest versions sort
// first within a user key.
func CompareInternal(a, b InternalKey) int {
	if c := bytes.Compare(a.UserKey, b.UserKey); c != 0 {
		return c
	}
	// Larger trailer (newer seq / higher kind) sorts earlier.
	at, bt := a.Trailer(), b.Trailer()
	switch {
	case at > bt:
		return -1
	case at < bt:
		return 1
	default:
		return 0
	}
}

// CompareEncodedInternal orders two encoded internal keys without
// materializing InternalKey structs.
func CompareEncodedInternal(a, b []byte) int {
	ak, aok := ParseInternalKey(a)
	bk, bok := ParseInternalKey(b)
	if !aok || !bok {
		// Malformed keys order by raw bytes; they should never occur in
		// well-formed tables.
		return bytes.Compare(a, b)
	}
	return CompareInternal(ak, bk)
}

// Entry is a single versioned key/value pair flowing through memtables,
// sstables, and iterators.
type Entry struct {
	Key   InternalKey
	Value []byte
}

// Size returns the approximate in-memory footprint of the entry payload.
func (e Entry) Size() int { return e.Key.Size() + len(e.Value) }

// Iterator is the engine-wide positional iterator contract over versioned
// entries. Implementations are not safe for concurrent use.
//
// All positioning methods report whether the iterator landed on a valid
// entry. Key and Value may only be called while valid, and the returned
// slices are only guaranteed until the next positioning call.
type Iterator interface {
	// SeekGE positions at the first entry with internal key >= target.
	SeekGE(target InternalKey) bool
	// First positions at the first entry.
	First() bool
	// Next advances; returns false when exhausted.
	Next() bool
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// Key returns the current internal key.
	Key() InternalKey
	// Value returns the current value payload.
	Value() []byte
	// Error returns the first error the iterator encountered, if any.
	Error() error
	// Close releases resources. The iterator is unusable afterwards.
	Close() error
}
