package rangefilter

import (
	"bytes"
	"encoding/binary"
	"sort"

	"lsmkv/internal/filter"
)

// SuRF-style range filter (Zhang et al., SIGMOD'18). The original encodes
// a trie truncated at minimal distinguishing prefixes in LOUDS-DS; this
// implementation keeps identical filtering semantics with an array-encoded
// trie: the sorted set of truncated keys, where each key is cut at one
// byte past its longest common prefix with either sorted neighbor. Three
// variants mirror SuRF-Base, SuRF-Hash (a per-key hash byte that prunes
// point lookups), and SuRF-Real (keep extra real key bytes, pruning both
// point and range lookups).
//
// Query logic treats each stored prefix p as covering the key interval
// [p, p·0xff…]; intervals of a prefix-truncated sorted set behave like
// trie leaves, so binary search plus two boundary checks answers range
// emptiness with one-sided error (no false negatives; see the package
// tests for the differential property check).
//
// Serialized layout:
//
//	byte 0    kind (KindSuRF)
//	byte 1    mode (SuRFBase/Hash/Real)
//	uvarint   entry count
//	entries   length-prefixed truncated keys (sorted)
//	hashes    one byte per entry (mode == SuRFHash only)

type surfBuilder struct {
	mode        SuRFMode
	suffixBytes int
	keys        [][]byte
	last        []byte
}

func newSuRFBuilder(mode SuRFMode, suffixBytes int) *surfBuilder {
	if mode == SuRFReal && suffixBytes < 1 {
		suffixBytes = 1
	}
	if mode != SuRFReal {
		suffixBytes = 0
	}
	return &surfBuilder{mode: mode, suffixBytes: suffixBytes}
}

func (b *surfBuilder) AddKey(key []byte) error {
	if b.last != nil && bytes.Compare(key, b.last) < 0 {
		return ErrUnsorted
	}
	if b.last != nil && bytes.Equal(key, b.last) {
		return nil // deduplicate
	}
	b.last = append([]byte(nil), key...)
	b.keys = append(b.keys, b.last)
	return nil
}

func (b *surfBuilder) Finish() ([]byte, error) {
	n := len(b.keys)
	out := []byte{byte(KindSuRF), byte(b.mode)}
	out = binary.AppendUvarint(out, uint64(n))
	var hashes []byte
	for i, k := range b.keys {
		lcp := 0
		if i > 0 {
			if l := lcpLen(k, b.keys[i-1]); l > lcp {
				lcp = l
			}
		}
		if i+1 < n {
			if l := lcpLen(k, b.keys[i+1]); l > lcp {
				lcp = l
			}
		}
		cut := lcp + 1 + b.suffixBytes
		if cut > len(k) {
			cut = len(k)
		}
		out = binary.AppendUvarint(out, uint64(cut))
		out = append(out, k[:cut]...)
		if b.mode == SuRFHash {
			hashes = append(hashes, byte(filter.Hash64(k, 0x5a)))
		}
	}
	return append(out, hashes...), nil
}

func lcpLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

type surfReader struct {
	mode    SuRFMode
	entries [][]byte // sorted truncated keys, aliasing the serialized blob
	hashes  []byte
	size    int
}

func decodeSuRF(data []byte) (*surfReader, error) {
	if len(data) < 2 {
		return nil, ErrCorrupt
	}
	r := &surfReader{mode: SuRFMode(data[1]), size: len(data)}
	rest := data[2:]
	n, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, ErrCorrupt
	}
	rest = rest[w:]
	// Untrusted count: bound the allocation hint by the bytes left.
	capHint := n
	if max := uint64(len(rest)) + 1; capHint > max {
		capHint = max
	}
	r.entries = make([][]byte, 0, capHint)
	for i := uint64(0); i < n; i++ {
		klen, w := binary.Uvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < klen {
			return nil, ErrCorrupt
		}
		r.entries = append(r.entries, rest[w:w+int(klen):w+int(klen)])
		rest = rest[w+int(klen):]
	}
	if r.mode == SuRFHash {
		if uint64(len(rest)) != n {
			return nil, ErrCorrupt
		}
		r.hashes = rest
	} else if len(rest) != 0 {
		return nil, ErrCorrupt
	}
	return r, nil
}

// lookup locates the candidate entries for range [lo, hi]: the first entry
// >= lo, and whether the preceding entry is a prefix of lo.
func (r *surfReader) lookup(lo, hi []byte) (idx int, prevIsPrefix bool) {
	idx = sort.Search(len(r.entries), func(i int) bool {
		return bytes.Compare(r.entries[i], lo) >= 0
	})
	if idx > 0 {
		prev := r.entries[idx-1]
		prevIsPrefix = len(prev) <= len(lo) && bytes.Equal(prev, lo[:len(prev)])
	}
	return idx, prevIsPrefix
}

func (r *surfReader) MayContainRange(lo, hi []byte) bool {
	if len(r.entries) == 0 {
		return false
	}
	if bytes.Compare(lo, hi) > 0 {
		return false
	}
	idx, prevIsPrefix := r.lookup(lo, hi)
	if prevIsPrefix {
		// The preceding trie leaf covers lo itself.
		return true
	}
	return idx < len(r.entries) && bytes.Compare(r.entries[idx], hi) <= 0
}

func (r *surfReader) Kind() Kind { return KindSuRF }

func (r *surfReader) ApproxMemory() int { return r.size }
