// Package rangefilter implements the range-query filters the tutorial
// surveys (Module II-ii). LSM range queries must probe every sorted run
// that might intersect the query range; a range filter answers "may this
// run contain any key in [lo, hi]?" so empty runs are skipped without I/O.
//
// Four designs with different sweet spots are provided:
//
//   - Prefix Bloom filters (RocksDB): fixed-length key prefixes in a Bloom
//     filter; answers only ranges that fall within one prefix.
//   - SuRF (Zhang et al., SIGMOD'18): a trie truncated at minimal
//     distinguishing prefixes, with optional hashed or real key suffixes;
//     handles arbitrary ranges, weaker for short ranges.
//   - Rosetta (Luo et al., SIGMOD'20): a hierarchy of Bloom filters over
//     dyadic intervals forming an implicit segment tree; strong for short
//     ranges at higher CPU cost.
//   - SNARF-style (Vaidya et al., VLDB'22): a learned CDF model mapping
//     keys into a sparse bit array; distribution-aware, very compact.
//
// All builders require keys to be added in non-decreasing order (the order
// in which sstable builders emit them); duplicates are tolerated.
package rangefilter

import (
	"errors"
	"fmt"
)

// Errors returned when decoding serialized filters.
var (
	ErrCorrupt     = errors.New("rangefilter: corrupt serialized filter")
	ErrUnknownKind = errors.New("rangefilter: unknown kind")
	ErrUnsorted    = errors.New("rangefilter: keys added out of order")
)

// Kind tags the serialized representation.
type Kind uint8

const (
	// KindNone disables range filtering.
	KindNone Kind = 0
	// KindPrefix is the fixed-length prefix Bloom filter.
	KindPrefix Kind = 1
	// KindSuRF is the succinct-trie-style range filter.
	KindSuRF Kind = 2
	// KindRosetta is the segment-tree-of-Blooms range filter.
	KindRosetta Kind = 3
	// KindSNARF is the learned CDF + bit-array range filter.
	KindSNARF Kind = 4
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPrefix:
		return "prefix"
	case KindSuRF:
		return "surf"
	case KindRosetta:
		return "rosetta"
	case KindSNARF:
		return "snarf"
	default:
		return fmt.Sprintf("rangefilter-kind(%d)", uint8(k))
	}
}

// SuRFMode selects the suffix strategy of the SuRF variant.
type SuRFMode uint8

const (
	// SuRFBase stores only minimal distinguishing prefixes.
	SuRFBase SuRFMode = 0
	// SuRFHash additionally stores a hash byte per key, cutting point-query
	// FPR without helping ranges.
	SuRFHash SuRFMode = 1
	// SuRFReal extends prefixes with real key bytes, helping both point
	// and range queries.
	SuRFReal SuRFMode = 2
)

// Builder accumulates one run's user keys in sorted order.
type Builder interface {
	// AddKey records a user key; keys must arrive non-decreasing.
	AddKey(key []byte) error
	// Finish serializes the filter. Single-use.
	Finish() ([]byte, error)
}

// Reader answers range-emptiness queries against a serialized filter.
type Reader interface {
	// MayContainRange reports whether any member may lie in [lo, hi]
	// (inclusive bounds). False means the run definitely has no key there.
	MayContainRange(lo, hi []byte) bool
	// Kind returns the implementation tag.
	Kind() Kind
	// ApproxMemory returns resident bytes.
	ApproxMemory() int
}

// Policy captures the design-space choice for range filtering.
type Policy struct {
	// Kind selects the structure.
	Kind Kind
	// BitsPerKey is the space budget (Bloom-backed kinds and SNARF).
	BitsPerKey float64
	// PrefixLen is the fixed prefix length for KindPrefix.
	PrefixLen int
	// SuRFMode selects the suffix strategy for KindSuRF.
	SuRFMode SuRFMode
	// SuRFSuffixBytes is the number of real suffix bytes for SuRFReal.
	SuRFSuffixBytes int
	// RosettaMaxRangeLog bounds the largest range (log2) Rosetta can
	// filter; longer ranges answer "maybe". Default 22.
	RosettaMaxRangeLog int
}

// NewBuilder returns a builder for a run expected to hold n keys.
func (p Policy) NewBuilder(n int) Builder {
	if n < 1 {
		n = 1
	}
	switch p.Kind {
	case KindNone:
		return noneBuilder{}
	case KindPrefix:
		return newPrefixBuilder(p.PrefixLen, p.BitsPerKey)
	case KindSuRF:
		return newSuRFBuilder(p.SuRFMode, p.SuRFSuffixBytes)
	case KindRosetta:
		return newRosettaBuilder(n, p.BitsPerKey, p.RosettaMaxRangeLog)
	case KindSNARF:
		return newSNARFBuilder(p.BitsPerKey)
	default:
		return noneBuilder{}
	}
}

// NewReader decodes any serialized filter from this package. Empty input
// yields an always-maybe reader.
func NewReader(data []byte) (Reader, error) {
	if len(data) == 0 {
		return noneReader{}, nil
	}
	switch Kind(data[0]) {
	case KindNone:
		return noneReader{}, nil
	case KindPrefix:
		return decodePrefix(data)
	case KindSuRF:
		return decodeSuRF(data)
	case KindRosetta:
		return decodeRosetta(data)
	case KindSNARF:
		return decodeSNARF(data)
	default:
		return nil, fmt.Errorf("%w: kind byte %d", ErrUnknownKind, data[0])
	}
}

type noneBuilder struct{}

func (noneBuilder) AddKey([]byte) error     { return nil }
func (noneBuilder) Finish() ([]byte, error) { return nil, nil }

type noneReader struct{}

func (noneReader) MayContainRange(_, _ []byte) bool { return true }
func (noneReader) Kind() Kind                       { return KindNone }
func (noneReader) ApproxMemory() int                { return 0 }
