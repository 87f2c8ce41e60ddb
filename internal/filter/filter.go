package filter

import (
	"errors"
	"fmt"
)

// Errors returned when decoding serialized filters.
var (
	ErrCorruptFilter = errors.New("filter: corrupt serialized filter")
	ErrUnknownKind   = errors.New("filter: unknown filter kind")
)

// FilterKind tags the serialized representation of a filter so readers can
// dispatch without out-of-band configuration.
type FilterKind uint8

const (
	// KindNone disables filtering.
	KindNone FilterKind = 0
	// KindBloom is the classic partitioned-by-probe Bloom filter.
	KindBloom FilterKind = 1
	// KindBlockedBloom is the register-blocked (cache-local) Bloom filter.
	KindBlockedBloom FilterKind = 2
	// KindCuckoo is a 4-way bucketized cuckoo filter.
	KindCuckoo FilterKind = 3
	// KindRibbon is a standard ribbon filter with a 64-bit band.
	KindRibbon FilterKind = 4
)

func (k FilterKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindBloom:
		return "bloom"
	case KindBlockedBloom:
		return "blocked-bloom"
	case KindCuckoo:
		return "cuckoo"
	case KindRibbon:
		return "ribbon"
	default:
		return fmt.Sprintf("filter-kind(%d)", uint8(k))
	}
}

// Builder accumulates the key set of one sorted run (or one filter
// partition) and serializes a probe-ready filter.
type Builder interface {
	// AddHash inserts a pre-hashed key.
	AddHash(kh KeyHash)
	// Finish serializes the filter. The builder is single-use.
	Finish() ([]byte, error)
}

// Reader answers membership queries against a serialized filter.
type Reader interface {
	// MayContainHash reports whether the key with the given digest may be a
	// member. False means definitely absent.
	MayContainHash(kh KeyHash) bool
	// ApproxMemory returns the resident size of the filter in bytes.
	ApproxMemory() int
}

// Policy creates builders for new runs and decodes serialized filters. A
// Policy captures the design-space choice "which AMQ structure, at what
// space budget".
type Policy struct {
	// Kind selects the filter implementation.
	Kind FilterKind
	// BitsPerKey is the space budget. For cuckoo filters it is rounded to a
	// fingerprint size; for ribbon filters it sets the fingerprint width.
	BitsPerKey float64
}

// NewBuilder returns a builder for a run expected to hold n keys. n is a
// sizing hint; builders accept any number of adds, but cuckoo and ribbon
// construction space is reserved up front from it.
func (p Policy) NewBuilder(n int) Builder {
	if n < 1 {
		n = 1
	}
	switch p.Kind {
	case KindNone:
		return noneBuilder{}
	case KindBloom:
		return newBloomBuilder(p.BitsPerKey)
	case KindBlockedBloom:
		return newBlockedBuilder(p.BitsPerKey)
	case KindCuckoo:
		return newCuckooBuilder(n, p.BitsPerKey)
	case KindRibbon:
		return newRibbonBuilder(n, p.BitsPerKey)
	default:
		return noneBuilder{}
	}
}

// NewReader decodes a serialized filter produced by any Builder in this
// package. A nil or empty buffer yields an always-true reader.
func NewReader(data []byte) (Reader, error) {
	if len(data) == 0 {
		return noneReader{}, nil
	}
	switch FilterKind(data[0]) {
	case KindNone:
		return noneReader{}, nil
	case KindBloom:
		return newBloomReader(data)
	case KindBlockedBloom:
		return newBlockedReader(data)
	case KindCuckoo:
		return newCuckooReader(data)
	case KindRibbon:
		return newRibbonReader(data)
	default:
		return nil, fmt.Errorf("%w: kind byte %d", ErrUnknownKind, data[0])
	}
}

// noneBuilder/noneReader implement the "no filter" design point: every
// probe returns maybe, so every run is consulted.
type noneBuilder struct{}

func (noneBuilder) AddHash(KeyHash)         {}
func (noneBuilder) Finish() ([]byte, error) { return nil, nil }

type noneReader struct{}

func (noneReader) MayContainHash(KeyHash) bool { return true }
func (noneReader) ApproxMemory() int           { return 0 }
