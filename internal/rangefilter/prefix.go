package rangefilter

import (
	"bytes"

	"lsmkv/internal/filter"
)

// Prefix Bloom filter (RocksDB's prefix_extractor + prefix bloom): store
// the fixed-length prefix of every key in a Bloom filter. A range query
// whose bounds share the same prefix probes that one prefix; ranges that
// span prefixes cannot be answered and return maybe. This is the cheapest
// range filter and the least general — exactly the tradeoff E4 measures.
//
// Serialized layout:
//
//	byte 0     kind (KindPrefix)
//	byte 1     prefix length
//	byte 2     1 if any key shorter than the prefix length was added
//	bytes 3..  serialized filter.Bloom over the prefixes

type prefixBuilder struct {
	prefixLen int
	bloom     filter.Builder
	hasShort  bool
	last      []byte
	seen      map[string]struct{}
}

func newPrefixBuilder(prefixLen int, bitsPerKey float64) *prefixBuilder {
	if prefixLen < 1 {
		prefixLen = 8
	}
	if bitsPerKey <= 0 {
		bitsPerKey = 10
	}
	return &prefixBuilder{
		prefixLen: prefixLen,
		bloom:     filter.Policy{Kind: filter.KindBloom, BitsPerKey: bitsPerKey}.NewBuilder(1),
		seen:      make(map[string]struct{}),
	}
}

func (b *prefixBuilder) AddKey(key []byte) error {
	if b.last != nil && bytes.Compare(key, b.last) < 0 {
		return ErrUnsorted
	}
	b.last = append(b.last[:0], key...)
	p := key
	if len(p) > b.prefixLen {
		p = p[:b.prefixLen]
	} else if len(p) < b.prefixLen {
		b.hasShort = true
	}
	// Deduplicate prefixes so the Bloom budget is spent on distinct ones.
	if _, ok := b.seen[string(p)]; ok {
		return nil
	}
	b.seen[string(p)] = struct{}{}
	b.bloom.AddHash(filter.HashKey(p))
	return nil
}

func (b *prefixBuilder) Finish() ([]byte, error) {
	bloomData, err := b.bloom.Finish()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 3, 3+len(bloomData))
	out[0] = byte(KindPrefix)
	out[1] = byte(b.prefixLen)
	if b.hasShort {
		out[2] = 1
	}
	return append(out, bloomData...), nil
}

type prefixReader struct {
	prefixLen int
	hasShort  bool
	bloom     filter.Reader
	size      int
}

func decodePrefix(data []byte) (*prefixReader, error) {
	if len(data) <= 3 {
		return nil, ErrCorrupt
	}
	bloom, err := filter.NewReader(data[3:])
	if err != nil {
		return nil, err
	}
	return &prefixReader{
		prefixLen: int(data[1]),
		hasShort:  data[2] == 1,
		bloom:     bloom,
		size:      len(data),
	}, nil
}

func (r *prefixReader) probe(p []byte) bool {
	return r.bloom.MayContainHash(filter.HashKey(p))
}

func (r *prefixReader) MayContainRange(lo, hi []byte) bool {
	// Only ranges confined to a single full-length prefix are answerable.
	if len(lo) < r.prefixLen || len(hi) < r.prefixLen {
		return true
	}
	if !bytes.Equal(lo[:r.prefixLen], hi[:r.prefixLen]) {
		return true
	}
	// Any key in [lo, hi] that is at least prefixLen long shares the
	// bounds' prefix, so probing it suffices. A key shorter than prefixLen
	// cannot lie in the range at all: being >= lo forces a byte above lo's
	// within the shared-prefix region, which contradicts being <= hi.
	return r.probe(lo[:r.prefixLen])
}

func (r *prefixReader) Kind() Kind { return KindPrefix }

func (r *prefixReader) ApproxMemory() int { return r.size }
