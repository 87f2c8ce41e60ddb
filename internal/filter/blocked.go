package filter

import (
	"encoding/binary"
	"math"
)

// Register-blocked Bloom filter (Putze, Sanders, Singler, JEA'09): each key
// is confined to one 64-byte cache-line-sized block, so a membership probe
// touches exactly one cache line regardless of k. The price is a slightly
// higher false-positive rate at equal space, because keys are not spread
// over the whole array — the CPU-vs-FPR tradeoff experiment E11 quantifies.
//
// Serialized layout:
//
//	byte 0      kind (KindBlockedBloom)
//	byte 1      k (probes within the block)
//	bytes 2..6  uint32 number of 512-bit blocks
//	bytes 6..   block data (64 bytes per block)

const (
	blockedHeaderLen = 6
	blockBits        = 512
	blockBytes       = blockBits / 8
)

type blockedBuilder struct {
	bitsPerKey float64
	k          int
	hashes     []KeyHash
}

func newBlockedBuilder(bitsPerKey float64) *blockedBuilder {
	if bitsPerKey <= 0 {
		bitsPerKey = 10
	}
	k := OptimalProbes(bitsPerKey)
	// Within a single cache line, more than 8 probes buys almost nothing
	// and costs CPU.
	if k > 8 {
		k = 8
	}
	return &blockedBuilder{bitsPerKey: bitsPerKey, k: k}
}

func (b *blockedBuilder) AddHash(kh KeyHash) { b.hashes = append(b.hashes, kh) }

func (b *blockedBuilder) Finish() ([]byte, error) {
	nblocks := uint64(math.Ceil(float64(len(b.hashes)) * b.bitsPerKey / blockBits))
	if nblocks < 1 {
		nblocks = 1
	}
	buf := make([]byte, blockedHeaderLen+int(nblocks)*blockBytes)
	buf[0] = byte(KindBlockedBloom)
	buf[1] = byte(b.k)
	binary.LittleEndian.PutUint32(buf[2:], uint32(nblocks))
	data := buf[blockedHeaderLen:]
	for _, kh := range b.hashes {
		block := data[reduce(kh.H1, nblocks)*blockBytes:]
		// Derive in-block probe positions from H2 alone: H1 is consumed by
		// block selection, so reusing it inside the block would correlate
		// block choice with bit choice.
		h := kh.H2
		for i := 0; i < b.k; i++ {
			pos := h & (blockBits - 1)
			block[pos>>3] |= 1 << (pos & 7)
			h = h>>9 | h<<55 // rotate to expose fresh bits per probe
		}
	}
	return buf, nil
}

type blockedReader struct {
	k       int
	nblocks uint64
	data    []byte
}

func newBlockedReader(data []byte) (*blockedReader, error) {
	if len(data) < blockedHeaderLen {
		return nil, ErrCorruptFilter
	}
	k := int(data[1])
	nblocks := uint64(binary.LittleEndian.Uint32(data[2:]))
	if k < 1 || nblocks == 0 || uint64(len(data)-blockedHeaderLen) < nblocks*blockBytes {
		return nil, ErrCorruptFilter
	}
	return &blockedReader{k: k, nblocks: nblocks, data: data[blockedHeaderLen:]}, nil
}

func (r *blockedReader) MayContainHash(kh KeyHash) bool {
	block := r.data[reduce(kh.H1, r.nblocks)*blockBytes:]
	h := kh.H2
	for i := 0; i < r.k; i++ {
		pos := h & (blockBits - 1)
		if block[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
		h = h>>9 | h<<55
	}
	return true
}

func (r *blockedReader) ApproxMemory() int { return blockedHeaderLen + len(r.data) }
