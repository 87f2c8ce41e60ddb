package filter

import (
	"encoding/binary"
	"math"
)

// Standard Bloom filter. Probes are spread across the whole bit array via
// enhanced double hashing from the shared KeyHash, so adding a key or
// testing membership costs k cache lines in the worst case — the CPU cost
// that the register-blocked variant (blocked.go) removes.
//
// Serialized layout:
//
//	byte 0      kind (KindBloom)
//	byte 1      k (number of probes)
//	bytes 2..6  uint32 number of bits
//	bytes 6..   bit array, little-endian 64-bit words

const bloomHeaderLen = 6

// OptimalProbes returns the probe count minimizing FPR at the given space
// budget: k = bitsPerKey * ln 2, clamped to [1, 30].
func OptimalProbes(bitsPerKey float64) int {
	k := int(math.Round(bitsPerKey * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return k
}

// BloomFPR returns the theoretical false-positive rate of a standard Bloom
// filter at the given space budget with its optimal probe count.
func BloomFPR(bitsPerKey float64) float64 {
	if bitsPerKey <= 0 {
		return 1
	}
	k := float64(OptimalProbes(bitsPerKey))
	return math.Pow(1-math.Exp(-k/bitsPerKey), k)
}

// BitsPerKeyForFPR inverts BloomFPR: the space budget needed to reach a
// target false-positive rate, using the optimal-k approximation
// bits = -ln(p) / (ln 2)^2.
func BitsPerKeyForFPR(p float64) float64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		p = 1e-9
	}
	return -math.Log(p) / (math.Ln2 * math.Ln2)
}

type bloomBuilder struct {
	bitsPerKey float64
	k          int
	hashes     []KeyHash
}

func newBloomBuilder(bitsPerKey float64) *bloomBuilder {
	if bitsPerKey <= 0 {
		bitsPerKey = 10
	}
	return &bloomBuilder{bitsPerKey: bitsPerKey, k: OptimalProbes(bitsPerKey)}
}

func (b *bloomBuilder) AddHash(kh KeyHash) { b.hashes = append(b.hashes, kh) }

func (b *bloomBuilder) Finish() ([]byte, error) {
	nbits := uint64(float64(len(b.hashes)) * b.bitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	// Round up to whole words.
	nwords := (nbits + 63) / 64
	nbits = nwords * 64
	buf := make([]byte, bloomHeaderLen+int(nwords)*8)
	buf[0] = byte(KindBloom)
	buf[1] = byte(b.k)
	binary.LittleEndian.PutUint32(buf[2:], uint32(nbits))
	words := buf[bloomHeaderLen:]
	for _, kh := range b.hashes {
		for i := 0; i < b.k; i++ {
			pos := reduce(kh.Probe(uint32(i)), nbits)
			words[pos>>3] |= 1 << (pos & 7)
		}
	}
	return buf, nil
}

type bloomReader struct {
	k     int
	nbits uint64
	bits  []byte
}

func newBloomReader(data []byte) (*bloomReader, error) {
	if len(data) < bloomHeaderLen {
		return nil, ErrCorruptFilter
	}
	k := int(data[1])
	nbits := uint64(binary.LittleEndian.Uint32(data[2:]))
	if k < 1 || nbits == 0 || uint64(len(data)-bloomHeaderLen)*8 < nbits {
		return nil, ErrCorruptFilter
	}
	return &bloomReader{k: k, nbits: nbits, bits: data[bloomHeaderLen:]}, nil
}

func (r *bloomReader) MayContainHash(kh KeyHash) bool {
	for i := 0; i < r.k; i++ {
		pos := reduce(kh.Probe(uint32(i)), r.nbits)
		if r.bits[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}

func (r *bloomReader) ApproxMemory() int { return bloomHeaderLen + len(r.bits) }
