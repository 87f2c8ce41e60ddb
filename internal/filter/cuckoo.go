package filter

import (
	"encoding/binary"
	"math"
)

// Cuckoo filter (Fan et al., CoNEXT'14), the Bloom replacement used by
// SlimDB and Chucky: 4-way bucketized, partial-key fingerprints, two
// candidate buckets related by the partial-key XOR trick. Unlike a Bloom
// filter, a cuckoo filter can support deletion; this one has none,
// because a run's filter is immutable and a merge builds a new one.
//
// Serialized layout:
//
//	byte 0       kind (KindCuckoo)
//	byte 1       fingerprint bits (4..16)
//	bytes 2..6   uint32 bucket count (power of two)
//	bytes 6..10  uint32 stash entry count
//	then         packed slot data (bucketCount*4 slots of fpBits)
//	then         stash entries, 8 bytes each (raw H1 of overflow keys)

const (
	cuckooHeaderLen   = 10
	cuckooSlots       = 4
	cuckooMaxKicks    = 500
	cuckooTargetLoad  = 0.84
	cuckooStashBinary = 8
)

// packedSlots stores fixed-width fingerprints back to back in a byte
// slice. Slot width is at most 16 bits, so a slot spans at most 3 bytes.
type packedSlots struct {
	width int // bits per slot
	data  []byte
}

func newPackedSlots(width, n int) packedSlots {
	return packedSlots{width: width, data: make([]byte, (width*n+7)/8)}
}

func (p packedSlots) get(i int) uint16 {
	bitPos := i * p.width
	bytePos := bitPos >> 3
	shift := uint(bitPos & 7)
	var raw uint32
	for j := 0; j < 3 && bytePos+j < len(p.data); j++ {
		raw |= uint32(p.data[bytePos+j]) << (8 * j)
	}
	return uint16((raw >> shift) & ((1 << p.width) - 1))
}

func (p packedSlots) set(i int, v uint16) {
	bitPos := i * p.width
	bytePos := bitPos >> 3
	shift := uint(bitPos & 7)
	mask := uint32((1<<p.width)-1) << shift
	var raw uint32
	span := 3
	if bytePos+span > len(p.data) {
		span = len(p.data) - bytePos
	}
	for j := 0; j < span; j++ {
		raw |= uint32(p.data[bytePos+j]) << (8 * j)
	}
	raw = (raw &^ mask) | (uint32(v) << shift)
	for j := 0; j < span; j++ {
		p.data[bytePos+j] = byte(raw >> (8 * j))
	}
}

// Cuckoo is a cuckoo filter: mutable while a Builder fills it, read-only
// once decoded behind a Reader.
type Cuckoo struct {
	fpBits   int
	mask     uint64 // bucketCount - 1
	nbuckets int
	slots    packedSlots
	stash    []uint64 // H1 of keys that failed insertion
	rng      uint64   // xorshift state for eviction choice
}

// NewCuckoo creates a cuckoo filter sized for capacity keys at the given
// per-key space budget. fpBits is derived from bitsPerKey and clamped to
// [4, 16].
func NewCuckoo(capacity int, bitsPerKey float64) *Cuckoo {
	fpBits := int(math.Round(bitsPerKey * cuckooTargetLoad))
	if fpBits < 4 {
		fpBits = 4
	}
	if fpBits > 16 {
		fpBits = 16
	}
	need := int(math.Ceil(float64(capacity) / (cuckooSlots * cuckooTargetLoad)))
	nbuckets := 1
	for nbuckets < need {
		nbuckets <<= 1
	}
	return &Cuckoo{
		fpBits:   fpBits,
		mask:     uint64(nbuckets - 1),
		nbuckets: nbuckets,
		slots:    newPackedSlots(fpBits, nbuckets*cuckooSlots),
		rng:      0x2545f4914f6cdd1d,
	}
}

// fingerprint derives a non-zero fpBits-wide tag from the key digest.
func (c *Cuckoo) fingerprint(kh KeyHash) uint16 {
	fp := uint16(kh.H2 & ((1 << c.fpBits) - 1))
	if fp == 0 {
		fp = 1
	}
	return fp
}

// altBucket applies the partial-key XOR displacement.
func (c *Cuckoo) altBucket(b uint64, fp uint16) uint64 {
	return (b ^ mix64(uint64(fp))) & c.mask
}

func (c *Cuckoo) bucketIndex(kh KeyHash) uint64 { return kh.H1 & c.mask }

func (c *Cuckoo) findInBucket(b uint64, fp uint16) int {
	base := int(b) * cuckooSlots
	for s := 0; s < cuckooSlots; s++ {
		if c.slots.get(base+s) == fp {
			return base + s
		}
	}
	return -1
}

func (c *Cuckoo) emptyInBucket(b uint64) int {
	base := int(b) * cuckooSlots
	for s := 0; s < cuckooSlots; s++ {
		if c.slots.get(base+s) == 0 {
			return base + s
		}
	}
	return -1
}

// Insert adds a key digest. It reports false only if both buckets were
// full and the eviction chain exceeded the kick budget, in which case the
// key is kept in an exact stash (queries remain correct, space degrades).
func (c *Cuckoo) Insert(kh KeyHash) bool {
	fp := c.fingerprint(kh)
	b1 := c.bucketIndex(kh)
	if i := c.emptyInBucket(b1); i >= 0 {
		c.slots.set(i, fp)
		return true
	}
	b2 := c.altBucket(b1, fp)
	if i := c.emptyInBucket(b2); i >= 0 {
		c.slots.set(i, fp)
		return true
	}
	// Evict: random walk between the two candidate buckets.
	b := b1
	if c.nextRand()&1 == 0 {
		b = b2
	}
	cur := fp
	for kick := 0; kick < cuckooMaxKicks; kick++ {
		slot := int(b)*cuckooSlots + int(c.nextRand()%cuckooSlots)
		victim := c.slots.get(slot)
		c.slots.set(slot, cur)
		cur = victim
		b = c.altBucket(b, cur)
		if i := c.emptyInBucket(b); i >= 0 {
			c.slots.set(i, cur)
			return true
		}
	}
	// The displaced fingerprint chain could not be placed. Park the final
	// displaced fingerprint's identity in the stash via its home hash; we
	// cannot recover its original H1, so stash the *inserted* key and put
	// the displaced fingerprint back by undoing nothing: instead, stash is
	// keyed on fingerprints paired with buckets.
	c.stash = append(c.stash, uint64(cur)|b<<16)
	return false
}

func (c *Cuckoo) nextRand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// Contains reports whether the key digest may be a member.
func (c *Cuckoo) Contains(kh KeyHash) bool {
	fp := c.fingerprint(kh)
	b1 := c.bucketIndex(kh)
	if c.findInBucket(b1, fp) >= 0 {
		return true
	}
	b2 := c.altBucket(b1, fp)
	if c.findInBucket(b2, fp) >= 0 {
		return true
	}
	return c.stashContains(b1, b2, fp)
}

func (c *Cuckoo) stashContains(b1, b2 uint64, fp uint16) bool {
	for _, e := range c.stash {
		efp := uint16(e & 0xffff)
		eb := e >> 16
		if efp == fp && (eb == b1 || eb == b2) {
			return true
		}
	}
	return false
}

// Encode serializes the filter.
func (c *Cuckoo) Encode() []byte {
	buf := make([]byte, cuckooHeaderLen, cuckooHeaderLen+len(c.slots.data)+len(c.stash)*cuckooStashBinary)
	buf[0] = byte(KindCuckoo)
	buf[1] = byte(c.fpBits)
	binary.LittleEndian.PutUint32(buf[2:], uint32(c.nbuckets))
	binary.LittleEndian.PutUint32(buf[6:], uint32(len(c.stash)))
	buf = append(buf, c.slots.data...)
	for _, e := range c.stash {
		buf = binary.LittleEndian.AppendUint64(buf, e)
	}
	return buf
}

// DecodeCuckoo deserializes a filter produced by Encode.
func DecodeCuckoo(data []byte) (*Cuckoo, error) {
	if len(data) < cuckooHeaderLen || FilterKind(data[0]) != KindCuckoo {
		return nil, ErrCorruptFilter
	}
	fpBits := int(data[1])
	nbuckets := int(binary.LittleEndian.Uint32(data[2:]))
	nstash := int(binary.LittleEndian.Uint32(data[6:]))
	if fpBits < 1 || fpBits > 16 || nbuckets <= 0 || nbuckets&(nbuckets-1) != 0 {
		return nil, ErrCorruptFilter
	}
	slotBytes := (fpBits*nbuckets*cuckooSlots + 7) / 8
	if len(data) < cuckooHeaderLen+slotBytes+nstash*cuckooStashBinary {
		return nil, ErrCorruptFilter
	}
	c := &Cuckoo{
		fpBits:   fpBits,
		mask:     uint64(nbuckets - 1),
		nbuckets: nbuckets,
		slots:    packedSlots{width: fpBits, data: data[cuckooHeaderLen : cuckooHeaderLen+slotBytes]},
		rng:      0x2545f4914f6cdd1d,
	}
	rest := data[cuckooHeaderLen+slotBytes:]
	for i := 0; i < nstash; i++ {
		c.stash = append(c.stash, binary.LittleEndian.Uint64(rest[i*cuckooStashBinary:]))
	}
	return c, nil
}

// CuckooFPR returns the approximate false positive rate for a cuckoo
// filter with the given fingerprint bits: 2b/2^f for b slots per bucket
// across two candidate buckets.
func CuckooFPR(fpBits int) float64 {
	return float64(2*cuckooSlots) / math.Pow(2, float64(fpBits))
}

// cuckooBuilder adapts Cuckoo to the Builder interface.
type cuckooBuilder struct{ c *Cuckoo }

func newCuckooBuilder(n int, bitsPerKey float64) *cuckooBuilder {
	return &cuckooBuilder{c: NewCuckoo(n, bitsPerKey)}
}

func (b *cuckooBuilder) AddHash(kh KeyHash) { b.c.Insert(kh) }

func (b *cuckooBuilder) Finish() ([]byte, error) { return b.c.Encode(), nil }

type cuckooReader struct{ c *Cuckoo }

func newCuckooReader(data []byte) (*cuckooReader, error) {
	c, err := DecodeCuckoo(data)
	if err != nil {
		return nil, err
	}
	return &cuckooReader{c: c}, nil
}

func (r *cuckooReader) MayContainHash(kh KeyHash) bool { return r.c.Contains(kh) }
func (r *cuckooReader) ApproxMemory() int {
	return cuckooHeaderLen + len(r.c.slots.data) + len(r.c.stash)*cuckooStashBinary
}
