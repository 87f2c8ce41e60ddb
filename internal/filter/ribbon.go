package filter

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Ribbon filter (Dillinger & Walzer, 2021): a static AMQ that stores, for
// each key, an r-bit fingerprint as the solution of a banded linear system
// over GF(2). Space approaches r bits/key with only a few percent overhead
// — "practically smaller than Bloom and Xor" — at the cost of extra CPU for
// construction (band elimination) and query (band dot product). This is a
// portable 64-bit-band implementation of standard ribbon with on-the-fly
// Gaussian elimination.
//
// Serialized layout:
//
//	byte 0       kind (KindRibbon)
//	byte 1       r (fingerprint bits, 1..16)
//	bytes 2..6   uint32 number of solution slots m
//	bytes 6..10  uint32 stash entry count
//	then         packed r-bit solution entries (m of them)
//	then         stash entries, 8 bytes each (raw H1 of failed keys)

const (
	ribbonHeaderLen = 10
	ribbonBand      = 64
	// ribbonOverhead sizes the slot table relative to the key count; ~7%
	// slack keeps the banded system solvable with high probability.
	ribbonOverhead = 1.07
)

type ribbonBuilder struct {
	r      int
	m      int // solution slots
	starts int // valid start positions: m - ribbonBand + 1
	coef   []uint64
	result []uint16
	stash  []uint64
	nkeys  int
}

func newRibbonBuilder(n int, bitsPerKey float64) *ribbonBuilder {
	r := int(math.Round(bitsPerKey / ribbonOverhead))
	if r < 1 {
		r = 1
	}
	if r > 16 {
		r = 16
	}
	m := int(math.Ceil(float64(n)*ribbonOverhead)) + ribbonBand
	return &ribbonBuilder{
		r:      r,
		m:      m,
		starts: m - ribbonBand + 1,
		coef:   make([]uint64, m),
		result: make([]uint16, m),
	}
}

// ribbonRow derives the key's banded equation: a start slot, a 64-bit
// coefficient vector with bit 0 always set, and an r-bit fingerprint.
func ribbonRow(kh KeyHash, starts int, r int) (start int, coeff uint64, fp uint16) {
	start = int(reduce(kh.H1, uint64(starts)))
	coeff = kh.H2 | 1
	fp = uint16(mix64(kh.H1^kh.H2) & ((1 << r) - 1))
	return start, coeff, fp
}

func (b *ribbonBuilder) AddHash(kh KeyHash) {
	b.nkeys++
	start, coeff, fp := ribbonRow(kh, b.starts, b.r)
	// On-the-fly banded Gaussian elimination.
	for coeff != 0 {
		if start >= b.m {
			break
		}
		if b.coef[start] == 0 {
			b.coef[start] = coeff
			b.result[start] = fp
			return
		}
		coeff ^= b.coef[start]
		fp ^= b.result[start]
		if coeff == 0 {
			if fp == 0 {
				return // duplicate or linearly dependent but consistent
			}
			break // inconsistent: same row, different fingerprint
		}
		z := bits.TrailingZeros64(coeff)
		coeff >>= uint(z)
		start += z
	}
	// Could not place: remember the key exactly in the stash.
	b.stash = append(b.stash, kh.H1)
}

func (b *ribbonBuilder) Finish() ([]byte, error) {
	// Back substitution, highest slot first.
	sol := newPackedSlots(b.r, b.m)
	for i := b.m - 1; i >= 0; i-- {
		if b.coef[i] == 0 {
			continue // free variable: leave zero
		}
		var acc uint16
		c := b.coef[i] &^ 1 // bit 0 is the variable being solved
		for c != 0 {
			j := bits.TrailingZeros64(c)
			if i+j < b.m {
				acc ^= sol.get(i + j)
			}
			c &= c - 1
		}
		sol.set(i, acc^b.result[i])
	}
	buf := make([]byte, ribbonHeaderLen, ribbonHeaderLen+len(sol.data)+len(b.stash)*8)
	buf[0] = byte(KindRibbon)
	buf[1] = byte(b.r)
	binary.LittleEndian.PutUint32(buf[2:], uint32(b.m))
	binary.LittleEndian.PutUint32(buf[6:], uint32(len(b.stash)))
	buf = append(buf, sol.data...)
	for _, h := range b.stash {
		buf = binary.LittleEndian.AppendUint64(buf, h)
	}
	return buf, nil
}

type ribbonReader struct {
	r      int
	m      int
	starts int
	sol    packedSlots
	stash  map[uint64]struct{}
	size   int
}

func newRibbonReader(data []byte) (*ribbonReader, error) {
	if len(data) < ribbonHeaderLen || FilterKind(data[0]) != KindRibbon {
		return nil, ErrCorruptFilter
	}
	r := int(data[1])
	m := int(binary.LittleEndian.Uint32(data[2:]))
	nstash := int(binary.LittleEndian.Uint32(data[6:]))
	if r < 1 || r > 16 || m < ribbonBand {
		return nil, ErrCorruptFilter
	}
	solBytes := (m*r + 7) / 8
	if len(data) < ribbonHeaderLen+solBytes+nstash*8 {
		return nil, ErrCorruptFilter
	}
	rd := &ribbonReader{
		r:      r,
		m:      m,
		starts: m - ribbonBand + 1,
		sol:    packedSlots{width: r, data: data[ribbonHeaderLen : ribbonHeaderLen+solBytes]},
		size:   len(data),
	}
	if nstash > 0 {
		rd.stash = make(map[uint64]struct{}, nstash)
		rest := data[ribbonHeaderLen+solBytes:]
		for i := 0; i < nstash; i++ {
			rd.stash[binary.LittleEndian.Uint64(rest[i*8:])] = struct{}{}
		}
	}
	return rd, nil
}

func (rd *ribbonReader) MayContainHash(kh KeyHash) bool {
	start, coeff, fp := ribbonRow(kh, rd.starts, rd.r)
	var acc uint16
	for c := coeff; c != 0; c &= c - 1 {
		j := bits.TrailingZeros64(c)
		if start+j < rd.m {
			acc ^= rd.sol.get(start + j)
		}
	}
	if acc == fp {
		return true
	}
	if rd.stash != nil {
		_, ok := rd.stash[kh.H1]
		return ok
	}
	return false
}

func (rd *ribbonReader) ApproxMemory() int { return rd.size }

// RibbonFPR returns the theoretical false-positive rate for an r-bit
// ribbon fingerprint: 2^-r.
func RibbonFPR(r int) float64 { return math.Pow(2, -float64(r)) }
