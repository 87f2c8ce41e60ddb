package rangefilter

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
)

// SNARF-style learned range filter (Vaidya et al., VLDB'22): learn a
// *monotone* model of the key distribution (a subsampled linear spline of
// the empirical CDF), map every key through it into a bit array
// ~bitsPerKey times larger than the key count, and set its bit. A range
// query maps both bounds through the model and reports maybe iff any bit
// between the mapped endpoints is set. Monotonicity is what makes the
// filter exact on the no-false-negative side: a ≤ k ≤ b implies
// bit(a) ≤ bit(k) ≤ bit(b), so no error window is needed at all, and FPR
// is governed purely by bit-array density and range width.
//
// Keys map into the numeric domain by stripping the run's common key
// prefix and taking the next 8 bytes (see keyDomain), the same domain
// substitution Rosetta makes.
//
// Serialized layout:
//
//	byte 0    kind (KindSNARF)
//	byte 1    domain fixed suffix length (0 = left-aligned)
//	uvarint   common-prefix length, then the prefix bytes
//	uvarint   bit array length (bits)
//	uvarint   spline point count
//	points    per point: uvarint x, uvarint bit position
//	then      bit array bytes

// snarfEpsBits bounds the vertical (bit-position) error of the greedy CDF
// spline. Small enough that the model resolves individual inter-key gaps
// at typical bits/key budgets; the spline places points adaptively, which
// matters on string-derived domains whose numeric image has large jumps
// (e.g. ASCII digit rollovers).
const snarfEpsBits = 4

type snarfBuilder struct {
	bitsPerKey float64
	keys       [][]byte
}

func newSNARFBuilder(bitsPerKey float64) *snarfBuilder {
	if bitsPerKey <= 0 {
		bitsPerKey = 10
	}
	return &snarfBuilder{bitsPerKey: bitsPerKey}
}

func (b *snarfBuilder) AddKey(key []byte) error {
	if n := len(b.keys); n > 0 && bytes.Compare(key, b.keys[n-1]) < 0 {
		return ErrUnsorted
	}
	b.keys = append(b.keys, append([]byte(nil), key...))
	return nil
}

func (b *snarfBuilder) Finish() ([]byte, error) {
	n := len(b.keys)
	dom := domainFor(b.keys)
	var values []uint64
	if n > 0 {
		values = make([]uint64, n)
		for i, k := range b.keys {
			values[i], _ = dom.mapKey(k)
		}
	}
	nbits := uint64(float64(n) * b.bitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	m := snarfModel{nbits: nbits}
	if n > 0 {
		m.buildSpline(values, float64(nbits-1)/float64(n))
	}
	bits := make([]byte, (nbits+7)/8)
	for _, v := range values {
		bit := m.eval(v)
		bits[bit>>3] |= 1 << (bit & 7)
	}
	out := []byte{byte(KindSNARF), byte(dom.fixedLen)}
	out = binary.AppendUvarint(out, uint64(len(dom.prefix)))
	out = append(out, dom.prefix...)
	out = binary.AppendUvarint(out, nbits)
	out = binary.AppendUvarint(out, uint64(len(m.xs)))
	for i := range m.xs {
		out = binary.AppendUvarint(out, m.xs[i])
		out = binary.AppendUvarint(out, m.ys[i])
	}
	return append(out, bits...), nil
}

// snarfModel is a monotone piecewise-linear map from key space to bit
// positions.
type snarfModel struct {
	nbits uint64
	xs    []uint64
	ys    []uint64
}

// buildSpline fits a greedy error-bounded spline to the empirical CDF
// points (values[i], i·scale), keeping the vertical error within
// snarfEpsBits. Points are placed adaptively, so sharp jumps in the
// numeric key image get their own spline knots instead of flattening
// their neighborhoods.
func (m *snarfModel) buildSpline(values []uint64, scale float64) {
	yOf := func(i int) float64 { return float64(i) * scale }
	add := func(i int) {
		x := values[i]
		y := uint64(yOf(i))
		if k := len(m.xs); k > 0 && m.xs[k-1] == x {
			if y > m.ys[k-1] {
				m.ys[k-1] = y // duplicates keep the highest CDF: monotone
			}
			return
		}
		m.xs = append(m.xs, x)
		m.ys = append(m.ys, y)
	}
	add(0)
	base := 0
	slopeLo, slopeHi := negInf, posInf
	for i := 1; i < len(values); i++ {
		dx := float64(values[i] - values[base])
		if dx == 0 {
			continue
		}
		dy := yOf(i) - yOf(base)
		lo := (dy - snarfEpsBits) / dx
		hi := (dy + snarfEpsBits) / dx
		newLo, newHi := slopeLo, slopeHi
		if lo > newLo {
			newLo = lo
		}
		if hi < newHi {
			newHi = hi
		}
		if newLo > newHi {
			add(i - 1)
			base = i - 1
			dx = float64(values[i] - values[base])
			if dx == 0 {
				slopeLo, slopeHi = negInf, posInf
				continue
			}
			dy = yOf(i) - yOf(base)
			slopeLo, slopeHi = (dy-snarfEpsBits)/dx, (dy+snarfEpsBits)/dx
			continue
		}
		slopeLo, slopeHi = newLo, newHi
	}
	add(len(values) - 1)
}

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// eval maps v to a bit position; monotone non-decreasing in v.
func (m *snarfModel) eval(v uint64) uint64 {
	if len(m.xs) == 0 {
		return 0
	}
	if v <= m.xs[0] {
		return m.ys[0]
	}
	last := len(m.xs) - 1
	if v >= m.xs[last] {
		return m.ys[last]
	}
	// Bracketing pair: xs[i] <= v < xs[i+1].
	i := sort.Search(len(m.xs), func(i int) bool { return m.xs[i] > v }) - 1
	x0, x1 := m.xs[i], m.xs[i+1]
	y0, y1 := m.ys[i], m.ys[i+1]
	frac := float64(v-x0) / float64(x1-x0)
	pos := y0 + uint64(frac*float64(y1-y0))
	if pos >= m.nbits {
		pos = m.nbits - 1
	}
	return pos
}

type snarfReader struct {
	dom   keyDomain
	model snarfModel
	bits  []byte
	size  int
}

func decodeSNARF(data []byte) (*snarfReader, error) {
	if len(data) < 3 {
		return nil, ErrCorrupt
	}
	fixedLen := int(data[1])
	rest := data[2:]
	plen, w := binary.Uvarint(rest)
	if w <= 0 || uint64(len(rest)-w) < plen {
		return nil, ErrCorrupt
	}
	dom := keyDomain{prefix: rest[w : w+int(plen) : w+int(plen)], fixedLen: fixedLen}
	rest = rest[w+int(plen):]
	nbits, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, ErrCorrupt
	}
	rest = rest[w:]
	npoints, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, ErrCorrupt
	}
	rest = rest[w:]
	m := snarfModel{nbits: nbits}
	for i := uint64(0); i < npoints; i++ {
		x, w := binary.Uvarint(rest)
		if w <= 0 {
			return nil, ErrCorrupt
		}
		rest = rest[w:]
		y, w := binary.Uvarint(rest)
		if w <= 0 {
			return nil, ErrCorrupt
		}
		rest = rest[w:]
		m.xs = append(m.xs, x)
		m.ys = append(m.ys, y)
	}
	if uint64(len(rest)) < (nbits+7)/8 {
		return nil, ErrCorrupt
	}
	return &snarfReader{dom: dom, model: m, bits: rest, size: len(data)}, nil
}

func (r *snarfReader) anyBit(from, to uint64) bool {
	for b := from; b <= to; b++ {
		if r.bits[b>>3]&(1<<(b&7)) != 0 {
			return true
		}
		if b == to {
			break
		}
	}
	return false
}

func (r *snarfReader) MayContainRange(lo, hi []byte) bool {
	if len(r.model.xs) == 0 {
		return false
	}
	a, b, empty := r.dom.mapRange(lo, hi)
	if empty {
		return false
	}
	// Clip to the trained domain; an empty intersection means no member.
	if b < r.model.xs[0] || a > r.model.xs[len(r.model.xs)-1] {
		return false
	}
	return r.anyBit(r.model.eval(a), r.model.eval(b))
}

func (r *snarfReader) Kind() Kind { return KindSNARF }

func (r *snarfReader) ApproxMemory() int { return r.size }
