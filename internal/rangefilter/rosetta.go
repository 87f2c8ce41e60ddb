package rangefilter

import (
	"encoding/binary"
	"math"

	"lsmkv/internal/filter"
)

// Rosetta (Luo et al., SIGMOD'20): a hierarchy of Bloom filters over the
// dyadic decomposition of the key domain. Level l stores the keys'
// prefixes with l low bits dropped; a range query walks the implicit
// segment tree, using the per-level Blooms to refute subtrees, and only
// answers "maybe" when a doubt chain survives all the way to a leaf. This
// makes Rosetta strong exactly where prefix/SuRF filters are weak — short
// ranges — at the cost of more CPU (many Bloom probes) and insert work.
//
// Keys are mapped to the 64-bit domain by stripping the run's common key
// prefix and taking the next 8 bytes (see keyDomain); ranges wider than
// 2^maxRangeLog answer maybe without probing, bounding query cost. Memory
// is allocated bottom-heavy across maintained levels (the deepest level
// gets half the budget), per the paper's observation that the last levels
// do almost all the pruning.
//
// Serialized layout:
//
//	byte 0    kind (KindRosetta)
//	byte 1    maxRangeLog
//	byte 2    domain fixed suffix length (0 = left-aligned)
//	uvarint   common-prefix length, then the prefix bytes
//	uvarint   number of maintained levels (== maxRangeLog + 1)
//	per level: uvarint probe count k, uvarint bit count, bit array bytes

const defaultRosettaMaxRangeLog = 22

type rosettaLevel struct {
	k     int
	nbits uint64
	bits  []byte
}

func (l *rosettaLevel) insert(v uint64, depth uint) {
	if l.nbits == 0 {
		return
	}
	kh := rosettaHash(v, depth)
	for i := 0; i < l.k; i++ {
		pos := rosettaReduce(kh.Probe(uint32(i)), l.nbits)
		l.bits[pos>>3] |= 1 << (pos & 7)
	}
}

func (l *rosettaLevel) mayContain(v uint64, depth uint) bool {
	if l.nbits == 0 {
		return true
	}
	kh := rosettaHash(v, depth)
	for i := 0; i < l.k; i++ {
		pos := rosettaReduce(kh.Probe(uint32(i)), l.nbits)
		if l.bits[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}

func rosettaHash(v uint64, depth uint) filter.KeyHash {
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:8], v)
	buf[8] = byte(depth)
	return filter.HashKey(buf[:])
}

// rosettaReduce maps a probe onto [0, n). Rosetta levels are not
// power-of-two sized; plain modulo keeps the mapping obviously correct.
func rosettaReduce(h, n uint64) uint64 { return h % n }

type rosettaBuilder struct {
	maxRangeLog int
	bitsPerKey  float64
	keys        [][]byte
}

func newRosettaBuilder(n int, bitsPerKey float64, maxRangeLog int) *rosettaBuilder {
	if maxRangeLog <= 0 || maxRangeLog > 63 {
		maxRangeLog = defaultRosettaMaxRangeLog
	}
	if bitsPerKey <= 0 {
		bitsPerKey = 16
	}
	return &rosettaBuilder{maxRangeLog: maxRangeLog, bitsPerKey: bitsPerKey}
}

func (b *rosettaBuilder) AddKey(key []byte) error {
	b.keys = append(b.keys, append([]byte(nil), key...))
	return nil
}

// levelBudget splits the per-key bit budget bottom-heavy across nLevels:
// the leaf level gets half, halving upward with a floor of 1 bit/key.
func levelBudget(bitsPerKey float64, nLevels int) []float64 {
	out := make([]float64, nLevels)
	remaining := bitsPerKey
	for d := 0; d < nLevels; d++ {
		per := remaining * 0.5
		if d == nLevels-1 {
			per = remaining
		}
		if per < 1 {
			per = 1
		}
		remaining -= per
		if remaining < 0 {
			remaining = 0
		}
		out[d] = per
	}
	return out
}

func (b *rosettaBuilder) Finish() ([]byte, error) {
	n := len(b.keys)
	nLevels := b.maxRangeLog + 1 // depth 0 (leaves) .. maxRangeLog
	levels := make([]rosettaLevel, nLevels)
	budget := levelBudget(b.bitsPerKey, nLevels)
	for d := range levels {
		nbits := uint64(math.Ceil(budget[d] * float64(maxIntR(n, 1))))
		if nbits < 64 {
			nbits = 64
		}
		levels[d] = rosettaLevel{
			k:     filter.OptimalProbes(budget[d]),
			nbits: nbits,
			bits:  make([]byte, (nbits+7)/8),
		}
	}
	dom := domainFor(b.keys)
	for _, k := range b.keys {
		v, _ := dom.mapKey(k) // keys are inside their own domain
		for d := range levels {
			levels[d].insert(v>>uint(d), uint(d))
		}
	}
	out := []byte{byte(KindRosetta), byte(b.maxRangeLog), byte(dom.fixedLen)}
	out = binary.AppendUvarint(out, uint64(len(dom.prefix)))
	out = append(out, dom.prefix...)
	out = binary.AppendUvarint(out, uint64(nLevels))
	for _, l := range levels {
		out = binary.AppendUvarint(out, uint64(l.k))
		out = binary.AppendUvarint(out, l.nbits)
		out = append(out, l.bits...)
	}
	return out, nil
}

func maxIntR(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type rosettaReader struct {
	maxRangeLog int
	dom         keyDomain
	levels      []rosettaLevel
	size        int
}

func decodeRosetta(data []byte) (*rosettaReader, error) {
	if len(data) < 3 {
		return nil, ErrCorrupt
	}
	r := &rosettaReader{maxRangeLog: int(data[1]), size: len(data)}
	fixedLen := int(data[2])
	rest := data[3:]
	plen, w := binary.Uvarint(rest)
	if w <= 0 || uint64(len(rest)-w) < plen {
		return nil, ErrCorrupt
	}
	r.dom = keyDomain{prefix: rest[w : w+int(plen) : w+int(plen)], fixedLen: fixedLen}
	rest = rest[w+int(plen):]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n == 0 || n > 64 {
		return nil, ErrCorrupt
	}
	rest = rest[w:]
	r.levels = make([]rosettaLevel, n)
	for d := range r.levels {
		k, w := binary.Uvarint(rest)
		if w <= 0 {
			return nil, ErrCorrupt
		}
		rest = rest[w:]
		nbits, w := binary.Uvarint(rest)
		if w <= 0 {
			return nil, ErrCorrupt
		}
		rest = rest[w:]
		nbytes := int((nbits + 7) / 8)
		if len(rest) < nbytes {
			return nil, ErrCorrupt
		}
		r.levels[d] = rosettaLevel{k: int(k), nbits: nbits, bits: rest[:nbytes:nbytes]}
		rest = rest[nbytes:]
	}
	if len(rest) != 0 {
		return nil, ErrCorrupt
	}
	return r, nil
}

func (r *rosettaReader) MayContainRange(lo, hi []byte) bool {
	a, b, empty := r.dom.mapRange(lo, hi)
	if empty {
		return false
	}
	if b-a > (uint64(1)<<uint(r.maxRangeLog))-1 {
		return true // range too wide for the maintained hierarchy
	}
	return r.doubt(a, b)
}

// doubt performs the segment-tree traversal: does any key in [a, b] exist,
// consulting the Bloom at each dyadic node before descending.
func (r *rosettaReader) doubt(a, b uint64) bool {
	// Decompose [a,b] into maximal dyadic nodes left to right; for each,
	// probe the node's level and descend on maybe.
	for a <= b {
		// Largest aligned block starting at a that fits within [a, b].
		d := 0
		for d < r.maxRangeLog {
			sizeNext := uint64(1) << uint(d+1)
			if a&(sizeNext-1) != 0 || a+sizeNext-1 > b {
				break
			}
			d++
		}
		if r.probeDown(a>>uint(d), d) {
			return true
		}
		next := a + (uint64(1) << uint(d))
		if next <= a { // overflow guard at domain end
			return false
		}
		a = next
	}
	return false
}

// probeDown checks the node (prefix value p at depth d, covering 2^d
// leaves) and, while Blooms say maybe, recurses toward the leaves.
func (r *rosettaReader) probeDown(p uint64, d int) bool {
	if d >= len(r.levels) || !r.levels[d].mayContain(p, uint(d)) {
		return false
	}
	if d == 0 {
		return true // leaf-level Bloom says maybe
	}
	return r.probeDown(p<<1, d-1) || r.probeDown(p<<1|1, d-1)
}

func (r *rosettaReader) Kind() Kind { return KindRosetta }

func (r *rosettaReader) ApproxMemory() int { return r.size }
