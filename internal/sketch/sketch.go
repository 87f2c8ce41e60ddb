// Package sketch implements the probabilistic summaries the server
// maintains per shard over its write stream: a count-min sketch for
// per-key write-frequency estimates and a HyperLogLog for distinct-key
// cardinality. Both are fixed-memory, insert-only structures fed by the
// connections' ack loops (one Observe per committed op) and queried via
// the SKETCH opcode, so applications can ask "how hot is this key?" and
// "how many distinct keys exist?" without client-side tracking.
//
// Count-min overestimates only (never under): a frequency estimate is
// the minimum over d row counters, each an upper bound. HyperLogLog's
// standard error at p register bits is ~1.04/sqrt(2^p); the default
// p=14 (16 KiB of registers) gives about 0.8%.
package sketch

import (
	"math"
	"sync"
)

// fnv64a hashes key with 64-bit FNV-1a. The second hash for
// Kirsch-Mitzenmacher double hashing is derived by mixing, so one pass
// over the key feeds every row.
func fnv64a(key []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// mix64 finalizes a hash (splitmix64 finalizer), decorrelating the
// derived second hash from the first.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// CountMin is a count-min sketch: rows x width counters, each update
// incrementing one counter per row, each query taking the row minimum.
type CountMin struct {
	rows   int
	width  uint64
	counts []uint64 // rows * width, row-major
}

// NewCountMin sizes a sketch; rows <= 0 selects 4, width <= 0 selects
// 8192. Width is rounded up to a power of two so indexing is a mask.
func NewCountMin(rows, width int) *CountMin {
	if rows <= 0 {
		rows = 4
	}
	if width <= 0 {
		width = 8192
	}
	w := uint64(1)
	for w < uint64(width) {
		w <<= 1
	}
	return &CountMin{rows: rows, width: w, counts: make([]uint64, uint64(rows)*w)}
}

// Add records one occurrence of key.
func (c *CountMin) Add(key []byte) {
	h1 := fnv64a(key)
	h2 := mix64(h1) | 1 // odd stride hits every slot of a power-of-two row
	for i := 0; i < c.rows; i++ {
		idx := (h1 + uint64(i)*h2) & (c.width - 1)
		c.counts[uint64(i)*c.width+idx]++
	}
}

// Estimate returns an upper bound on how many times key was added.
func (c *CountMin) Estimate(key []byte) uint64 {
	h1 := fnv64a(key)
	h2 := mix64(h1) | 1
	est := uint64(math.MaxUint64)
	for i := 0; i < c.rows; i++ {
		idx := (h1 + uint64(i)*h2) & (c.width - 1)
		if v := c.counts[uint64(i)*c.width+idx]; v < est {
			est = v
		}
	}
	return est
}

// HyperLogLog estimates the number of distinct keys added.
type HyperLogLog struct {
	p    uint8
	regs []uint8 // 1<<p registers of max leading-zero runs
}

// NewHyperLogLog creates an estimator with 2^p registers; p outside
// [4, 18] selects the default 14.
func NewHyperLogLog(p uint8) *HyperLogLog {
	if p < 4 || p > 18 {
		p = 14
	}
	return &HyperLogLog{p: p, regs: make([]uint8, 1<<p)}
}

// Add records key.
func (h *HyperLogLog) Add(key []byte) {
	x := mix64(fnv64a(key))
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // low bits shifted up; sentinel bounds the run
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Estimate returns the estimated distinct count, with the standard
// small-range (linear counting) correction.
func (h *HyperLogLog) Estimate() uint64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	if e < 0 {
		return 0
	}
	return uint64(e + 0.5)
}

// Set bundles the per-shard sketches behind one lock: every connection's
// ack loop calls Observe, and any connection Freq and Card.
type Set struct {
	mu  sync.RWMutex
	cm  *CountMin
	hll *HyperLogLog
}

// NewSet creates a sketch set at the default sizes (count-min 4x8192
// uint64 counters, HyperLogLog p=14).
func NewSet() *Set {
	return &Set{cm: NewCountMin(0, 0), hll: NewHyperLogLog(0)}
}

// Observe records one write of key into both sketches.
func (s *Set) Observe(key []byte) {
	s.mu.Lock()
	s.cm.Add(key)
	s.hll.Add(key)
	s.mu.Unlock()
}

// Freq returns the estimated (never under-counted) number of writes
// observed for key.
func (s *Set) Freq(key []byte) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cm.Estimate(key)
}

// Card returns the estimated number of distinct keys observed.
func (s *Set) Card() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hll.Estimate()
}
