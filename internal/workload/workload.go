// Package workload generates the synthetic workloads the benchmark
// harness drives the engine with: key distributions (uniform, Zipfian,
// latest, sequential) and YCSB-style operation mixes. These stand in for
// the production traces the surveyed systems were evaluated on; the
// claims under reproduction depend on distribution shape (skew, scan
// fraction, read/write ratio), which the generators control directly.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// KeyDist names a key distribution.
type KeyDist int

const (
	// Uniform draws keys uniformly from the key space.
	Uniform KeyDist = iota
	// Zipfian draws keys with a Zipf(theta) skew over the key space.
	Zipfian
	// Latest skews toward recently inserted keys.
	Latest
	// Sequential walks the key space in order.
	Sequential
)

func (d KeyDist) String() string {
	switch d {
	case Zipfian:
		return "zipfian"
	case Latest:
		return "latest"
	case Sequential:
		return "sequential"
	default:
		return "uniform"
	}
}

// KeyGen produces key indexes in [0, N) under a distribution.
type KeyGen struct {
	dist KeyDist
	n    int64
	rng  *rand.Rand
	zipf *zipfGen
	seq  int64
	// insertedMax tracks the highest key for Latest.
	insertedMax int64
}

// NewKeyGen creates a generator over n keys. theta controls Zipf skew
// (0.99 is the YCSB default); ignored for other distributions.
func NewKeyGen(dist KeyDist, n int64, theta float64, seed int64) *KeyGen {
	g := &KeyGen{dist: dist, n: n, rng: rand.New(rand.NewSource(seed)), insertedMax: 1}
	if dist == Zipfian || dist == Latest {
		g.zipf = newZipfGen(g.rng, n, theta)
	}
	return g
}

// Next returns the next key index.
func (g *KeyGen) Next() int64 {
	switch g.dist {
	case Zipfian:
		return g.zipf.next()
	case Latest:
		// Skew toward the most recently inserted keys.
		off := g.zipf.next()
		k := g.insertedMax - off
		if k < 0 {
			k = 0
		}
		return k
	case Sequential:
		k := g.seq
		g.seq = (g.seq + 1) % g.n
		return k
	default:
		return g.rng.Int63n(g.n)
	}
}

// RecordInsert informs Latest-distribution generators of insert progress.
func (g *KeyGen) RecordInsert(key int64) {
	if key > g.insertedMax {
		g.insertedMax = key
	}
}

// Key renders index i as a fixed-width key; fixed width keeps byte order
// aligned with numeric order, which range filters and learned indexes
// exploit exactly as fixed-size integer keys do in the papers.
func Key(i int64) []byte {
	return []byte(fmt.Sprintf("user%012d", i))
}

// Value renders a deterministic value of the given size for key i.
func Value(i int64, size int) []byte {
	if size < 8 {
		size = 8
	}
	v := make([]byte, size)
	copy(v, fmt.Sprintf("v%07d", i%10_000_000))
	for j := 8; j < size; j++ {
		v[j] = byte('a' + (int(i)+j)%26)
	}
	return v
}

// zipfGen is the YCSB-style Zipfian generator (Gray et al.'s
// transformation), producing indexes in [0, n) with P(i) ∝ 1/(i+1)^theta
// over a *shuffled* identity mapping — callers who want hot keys spread
// across the space can scramble the output.
type zipfGen struct {
	rng             *rand.Rand
	n               int64
	theta           float64
	alpha, zetan    float64
	eta, zeta2theta float64
}

func newZipfGen(rng *rand.Rand, n int64, theta float64) *zipfGen {
	if n < 1 {
		n = 1
	}
	if theta <= 0 || theta >= 1 {
		theta = 0.99
	}
	z := &zipfGen{rng: rng, n: n, theta: theta}
	z.zeta2theta = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfGen) next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambleKey spreads a skewed index across the key space (FNV-style),
// so hot keys are not clustered — YCSB's "scrambled zipfian".
func ScrambleKey(i, n int64) int64 {
	h := uint64(i) * 0xc6a4a7935bd1e995
	h ^= h >> 47
	h *= 0xc6a4a7935bd1e995
	return int64(h % uint64(n))
}

// OpKind is a workload operation type.
type OpKind int

const (
	OpInsert OpKind = iota
	OpUpdate
	OpRead
	OpReadAbsent
	OpScan
	OpDelete
)

// Mix is an operation mix with fractions summing to ~1.
type Mix struct {
	Insert, Update, Read, ReadAbsent, Scan, Delete float64
	// ScanLen is the number of keys a scan covers.
	ScanLen int
}

// YCSB-style canonical mixes.
var (
	// MixA is update-heavy: 50/50 reads and updates.
	MixA = Mix{Read: 0.5, Update: 0.5}
	// MixB is read-mostly: 95/5.
	MixB = Mix{Read: 0.95, Update: 0.05}
	// MixC is read-only.
	MixC = Mix{Read: 1.0}
	// MixD is read-latest: 95% reads skewed to recent inserts.
	MixD = Mix{Read: 0.95, Insert: 0.05}
	// MixE is scan-heavy: 95% short scans, 5% inserts.
	MixE = Mix{Scan: 0.95, Insert: 0.05, ScanLen: 100}
	// MixF is read-modify-write, approximated as read+update pairs.
	MixF = Mix{Read: 0.5, Update: 0.5}
)

// Op is one generated operation.
type Op struct {
	Kind    OpKind
	Key     int64
	ScanLen int
}

// Generator yields operations for a mix over a keyspace.
type Generator struct {
	mix     Mix
	keys    *KeyGen
	rng     *rand.Rand
	n       int64
	inserts int64
}

// NewGenerator builds an operation generator; dist applies to the key
// choice of reads/updates/scans.
func NewGenerator(mix Mix, dist KeyDist, n int64, theta float64, seed int64) *Generator {
	return &Generator{
		mix:  mix,
		keys: NewKeyGen(dist, n, theta, seed),
		rng:  rand.New(rand.NewSource(seed + 1)),
		n:    n,
	}
}

// Next produces the next operation.
func (g *Generator) Next() Op {
	u := g.rng.Float64()
	m := g.mix
	pick := func(frac float64) bool {
		if u < frac {
			return true
		}
		u -= frac
		return false
	}
	switch {
	case pick(m.Insert):
		g.inserts++
		k := g.n + g.inserts
		g.keys.RecordInsert(k)
		return Op{Kind: OpInsert, Key: k}
	case pick(m.Update):
		return Op{Kind: OpUpdate, Key: g.keys.Next()}
	case pick(m.Read):
		return Op{Kind: OpRead, Key: g.keys.Next()}
	case pick(m.ReadAbsent):
		return Op{Kind: OpReadAbsent, Key: g.keys.Next()}
	case pick(m.Scan):
		l := m.ScanLen
		if l <= 0 {
			l = 100
		}
		return Op{Kind: OpScan, Key: g.keys.Next(), ScanLen: l}
	case pick(m.Delete):
		return Op{Kind: OpDelete, Key: g.keys.Next()}
	default:
		return Op{Kind: OpRead, Key: g.keys.Next()}
	}
}
