package filter

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func keyOf(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

// buildFilter constructs and reopens a filter over n sequential keys.
func buildFilter(t *testing.T, kind FilterKind, bitsPerKey float64, n int) Reader {
	t.Helper()
	p := Policy{Kind: kind, BitsPerKey: bitsPerKey}
	b := p.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddHash(HashKey(keyOf(i)))
	}
	data, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish(%v): %v", kind, err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader(%v): %v", kind, err)
	}
	if got := readerKind(r); got != kind {
		t.Fatalf("kind round trip: got %v want %v", got, kind)
	}
	return r
}

// readerKind is the kind of the reader NewReader dispatched to.
func readerKind(r Reader) FilterKind {
	switch r.(type) {
	case *bloomReader:
		return KindBloom
	case *blockedReader:
		return KindBlockedBloom
	case *cuckooReader:
		return KindCuckoo
	case *ribbonReader:
		return KindRibbon
	}
	return KindNone
}

// occupied counts the fingerprints resident in c's slots and stash.
func occupied(c *Cuckoo) int {
	n := len(c.stash)
	for i := 0; i < c.nbuckets*cuckooSlots; i++ {
		if c.slots.get(i) != 0 {
			n++
		}
	}
	return n
}

func TestFiltersNoFalseNegatives(t *testing.T) {
	const n = 5000
	for _, kind := range []FilterKind{KindBloom, KindBlockedBloom, KindCuckoo, KindRibbon} {
		t.Run(kind.String(), func(t *testing.T) {
			r := buildFilter(t, kind, 10, n)
			for i := 0; i < n; i++ {
				if !r.MayContainHash(HashKey(keyOf(i))) {
					t.Fatalf("%v: false negative for key %d", kind, i)
				}
			}
		})
	}
}

func TestFiltersFPRWithinBudget(t *testing.T) {
	const n = 20000
	const probes = 20000
	// Theoretical FPR at 10 bits/key is ~0.0082 for standard Bloom. Allow
	// each structure its own analytic bound with slack for variance.
	bounds := map[FilterKind]float64{
		KindBloom:        3 * BloomFPR(10),
		KindBlockedBloom: 6 * BloomFPR(10), // blocked pays an FPR penalty
		KindCuckoo:       3 * CuckooFPR(8),
		KindRibbon:       3 * RibbonFPR(9),
	}
	for kind, bound := range bounds {
		t.Run(kind.String(), func(t *testing.T) {
			r := buildFilter(t, kind, 10, n)
			fp := 0
			for i := 0; i < probes; i++ {
				if r.MayContainHash(HashKey([]byte(fmt.Sprintf("absent%08d", i)))) {
					fp++
				}
			}
			got := float64(fp) / probes
			if got > bound {
				t.Errorf("%v: measured FPR %.5f exceeds bound %.5f", kind, got, bound)
			}
		})
	}
}

func TestFilterSpaceScalesWithBudget(t *testing.T) {
	const n = 10000
	for _, kind := range []FilterKind{KindBloom, KindBlockedBloom, KindRibbon} {
		small := buildFilter(t, kind, 4, n).ApproxMemory()
		large := buildFilter(t, kind, 14, n).ApproxMemory()
		if large <= small {
			t.Errorf("%v: 14 bits/key (%dB) not larger than 4 bits/key (%dB)", kind, large, small)
		}
		// 14 bits/key over n keys should stay within ~3x the nominal size.
		if max := int(14.0 * n / 8 * 3); large > max {
			t.Errorf("%v: %dB exceeds 3x nominal budget %dB", kind, large, max)
		}
	}
}

func TestNoneFilter(t *testing.T) {
	p := Policy{Kind: KindNone}
	b := p.NewBuilder(10)
	b.AddHash(HashKey([]byte("a")))
	data, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if !r.MayContainHash(HashKey([]byte("never-added"))) {
		t.Error("none filter must always return maybe")
	}
}

func TestNewReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader([]byte{99, 1, 2, 3}); err == nil {
		t.Error("unknown kind byte must fail")
	}
	for _, kind := range []FilterKind{KindBloom, KindBlockedBloom, KindCuckoo, KindRibbon} {
		if _, err := NewReader([]byte{byte(kind)}); err == nil {
			t.Errorf("truncated %v filter must fail to decode", kind)
		}
	}
}

func TestHash64Deterministic(t *testing.T) {
	// Spot-check determinism and seed sensitivity across input sizes that
	// exercise every code path (short tail, 4-byte, 8-byte, 32-byte loop).
	sizes := []int{0, 1, 3, 4, 7, 8, 15, 16, 31, 32, 33, 64, 100}
	seen := map[uint64]int{}
	for _, n := range sizes {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		h0 := Hash64(b, 0)
		if h0 != Hash64(b, 0) {
			t.Fatalf("size %d: hash not deterministic", n)
		}
		if h0 == Hash64(b, 1) && n > 0 {
			t.Errorf("size %d: seed has no effect", n)
		}
		if prev, dup := seen[h0]; dup {
			t.Errorf("collision between sizes %d and %d", prev, n)
		}
		seen[h0] = n
	}
}

func TestHashKeyProbeSequenceDiffers(t *testing.T) {
	kh := HashKey([]byte("some key"))
	seen := map[uint64]bool{}
	for i := uint32(0); i < 16; i++ {
		p := kh.Probe(i)
		if seen[p] {
			t.Fatalf("probe %d repeats an earlier probe", i)
		}
		seen[p] = true
	}
}

func TestReduceRange(t *testing.T) {
	f := func(h uint64, n uint32) bool {
		if n == 0 {
			return true
		}
		return reduce(h, uint64(n)) < uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackedSlotsRoundTrip(t *testing.T) {
	for _, width := range []int{4, 5, 8, 9, 12, 13, 16} {
		const n = 257
		p := newPackedSlots(width, n)
		mask := uint16((1 << width) - 1)
		for i := 0; i < n; i++ {
			p.set(i, uint16(i*2654435761)&mask)
		}
		for i := 0; i < n; i++ {
			want := uint16(i*2654435761) & mask
			if got := p.get(i); got != want {
				t.Fatalf("width %d slot %d: got %d want %d", width, i, got, want)
			}
		}
	}
}

func TestPackedSlotsNeighborIsolation(t *testing.T) {
	// Writing one slot must not disturb its neighbors.
	for _, width := range []int{4, 7, 11, 16} {
		p := newPackedSlots(width, 64)
		mask := uint16((1 << width) - 1)
		for i := 0; i < 64; i++ {
			p.set(i, mask) // all ones
		}
		p.set(31, 0)
		for i := 0; i < 64; i++ {
			want := mask
			if i == 31 {
				want = 0
			}
			if got := p.get(i); got != want {
				t.Fatalf("width %d slot %d: got %d want %d", width, i, got, want)
			}
		}
	}
}

func TestBloomMath(t *testing.T) {
	if k := OptimalProbes(10); k != 7 {
		t.Errorf("OptimalProbes(10)=%d want 7", k)
	}
	if k := OptimalProbes(0.1); k != 1 {
		t.Errorf("OptimalProbes must clamp to >=1, got %d", k)
	}
	if f := BloomFPR(10); math.Abs(f-0.0082) > 0.001 {
		t.Errorf("BloomFPR(10)=%f want ~0.0082", f)
	}
	if b := BitsPerKeyForFPR(0.01); math.Abs(b-9.585) > 0.05 {
		t.Errorf("BitsPerKeyForFPR(0.01)=%f want ~9.59", b)
	}
	// Inversion property.
	for _, p := range []float64{0.5, 0.1, 0.01, 0.001} {
		back := BloomFPR(BitsPerKeyForFPR(p))
		if back > p*2.5 {
			t.Errorf("FPR inversion drifts: p=%g back=%g", p, back)
		}
	}
}

func TestCuckooEncodeDecodeWithStash(t *testing.T) {
	// Overfill a tiny filter to force stash usage, then check the decoded
	// filter answers identically.
	c := NewCuckoo(16, 8)
	var keys []KeyHash
	for i := 0; i < 120; i++ {
		kh := HashKey(keyOf(i))
		keys = append(keys, kh)
		c.Insert(kh)
	}
	d, err := DecodeCuckoo(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i, kh := range keys {
		if !d.Contains(kh) {
			t.Fatalf("decoded filter lost key %d", i)
		}
	}
	if occupied(d) != occupied(c) {
		t.Errorf("decoded occupancy=%d want %d", occupied(d), occupied(c))
	}
}

func TestCuckooLoadFactor(t *testing.T) {
	c := NewCuckoo(10000, 10)
	for i := 0; i < 10000; i++ {
		c.Insert(HashKey(keyOf(i)))
	}
	if lf := float64(occupied(c)) / float64(c.nbuckets*cuckooSlots); lf < 0.4 || lf > 1.0 {
		t.Errorf("implausible load factor %f", lf)
	}
	if len(c.stash) > 100 {
		t.Errorf("stash unexpectedly large: %d", len(c.stash))
	}
}

func TestRibbonHandlesDuplicates(t *testing.T) {
	p := Policy{Kind: KindRibbon, BitsPerKey: 8}
	b := p.NewBuilder(100)
	for i := 0; i < 100; i++ {
		b.AddHash(HashKey(keyOf(i % 10))) // each key added 10 times
	}
	data, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !r.MayContainHash(HashKey(keyOf(i))) {
			t.Fatalf("false negative for duplicated key %d", i)
		}
	}
}

func TestRibbonSmallerThanBloomAtEqualFPR(t *testing.T) {
	// The Ribbon claim: at comparable FPR, ribbon uses less space.
	const n = 50000
	bloom := buildFilter(t, KindBloom, 10, n)  // FPR ~0.82%
	ribbon := buildFilter(t, KindRibbon, 8, n) // r=7 -> FPR ~0.78%
	if ribbon.ApproxMemory() >= bloom.ApproxMemory() {
		t.Errorf("ribbon (%dB) not smaller than bloom (%dB)", ribbon.ApproxMemory(), bloom.ApproxMemory())
	}
}

func TestMonkeyAllocationBeatsUniform(t *testing.T) {
	levels := GeometricLevels(1_000_000, 1000, 10, 1)
	total := 10.0 * 1_000_000 // 10 bits/key budget overall
	monkey := MonkeyAllocation(levels, total)
	uniform := UniformAllocation(levels, total)
	mc := ExpectedFalseProbes(levels, monkey)
	uc := ExpectedFalseProbes(levels, uniform)
	if mc >= uc {
		t.Errorf("monkey cost %.6f not better than uniform %.6f", mc, uc)
	}
	// Monkey gives shallower (smaller) levels more bits per key.
	for i := 1; i < len(monkey); i++ {
		if levels[i].Keys > levels[i-1].Keys && monkey[i] > monkey[i-1]+1e-9 {
			t.Errorf("level %d (larger) got more bits/key (%.2f) than level %d (%.2f)",
				i, monkey[i], i-1, monkey[i-1])
		}
	}
}

func TestMonkeyAllocationRespectsBudget(t *testing.T) {
	levels := GeometricLevels(500_000, 500, 8, 1)
	total := 5.0 * 500_000
	bits := MonkeyAllocation(levels, total)
	var used float64
	for i, l := range levels {
		used += float64(l.Keys) * bits[i]
	}
	if used > total*1.01 {
		t.Errorf("allocation used %.0f bits, budget %.0f", used, total)
	}
	if used < total*0.90 {
		t.Errorf("allocation left budget unused: %.0f of %.0f", used, total)
	}
}

func TestMonkeyAllocationDegenerate(t *testing.T) {
	if got := MonkeyAllocation(nil, 100); len(got) != 0 {
		t.Error("nil levels must yield empty allocation")
	}
	got := MonkeyAllocation([]LevelSpec{{Keys: 100}}, 0)
	if got[0] != 0 {
		t.Error("zero budget must yield zero bits")
	}
	// Zero-key levels get no allocation and cause no NaNs.
	levels := []LevelSpec{{Keys: 0}, {Keys: 100}}
	bits := MonkeyAllocation(levels, 1000)
	if math.IsNaN(bits[0]) || math.IsNaN(bits[1]) || bits[0] != 0 {
		t.Errorf("degenerate allocation: %v", bits)
	}
}

func TestGeometricLevels(t *testing.T) {
	levels := GeometricLevels(1110, 1, 10, 1)
	var sum int64
	for _, l := range levels {
		sum += l.Keys
	}
	if sum != 1110 {
		t.Errorf("levels sum to %d want 1110", sum)
	}
	if len(levels) != 3 {
		t.Errorf("expected 3 levels (10+100+1000), got %d: %+v", len(levels), levels)
	}
}

func TestElasticUnitsTradeoff(t *testing.T) {
	const n = 5000
	eb := NewElasticBuilder(4, 12)
	for i := 0; i < n; i++ {
		eb.AddHash(HashKey(keyOf(i)))
	}
	units, err := eb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewElastic(units)
	if err != nil {
		t.Fatal(err)
	}
	// No false negatives at any enabled count.
	for _, enabled := range []int{4, 2, 1} {
		e.SetEnabled(enabled)
		for i := 0; i < n; i += 37 {
			if !e.MayContainHash(HashKey(keyOf(i))) {
				t.Fatalf("enabled=%d: false negative for key %d", enabled, i)
			}
		}
	}
	// FPR must drop as units are enabled.
	measure := func(enabled int) float64 {
		e.SetEnabled(enabled)
		fp := 0
		const probes = 8000
		for i := 0; i < probes; i++ {
			if e.MayContainHash(HashKey([]byte(fmt.Sprintf("ghost%07d", i)))) {
				fp++
			}
		}
		return float64(fp) / probes
	}
	f1, f4 := measure(1), measure(4)
	if f4 >= f1 {
		t.Errorf("FPR with 4 units (%.4f) not below 1 unit (%.4f)", f4, f1)
	}
}

func TestRebalanceElasticPrefersHotRuns(t *testing.T) {
	mkRun := func() *Elastic {
		eb := NewElasticBuilder(4, 8)
		for i := 0; i < 100; i++ {
			eb.AddHash(HashKey(keyOf(i)))
		}
		units, _ := eb.Finish()
		e, _ := NewElastic(units)
		return e
	}
	runs := []*Elastic{mkRun(), mkRun(), mkRun()}
	freq := []int64{1000, 10, 10}
	counts := RebalanceElastic(runs, freq, 6, 0.3)
	if counts[0] <= counts[1] || counts[0] <= counts[2] {
		t.Errorf("hot run should get most units: %v", counts)
	}
	total := counts[0] + counts[1] + counts[2]
	if total != 6 {
		t.Errorf("budget not exhausted: %v", counts)
	}
	if runs[0].Enabled() != counts[0] {
		t.Error("rebalance must apply enabled counts to runs")
	}
}
