package rangefilter

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lsmkv/internal/filter"
)

// fixture builds a sorted key set plus a filter of each configured kind.
type fixture struct {
	keys    [][]byte
	keySet  map[string]bool
	readers map[string]Reader
}

func defaultPolicies() map[string]Policy {
	return map[string]Policy{
		"prefix":    {Kind: KindPrefix, BitsPerKey: 12, PrefixLen: 12},
		"surf-base": {Kind: KindSuRF, SuRFMode: SuRFBase},
		"surf-hash": {Kind: KindSuRF, SuRFMode: SuRFHash},
		"surf-real": {Kind: KindSuRF, SuRFMode: SuRFReal, SuRFSuffixBytes: 2},
		"rosetta":   {Kind: KindRosetta, BitsPerKey: 22, RosettaMaxRangeLog: 20},
		"snarf":     {Kind: KindSNARF, BitsPerKey: 10},
	}
}

// numKey yields fixed-width numeric keys so byte order == numeric order
// and the 8-byte-prefix domain mapping of rosetta/snarf is lossless.
func numKey(v uint64) []byte { return []byte(fmt.Sprintf("%08d", v)) }

func buildFixture(t *testing.T, keys [][]byte) *fixture {
	t.Helper()
	f := &fixture{keys: keys, keySet: map[string]bool{}, readers: map[string]Reader{}}
	for _, k := range keys {
		f.keySet[string(k)] = true
	}
	for name, p := range defaultPolicies() {
		b := p.NewBuilder(len(keys))
		for _, k := range keys {
			if err := b.AddKey(k); err != nil {
				t.Fatalf("%s: AddKey: %v", name, err)
			}
		}
		data, err := b.Finish()
		if err != nil {
			t.Fatalf("%s: Finish: %v", name, err)
		}
		r, err := NewReader(data)
		if err != nil {
			t.Fatalf("%s: NewReader: %v", name, err)
		}
		f.readers[name] = r
	}
	return f
}

// truth answers range emptiness exactly.
func (f *fixture) truth(lo, hi []byte) bool {
	i := sort.Search(len(f.keys), func(i int) bool {
		return bytes.Compare(f.keys[i], lo) >= 0
	})
	return i < len(f.keys) && bytes.Compare(f.keys[i], hi) <= 0
}

func sparseNumericKeys(n int, gap int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, 0, n)
	v := uint64(0)
	for i := 0; i < n; i++ {
		v += uint64(1 + rng.Intn(gap))
		keys = append(keys, numKey(v))
	}
	return keys
}

// MayContainKey is SuRF's point query: whether key may be a member. No
// program point-probes a range filter; the tests keep it to check the
// tutorial's claims about SuRF's suffix modes.
func (r *surfReader) MayContainKey(key []byte) bool {
	if len(r.entries) == 0 {
		return false
	}
	idx, prevIsPrefix := r.lookup(key, key)
	var match int
	switch {
	case prevIsPrefix:
		match = idx - 1
	case idx < len(r.entries) && bytes.Equal(r.entries[idx], key):
		match = idx
	default:
		return false
	}
	if r.mode == SuRFHash {
		return r.hashes[match] == byte(filter.Hash64(key, 0x5a))
	}
	return true
}

// pointQuery asks r about one key: SuRF's point query, or else the
// one-key range [key, key].
func pointQuery(r Reader, key []byte) bool {
	if s, ok := r.(*surfReader); ok {
		return s.MayContainKey(key)
	}
	return r.MayContainRange(key, key)
}

func TestNoFalseNegativesPointQueries(t *testing.T) {
	f := buildFixture(t, sparseNumericKeys(3000, 20, 1))
	for name, r := range f.readers {
		for _, k := range f.keys {
			if !pointQuery(r, k) {
				t.Errorf("%s: false negative point query for %q", name, k)
				break
			}
		}
	}
}

func TestNoFalseNegativesRangeQueries(t *testing.T) {
	keys := sparseNumericKeys(2000, 30, 2)
	f := buildFixture(t, keys)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		i := rng.Intn(len(keys))
		// Build a range guaranteed to contain keys[i].
		lo := append([]byte(nil), keys[i]...)
		hi := append([]byte(nil), keys[i]...)
		if rng.Intn(2) == 0 && i+1 < len(keys) {
			hi = append([]byte(nil), keys[i+1]...)
		}
		for name, r := range f.readers {
			if !r.MayContainRange(lo, hi) {
				t.Fatalf("%s: false negative for range [%q,%q] containing %q", name, lo, hi, keys[i])
			}
		}
	}
}

func TestRangeDifferentialAgainstTruth(t *testing.T) {
	// For random ranges: filters must never say "no" when truth says
	// "yes"; track FPR (says yes when truth says no) for sanity.
	keys := sparseNumericKeys(2000, 50, 4)
	f := buildFixture(t, keys)
	rng := rand.New(rand.NewSource(5))
	falsePos := map[string]int{}
	negatives := 0
	for trial := 0; trial < 4000; trial++ {
		start := uint64(rng.Intn(2000 * 50))
		width := uint64(rng.Intn(200))
		lo, hi := numKey(start), numKey(start+width)
		want := f.truth(lo, hi)
		if !want {
			negatives++
		}
		for name, r := range f.readers {
			got := r.MayContainRange(lo, hi)
			if want && !got {
				t.Fatalf("%s: false negative for [%s,%s]", name, lo, hi)
			}
			if !want && got {
				falsePos[name]++
			}
		}
	}
	if negatives == 0 {
		t.Fatal("test generated no empty ranges; widen the domain")
	}
	// Every structure except prefix (which can't answer cross-prefix
	// ranges) should filter out a nontrivial share of empty ranges.
	for _, name := range []string{"surf-base", "surf-real", "rosetta", "snarf"} {
		fpr := float64(falsePos[name]) / float64(negatives)
		if fpr > 0.9 {
			t.Errorf("%s: range FPR %.2f — filter is not filtering", name, fpr)
		}
	}
}

func TestPointQueryFPR(t *testing.T) {
	keys := sparseNumericKeys(3000, 40, 6)
	f := buildFixture(t, keys)
	const probes = 5000
	rng := rand.New(rand.NewSource(7))
	for name, r := range f.readers {
		if name == "prefix" {
			// No point probe: a range over keys shorter than its 12-byte
			// prefix is unanswerable, so it says maybe.
			continue
		}
		fp := 0
		tried := 0
		for tried < probes {
			k := numKey(uint64(rng.Intn(3000 * 40)))
			if f.keySet[string(k)] {
				continue
			}
			tried++
			if pointQuery(r, k) {
				fp++
			}
		}
		fpr := float64(fp) / probes
		var bound float64
		switch name {
		case "surf-base":
			bound = 0.50 // sparse keys truncate early; many collisions expected
		case "surf-hash", "surf-real":
			bound = 0.10
		case "rosetta":
			bound = 0.05
		case "snarf":
			bound = 0.60 // eps=16 window spans ~33 positions at 10 b/k
		}
		if fpr > bound {
			t.Errorf("%s: point FPR %.3f exceeds bound %.2f", name, fpr, bound)
		}
	}
}

func TestShortRangeFPRRosettaBeatsSuRF(t *testing.T) {
	// The tutorial's claim: for short ranges Rosetta prunes better than
	// prefix-truncating tries on adversarially close keys.
	rng := rand.New(rand.NewSource(8))
	keys := make([][]byte, 0, 2000)
	v := uint64(0)
	for i := 0; i < 2000; i++ {
		v += uint64(2 + rng.Intn(6)) // densely packed numeric keys
		keys = append(keys, numKey(v))
	}
	f := buildFixture(t, keys)
	emptyProbes, surfFP, rosettaFP := 0, 0, 0
	for trial := 0; trial < 6000; trial++ {
		start := uint64(rng.Intn(int(v)))
		lo, hi := numKey(start), numKey(start+2) // short range, width 3
		if f.truth(lo, hi) {
			continue
		}
		emptyProbes++
		if f.readers["surf-base"].MayContainRange(lo, hi) {
			surfFP++
		}
		if f.readers["rosetta"].MayContainRange(lo, hi) {
			rosettaFP++
		}
	}
	if emptyProbes < 500 {
		t.Fatalf("only %d empty probes; dataset too dense", emptyProbes)
	}
	surfRate := float64(surfFP) / float64(emptyProbes)
	rosettaRate := float64(rosettaFP) / float64(emptyProbes)
	if rosettaRate >= surfRate {
		t.Errorf("rosetta short-range FPR %.3f not below surf-base %.3f", rosettaRate, surfRate)
	}
}

func TestSuRFRealBeatsBaseOnPointQueries(t *testing.T) {
	keys := sparseNumericKeys(3000, 40, 9)
	f := buildFixture(t, keys)
	rng := rand.New(rand.NewSource(10))
	baseFP, realFP := 0, 0
	const probes = 4000
	for i := 0; i < probes; i++ {
		k := numKey(uint64(rng.Intn(3000 * 40)))
		if f.keySet[string(k)] {
			continue
		}
		if f.readers["surf-base"].(*surfReader).MayContainKey(k) {
			baseFP++
		}
		if f.readers["surf-real"].(*surfReader).MayContainKey(k) {
			realFP++
		}
	}
	if realFP > baseFP {
		t.Errorf("surf-real FP (%d) exceeds surf-base (%d)", realFP, baseFP)
	}
}

func TestBuildersRejectUnsortedKeys(t *testing.T) {
	for name, p := range defaultPolicies() {
		if p.Kind == KindRosetta {
			continue // rosetta is order-insensitive by construction
		}
		b := p.NewBuilder(10)
		if err := b.AddKey([]byte("bbb")); err != nil {
			t.Fatalf("%s: first AddKey failed: %v", name, err)
		}
		if err := b.AddKey([]byte("aaa")); err == nil {
			t.Errorf("%s: out-of-order AddKey must fail", name)
		}
	}
}

func TestEmptyFilters(t *testing.T) {
	for name, p := range defaultPolicies() {
		b := p.NewBuilder(0)
		data, err := b.Finish()
		if err != nil {
			t.Fatalf("%s: Finish on empty: %v", name, err)
		}
		r, err := NewReader(data)
		if err != nil {
			t.Fatalf("%s: NewReader on empty: %v", name, err)
		}
		// An empty run contains nothing; "maybe" is allowed but pointless.
		// What matters is no panic and a sane answer.
		_ = r.MayContainRange([]byte("a"), []byte("z"))
	}
}

func TestInvertedRangeIsEmpty(t *testing.T) {
	f := buildFixture(t, sparseNumericKeys(100, 10, 11))
	for name, r := range f.readers {
		if name == "prefix" {
			continue // prefix answers maybe for cross-prefix ranges
		}
		if r.MayContainRange([]byte("z"), []byte("a")) {
			t.Errorf("%s: inverted range must be empty", name)
		}
	}
}

func TestNewReaderRejectsCorrupt(t *testing.T) {
	if _, err := NewReader([]byte{77}); err == nil {
		t.Error("unknown kind must fail")
	}
	for name, p := range defaultPolicies() {
		b := p.NewBuilder(100)
		for i := 0; i < 100; i++ {
			b.AddKey(numKey(uint64(i * 10)))
		}
		data, _ := b.Finish()
		if len(data) < 4 {
			continue
		}
		if _, err := NewReader(data[:3]); err == nil {
			t.Errorf("%s: 3-byte truncation decoded without error", name)
		}
		if _, err := NewReader(data[:len(data)/2]); err == nil {
			t.Errorf("%s: half truncation decoded without error", name)
		}
	}
}

func TestNoneReader(t *testing.T) {
	r, err := NewReader(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.MayContainRange([]byte("x"), []byte("x")) || !r.MayContainRange([]byte("a"), []byte("b")) {
		t.Error("none reader must always answer maybe")
	}
	if r.Kind() != KindNone || r.ApproxMemory() != 0 {
		t.Error("none reader metadata wrong")
	}
}

func TestPrefixFilterSinglePrefixRange(t *testing.T) {
	p := Policy{Kind: KindPrefix, BitsPerKey: 12, PrefixLen: 4}
	b := p.NewBuilder(10)
	for _, k := range []string{"aaaa1", "aaaa5", "cccc3"} {
		if err := b.AddKey([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := b.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if !r.MayContainRange([]byte("aaaa0"), []byte("aaaa9")) {
		t.Error("range within stored prefix must be maybe")
	}
	if r.MayContainRange([]byte("bbbb0"), []byte("bbbb9")) {
		t.Error("range within absent prefix should be filtered (modulo Bloom FP)")
	}
	if !r.MayContainRange([]byte("aaaa0"), []byte("zzzz9")) {
		t.Error("cross-prefix range must answer maybe")
	}
}

func TestRosettaWideRangeAnswersMaybe(t *testing.T) {
	p := Policy{Kind: KindRosetta, BitsPerKey: 16, RosettaMaxRangeLog: 8}
	b := p.NewBuilder(10)
	// Two keys so the domain keeps a real numeric span.
	b.AddKey(numKey(1000))
	b.AddKey(numKey(9000))
	data, _ := b.Finish()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	// A range spanning more than 2^8 domain units exceeds the maintained
	// hierarchy and must answer maybe without probing.
	if !r.MayContainRange(numKey(2000), numKey(8000)) {
		t.Error("ranges wider than 2^maxRangeLog must answer maybe")
	}
	// Ranges outside the prefixed key region are exact misses regardless
	// of width.
	if r.MayContainRange([]byte("zzz0"), []byte("zzz9")) {
		t.Error("range outside the key domain must be filtered")
	}
}

func TestMemoryReporting(t *testing.T) {
	f := buildFixture(t, sparseNumericKeys(2000, 20, 12))
	for name, r := range f.readers {
		if r.ApproxMemory() <= 0 {
			t.Errorf("%s: ApproxMemory not positive", name)
		}
	}
}
