package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"lsmkv/internal/filter"
	"lsmkv/internal/learned"
	"lsmkv/internal/workload"
)

// E6: fence-pointer search vs learned models over the same sorted fence
// keys — CPU per probe and model memory.
func E6(scale Scale) ([]*Table, error) {
	n := 200_000 * scale.factor()
	xs := make([]uint64, n)
	rng := rand.New(rand.NewSource(13))
	v := uint64(0)
	for i := range xs {
		v += uint64(1 + rng.Intn(200))
		xs[i] = v
	}
	probes := make([]uint64, 1<<16)
	for i := range probes {
		probes[i] = xs[rng.Intn(n)]
	}

	// search times f over the probes; it returns ns/probe and the slot f
	// found for each, which is also what keeps the calls from being
	// optimized away.
	search := func(f func(x uint64) int) (float64, []int) {
		slots := make([]int, len(probes))
		start := time.Now()
		for i, x := range probes {
			slots[i] = f(x)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(probes)), slots
	}

	binary := func(x uint64) int {
		return sort.Search(n, func(j int) bool { return xs[j] >= x })
	}

	plr := learned.BuildPLR(xs, 16)
	plrSearch := func(x uint64) int {
		_, lo, hi := plr.Predict(x)
		return lo + sort.Search(hi-lo+1, func(j int) bool { return xs[lo+j] >= x })
	}

	rs := learned.BuildRadixSpline(xs, 16, 14)
	rsSearch := func(x uint64) int {
		_, lo, hi := rs.Predict(x)
		return lo + sort.Search(hi-lo+1, func(j int) bool { return xs[lo+j] >= x })
	}

	binaryNs, want := search(binary)
	plrNs, plrSlots := search(plrSearch)
	rsNs, rsSlots := search(rsSearch)
	// Correctness guard: on every probe, every index structure must
	// return the slot binary search does.
	if !slices.Equal(plrSlots, want) {
		return nil, fmt.Errorf("E6: PLR search disagrees with binary search")
	}
	if !slices.Equal(rsSlots, want) {
		return nil, fmt.Errorf("E6: RadixSpline search disagrees with binary search")
	}

	flatBytes := n * 12 // 8-byte fence key + 4-byte handle per block
	t := NewTable("index", "ns/probe", "aux memory KiB", "vs flat fences")
	t.Row("binary search (fences)", binaryNs, flatBytes>>10, "1.00x")
	t.Row("PLR (PGM/Bourbon-style)", plrNs, plr.ApproxMemory()>>10,
		fmt.Sprintf("%.4fx", float64(plr.ApproxMemory())/float64(flatBytes)))
	t.Row("RadixSpline", rsNs, rs.ApproxMemory()>>10,
		fmt.Sprintf("%.4fx", float64(rs.ApproxMemory())/float64(flatBytes)))
	t.Note = fmt.Sprintf("(PLR: %d segments, eps=%d; RadixSpline: %d points, eps=%d)",
		plr.Segments(), plr.Epsilon(), rs.SplinePoints(), rs.Epsilon())
	return []*Table{t}, nil
}

// E11: the point-filter zoo at a fixed space budget.
func E11(scale Scale) ([]*Table, error) {
	n := 200_000 * scale.factor()
	keys := make([]filter.KeyHash, n)
	for i := range keys {
		keys[i] = filter.HashKey(workload.Key(int64(i)))
	}
	ghosts := make([]filter.KeyHash, 1<<16)
	for i := range ghosts {
		ghosts[i] = filter.HashKey([]byte(fmt.Sprintf("ghost%012d", i)))
	}

	t := NewTable("filter", "bits/key", "build ms", "probe ns", "measured FPR", "size KiB")
	for _, kind := range []filter.FilterKind{
		filter.KindBloom, filter.KindBlockedBloom, filter.KindCuckoo, filter.KindRibbon,
	} {
		p := filter.Policy{Kind: kind, BitsPerKey: 10}
		start := time.Now()
		b := p.NewBuilder(n)
		for _, kh := range keys {
			b.AddHash(kh)
		}
		data, err := b.Finish()
		if err != nil {
			return nil, err
		}
		buildMs := float64(time.Since(start).Microseconds()) / 1000
		r, err := filter.NewReader(data)
		if err != nil {
			return nil, err
		}
		// No false negatives, ever.
		for i := 0; i < n; i += 97 {
			if !r.MayContainHash(keys[i]) {
				return nil, fmt.Errorf("E11: %v produced a false negative", kind)
			}
		}
		start = time.Now()
		fp := 0
		for _, kh := range ghosts {
			if r.MayContainHash(kh) {
				fp++
			}
		}
		probeNs := float64(time.Since(start).Nanoseconds()) / float64(len(ghosts))
		t.Row(kind.String(), float64(len(data))*8/float64(n), buildMs, probeNs,
			float64(fp)/float64(len(ghosts)), len(data)>>10)
	}
	return []*Table{t}, nil
}

// E12: probing L filters per lookup with one shared key digest vs
// rehashing the key for every filter.
func E12(scale Scale) ([]*Table, error) {
	const levels = 7
	n := 50_000 * scale.factor()
	p := filter.Policy{Kind: filter.KindBloom, BitsPerKey: 10}
	readers := make([]filter.Reader, levels)
	for l := 0; l < levels; l++ {
		b := p.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddHash(filter.HashKey(workload.Key(int64(l*n + i))))
		}
		data, err := b.Finish()
		if err != nil {
			return nil, err
		}
		if readers[l], err = filter.NewReader(data); err != nil {
			return nil, err
		}
	}
	lookups := 1 << 16
	keys := make([][]byte, lookups)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("lookup%032d", i)) // longer keys: hashing costs more
	}

	start := time.Now()
	hits := 0
	for _, k := range keys {
		kh := filter.HashKey(k) // hash once, derive all probes
		for l := 0; l < levels; l++ {
			if readers[l].MayContainHash(kh) {
				hits++
			}
		}
	}
	shared := float64(time.Since(start).Nanoseconds()) / float64(lookups)

	start = time.Now()
	for _, k := range keys {
		for l := 0; l < levels; l++ {
			kh := filter.HashKey(k) // rehash per filter (the naive path)
			if readers[l].MayContainHash(kh) {
				hits++
			}
		}
	}
	independent := float64(time.Since(start).Nanoseconds()) / float64(lookups)
	_ = hits

	t := NewTable("hashing", "filters/lookup", "ns/lookup", "speedup")
	t.Row("independent (hash per filter)", levels, independent, "1.00x")
	t.Row("shared (hash once)", levels, shared, fmt.Sprintf("%.2fx", independent/shared))
	return []*Table{t}, nil
}
