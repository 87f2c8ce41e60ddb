package iostat

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketMonotone checks the bucket mapping is monotone and
// that bucketLow inverts bucketIndex at bucket boundaries.
func TestHistogramBucketMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 7 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at v=%d: %d < %d", v, i, prev)
		}
		prev = i
		if lo := bucketLow(i); lo > v {
			t.Fatalf("bucketLow(%d)=%d exceeds member value %d", i, lo, v)
		}
	}
	// Every boundary value maps to the bucket whose low it is.
	for i := 0; i < histBuckets; i += 13 {
		lo := bucketLow(i)
		if lo < 0 {
			continue // beyond int64 range at the top octave
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, lo, got)
		}
	}
	// The largest representable value must stay in bounds.
	if i := bucketIndex(math.MaxInt64); i >= histBuckets {
		t.Fatalf("bucketIndex(MaxInt64)=%d out of bounds (%d)", i, histBuckets)
	}
}

// TestHistogramExactSmallValues: values below histSub are counted exactly.
func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < histSub; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	for q := 0.0; q <= 1.0; q += 0.25 {
		want := int64(q * float64(histSub-1))
		if got := s.Quantile(q); got != want {
			t.Errorf("Quantile(%.2f) = %d, want %d", q, got, want)
		}
	}
}

// TestHistogramQuantilesUniform: a uniform distribution's quantiles must
// come back within the documented 1/histSub relative error.
func TestHistogramQuantilesUniform(t *testing.T) {
	var h Histogram
	const n = 100000
	const maxV = 1000000 // 1ms in ns
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		h.Record(rng.Int63n(maxV))
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("Count = %d, want %d", s.Count, n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * maxV
		got := float64(s.Quantile(q))
		// Bucket relative error 1/histSub plus sampling noise.
		tol := want/histSub + 0.02*want
		if math.Abs(got-want) > tol {
			t.Errorf("Quantile(%g) = %g, want %g +/- %g", q, got, want, tol)
		}
	}
	if mean := s.Mean(); math.Abs(mean-maxV/2) > 0.02*maxV {
		t.Errorf("Mean = %g, want ~%g", mean, float64(maxV/2))
	}
}

// TestHistogramKnownDistribution: a fixed two-mode distribution has an
// unambiguous p50/p99 to land near.
func TestHistogramKnownDistribution(t *testing.T) {
	var h Histogram
	// 990 observations at ~100us, 10 at ~10ms.
	for i := 0; i < 990; i++ {
		h.Record(100_000)
	}
	for i := 0; i < 10; i++ {
		h.Record(10_000_000)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); math.Abs(float64(p50)-100_000) > 100_000/histSub {
		t.Errorf("p50 = %d, want ~100000", p50)
	}
	if p999 := s.Quantile(0.999); math.Abs(float64(p999)-10_000_000) > 10_000_000/histSub {
		t.Errorf("p999 = %d, want ~10000000", p999)
	}
	if s.Max != 10_000_000 {
		t.Errorf("Max = %d, want 10000000", s.Max)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this is the lock-freedom check, and the total count and
// sum must still balance.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(rng.Int63n(1 << 30)))
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("Count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketTotal int64
	for _, c := range s.buckets {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	if s.Quantile(1) > s.Max {
		t.Fatalf("Quantile(1)=%d exceeds Max=%d", s.Quantile(1), s.Max)
	}
}

// TestLatencySummary: the JSON summary carries the quantiles in us.
func TestLatencySummary(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(1_000_000) // 1ms
	}
	sum := h.Snapshot().Summary()
	if sum.Count != 1000 {
		t.Fatalf("Count = %d", sum.Count)
	}
	for name, v := range map[string]float64{
		"p50": sum.P50Us, "p99": sum.P99Us, "p999": sum.P999Us, "mean": sum.MeanUs, "max": sum.MaxUs,
	} {
		if math.Abs(v-1000) > 1000/histSub {
			t.Errorf("%s = %gus, want ~1000us", name, v)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		v := int64(12345)
		for pb.Next() {
			h.Record(v)
			v = v*1664525 + 1013904223
			if v < 0 {
				v = -v
			}
		}
	})
}
