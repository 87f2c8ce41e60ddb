package iostat

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values below histSub are counted exactly in
// their own bucket; above that, each power-of-two octave is split into
// histSub linear sub-buckets, bounding the relative quantile error by
// 1/histSub (6.25%). This is the HdrHistogram scheme reduced to what a
// latency instrument needs: fixed memory, lock-free recording, and
// percentiles good to a few percent.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // sub-buckets per octave
	// histBuckets covers every non-negative int64 value: octaves
	// histSubBits..62 of histSub buckets each, after the histSub exact
	// small-value buckets.
	histBuckets = (64 - histSubBits) * histSub
)

// Histogram is a lock-free log-bucketed histogram of non-negative int64
// observations (nanoseconds, by convention). The zero value is ready to
// use; all methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps a value to its bucket. Monotone in v.
func bucketIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= histSubBits
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i/histSub + histSubBits - 1
	sub := int64(i % histSub)
	return (histSub + sub) << (uint(e) - histSubBits)
}

// bucketMid returns a representative value for bucket i (its midpoint).
func bucketMid(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i/histSub + histSubBits - 1
	width := int64(1) << (uint(e) - histSubBits) // octave e splits into histSub buckets
	return bucketLow(i) + width/2
}

// Record adds one observation of v (clamped at zero).
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n observations of v (clamped at zero) at the cost of one:
// a batch read records each of its keys' equal share of the batch's time
// this way.
func (h *Histogram) RecordN(v int64, n int) {
	if v < 0 {
		v = 0
	}
	h.count.Add(int64(n))
	h.sum.Add(v * int64(n))
	h.buckets[bucketIndex(v)].Add(int64(n))
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) {
	h.Record(int64(d))
}

// HistSnapshot is a point-in-time copy of a histogram, from which
// quantiles are computed.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	buckets [histBuckets]int64
}

// Snapshot copies the current histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the approximate q-quantile (0 <= q <= 1) of the
// recorded values, in the recorded unit (nanoseconds by convention).
// Returns 0 for an empty histogram. The result is exact for values below
// 16 and within 1/16 (6.25%) relative error above.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic we want.
	rank := int64(q*float64(s.Count-1)) + 1
	var seen int64
	for i, c := range s.buckets {
		seen += c
		if seen >= rank {
			mid := bucketMid(i)
			if mid > s.Max && s.Max > 0 {
				return s.Max
			}
			return mid
		}
	}
	return s.Max
}

// Mean returns the exact mean of the recorded values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// LatencySummary is the JSON shape of one histogram for /metrics and the
// CLI: count, mean, and the tail quantiles, in microseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summary condenses the snapshot (assumed to hold nanoseconds) into the
// microsecond summary used by /metrics and the CLI.
func (s HistSnapshot) Summary() LatencySummary {
	return LatencySummary{
		Count:  s.Count,
		MeanUs: s.Mean() / 1e3,
		P50Us:  float64(s.Quantile(0.50)) / 1e3,
		P90Us:  float64(s.Quantile(0.90)) / 1e3,
		P99Us:  float64(s.Quantile(0.99)) / 1e3,
		P999Us: float64(s.Quantile(0.999)) / 1e3,
		MaxUs:  float64(s.Max) / 1e3,
	}
}

// OpLatencies bundles the core engine's per-operation latency histograms.
type OpLatencies struct {
	Get    Histogram
	Put    Histogram
	Delete Histogram
	Scan   Histogram
	// Batch times whole ApplyBatch calls (the server's write path), one
	// observation per batch regardless of its op count.
	Batch Histogram
	// Stall times hard write stalls: how long individual writes sat
	// blocked on the L0 stop trigger or a full flush queue. Its shape
	// distinguishes many short hiccups from a few long cliffs — the two
	// need different tuning (see TUNING.md).
	Stall Histogram
}

// Summaries returns the per-operation latency summaries keyed by
// operation name, omitting operations never recorded.
func (l *OpLatencies) Summaries() map[string]LatencySummary {
	out := make(map[string]LatencySummary, 6)
	for name, h := range map[string]*Histogram{
		"get": &l.Get, "put": &l.Put, "delete": &l.Delete, "scan": &l.Scan,
		"batch": &l.Batch, "stall": &l.Stall,
	} {
		if s := h.Snapshot(); s.Count > 0 {
			out[name] = s.Summary()
		}
	}
	return out
}
