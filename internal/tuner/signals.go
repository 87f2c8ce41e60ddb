package tuner

import (
	"fmt"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/cost"
	"lsmkv/internal/iostat"
)

// Signals is one interval's derived control inputs: the op mix and the
// health gauges the decision table in TUNING.md maps to knobs.
type Signals struct {
	// Ops is the operations observed in the interval.
	Ops int64 `json:"ops"`
	// RawReadFrac is the interval's unsmoothed read fraction;
	// ReadFrac is the EWMA the controller actually steers by.
	RawReadFrac float64 `json:"raw_read_frac"`
	ReadFrac    float64 `json:"read_frac"`
	// RangeFrac is the fraction of the interval's operations that were
	// range scans (a subset of the read fraction, unsmoothed). Scans are
	// priced separately because every sorted run joins a scan's merge —
	// filters cannot screen them — so a scan-heavy mix pulls the model
	// toward leveling harder than the same fraction of point reads.
	RangeFrac float64 `json:"range_frac"`
	// WriteAmp is the interval's write amplification.
	WriteAmp float64 `json:"write_amp"`
	// FilterFPR is the measured filter false-positive rate.
	FilterFPR float64 `json:"filter_fpr"`
	// CacheHitRate is the block-cache hit rate.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// StallNs and SlowdownNs are time writers spent hard-stopped and
	// soft-delayed.
	StallNs    int64 `json:"stall_ns"`
	SlowdownNs int64 `json:"slowdown_ns"`
}

// String renders the signals as one compact log token.
func (s Signals) String() string {
	return fmt.Sprintf("ops=%d read=%.2f range=%.2f wa=%.1f fpr=%.3f cache=%.2f stall=%.0fms slow=%.0fms",
		s.Ops, s.ReadFrac, s.RangeFrac, s.WriteAmp, s.FilterFPR, s.CacheHitRate,
		float64(s.StallNs)/1e6, float64(s.SlowdownNs)/1e6)
}

// signalsFromDelta derives the control signals from one interval's
// counter delta. ReadFrac is left equal to RawReadFrac; the controller
// overwrites it with the EWMA.
func signalsFromDelta(d iostat.Snapshot, _ time.Duration) Signals {
	s := Signals{
		Ops:          d.PointLookups + d.RangeLookups + d.WriteOps,
		WriteAmp:     d.WriteAmplification(),
		FilterFPR:    d.FilterFPR(),
		CacheHitRate: d.CacheHitRate(),
		StallNs:      d.WriteStallNs,
		SlowdownNs:   d.WriteSlowdownNs,
	}
	if s.Ops > 0 {
		s.RawReadFrac = float64(d.PointLookups+d.RangeLookups) / float64(s.Ops)
		s.RangeFrac = float64(d.RangeLookups) / float64(s.Ops)
	}
	s.ReadFrac = s.RawReadFrac
	return s
}

// DefaultZeroLookupShare is the assumed fraction of point lookups that
// probe absent keys when deriving a Workload from counters. The counters
// can't split existing from zero-result lookups (a filtered-out probe and
// a miss look alike from the client side), so both the online tuner and
// `lsmtune -addr` price the mix with this fixed split.
const DefaultZeroLookupShare = 0.2

// WorkloadFromDelta converts a counter delta into the cost model's
// operation mix — the single code path shared by the online tuner and
// offline `lsmtune -addr`. zeroShare splits point lookups into existing
// vs absent probes (<= 0 selects DefaultZeroLookupShare); selectivity is
// the assumed range-scan result fraction (<= 0 selects rangeSelectivity).
func WorkloadFromDelta(d iostat.Snapshot, zeroShare, selectivity float64) cost.Workload {
	if zeroShare <= 0 || zeroShare >= 1 {
		zeroShare = DefaultZeroLookupShare
	}
	if selectivity <= 0 || selectivity > 1 {
		selectivity = rangeSelectivity
	}
	total := float64(d.PointLookups + d.RangeLookups + d.WriteOps)
	if total <= 0 {
		return cost.Workload{Writes: 1}.Normalize()
	}
	points := float64(d.PointLookups) / total
	return cost.Workload{
		Writes:           float64(d.WriteOps) / total,
		PointLookups:     points * (1 - zeroShare),
		ZeroLookups:      points * zeroShare,
		RangeLookups:     float64(d.RangeLookups) / total,
		RangeSelectivity: selectivity,
	}.Normalize()
}

// workloadFromSignals builds the mix the controller prices: the smoothed
// read fraction split across point/zero/range lookups in the same
// proportions WorkloadFromDelta uses. The scan share comes from the
// interval's measured range fraction, capped by the smoothed read
// fraction; the remainder splits into existing vs absent point probes.
func workloadFromSignals(sig Signals) cost.Workload {
	r := sig.ReadFrac
	scans := sig.RangeFrac
	if scans > r {
		scans = r
	}
	points := r - scans
	return cost.Workload{
		Writes:           1 - r,
		PointLookups:     points * (1 - DefaultZeroLookupShare),
		ZeroLookups:      points * DefaultZeroLookupShare,
		RangeLookups:     scans,
		RangeSelectivity: rangeSelectivity,
	}.Normalize()
}

// systemFrom maps the engine's data-volume profile into the cost model's
// system parameters.
func systemFrom(p core.TuningProfile, bitsPerKey float64) cost.System {
	entry := 128.0
	if p.Entries > 0 && p.DiskBytes > 0 {
		entry = float64(p.DiskBytes) / float64(p.Entries)
	}
	n := float64(p.Entries)
	if n < 1 {
		n = 1
	}
	return cost.System{
		N:                n,
		EntryBytes:       entry,
		PageBytes:        float64(p.BlockSize),
		BufferBytes:      float64(p.MemtableBytes),
		FilterBitsPerKey: bitsPerKey,
		MonkeyAllocation: p.MonkeyFilters,
	}
}
