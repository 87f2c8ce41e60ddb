package tuner

import (
	"strings"
	"testing"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
)

func TestWorkloadFromDelta(t *testing.T) {
	d := iostat.Snapshot{PointLookups: 500, RangeLookups: 100, WriteOps: 400}
	w := WorkloadFromDelta(d, 0.2, 0.01)
	if got := w.Writes; got != 0.4 {
		t.Fatalf("Writes = %v, want 0.4", got)
	}
	if got := w.PointLookups; got != 0.4 { // 0.5 * (1 - 0.2)
		t.Fatalf("PointLookups = %v, want 0.4", got)
	}
	if got := w.ZeroLookups; got != 0.1 { // 0.5 * 0.2
		t.Fatalf("ZeroLookups = %v, want 0.1", got)
	}
	if got := w.RangeLookups; got != 0.1 {
		t.Fatalf("RangeLookups = %v, want 0.1", got)
	}
	if got := w.RangeSelectivity; got != 0.01 {
		t.Fatalf("RangeSelectivity = %v, want 0.01", got)
	}
}

func TestWorkloadFromDeltaDefaults(t *testing.T) {
	d := iostat.Snapshot{PointLookups: 100}
	w := WorkloadFromDelta(d, 0, 0) // both out of range -> defaults
	if got := w.ZeroLookups; got != DefaultZeroLookupShare {
		t.Fatalf("ZeroLookups = %v, want default share %v", got, DefaultZeroLookupShare)
	}
	if got := w.RangeSelectivity; got != 0.01 {
		t.Fatalf("RangeSelectivity = %v, want 0.01", got)
	}
}

func TestWorkloadFromDeltaEmptyInterval(t *testing.T) {
	w := WorkloadFromDelta(iostat.Snapshot{}, 0, 0)
	if w.Writes != 1 || w.PointLookups != 0 {
		t.Fatalf("empty interval workload = %+v, want pure writes", w)
	}
}

func TestSignalsFromDelta(t *testing.T) {
	d := iostat.Snapshot{
		PointLookups:           600,
		RangeLookups:           100,
		WriteOps:               300,
		BytesFlushed:           100,
		CompactionBytesWritten: 400,
		FilterProbes:           1000,
		FilterNegatives:        800,
		FilterFalsePositives:   20,
		BlockCacheHits:         90,
		BlockCacheMisses:       10,
		WriteStallNs:           7,
		WriteSlowdownNs:        11,
	}
	s := signalsFromDelta(d, time.Second)
	if s.Ops != 1000 {
		t.Fatalf("Ops = %d", s.Ops)
	}
	if s.RawReadFrac != 0.7 || s.ReadFrac != 0.7 {
		t.Fatalf("read frac = %v/%v, want 0.7", s.RawReadFrac, s.ReadFrac)
	}
	if s.WriteAmp != 5 { // (100+400)/100
		t.Fatalf("WriteAmp = %v, want 5", s.WriteAmp)
	}
	if s.FilterFPR != 0.1 { // 20 / (1000-800)
		t.Fatalf("FilterFPR = %v, want 0.1", s.FilterFPR)
	}
	if s.CacheHitRate != 0.9 {
		t.Fatalf("CacheHitRate = %v, want 0.9", s.CacheHitRate)
	}
	if s.StallNs != 7 || s.SlowdownNs != 11 {
		t.Fatalf("stall/slowdown = %d/%d", s.StallNs, s.SlowdownNs)
	}
	str := s.String()
	for _, tok := range []string{"ops=1000", "read=0.70", "fpr=0.100"} {
		if !strings.Contains(str, tok) {
			t.Fatalf("String() = %q missing %q", str, tok)
		}
	}
}

func TestSystemFrom(t *testing.T) {
	p := core.TuningProfile{
		Entries:       2_000_000,
		DiskBytes:     256_000_000,
		MemtableBytes: 8 << 20,
		BlockSize:     8192,
		MonkeyFilters: true,
	}
	sys := systemFrom(p, 10)
	if sys.N != 2_000_000 {
		t.Fatalf("N = %v", sys.N)
	}
	if sys.EntryBytes != 128 {
		t.Fatalf("EntryBytes = %v, want 128", sys.EntryBytes)
	}
	if sys.PageBytes != 8192 || sys.BufferBytes != float64(8<<20) {
		t.Fatalf("page/buffer = %v/%v", sys.PageBytes, sys.BufferBytes)
	}
	if !sys.MonkeyAllocation || sys.FilterBitsPerKey != 10 {
		t.Fatalf("filter params = %v/%v", sys.MonkeyAllocation, sys.FilterBitsPerKey)
	}

	// An empty engine must still produce a usable system (fallbacks for
	// the volume it does not have yet; its sizes are configured).
	d := core.Defaults()
	sys = systemFrom(core.TuningProfile{MemtableBytes: d.MemtableBytes, BlockSize: d.BlockSize}, 10)
	if sys.N < 1 || sys.EntryBytes != 128 || sys.PageBytes != 4096 || sys.BufferBytes != float64(4<<20) {
		t.Fatalf("empty-profile fallbacks wrong: %+v", sys)
	}
}
