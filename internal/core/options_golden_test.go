package core_test

import (
	"reflect"
	"testing"
	"time"

	"lsmkv"
	"lsmkv/internal/compaction"
	"lsmkv/internal/core"
)

// TestResolvedConfigGolden pins the configuration the engine runs with for
// every preset and for the benchmark's serving options (Default plus a
// 256 KiB memtable, a 2 MiB cache, one shard and latency tracking; its
// loader also drops to one compaction worker) to literals taken from the
// engine before the design struct moved into core, when a hand-written
// mapper built these fields. Where the old configuration spelled a field
// differently the literal says so:
//
//   - WALSync is SyncWAL; FilterPolicy is Filter and BitsPerKey; the
//     range-filter policy is RangeFilter, RangeFilterBitsPerKey and
//     PrefixLength (its SuRF mode and suffix bytes were and are the
//     constants writerOptionsForLevel sets); CachePolicy LRU is CacheClock
//     off; the compaction shape is Shape().
//   - RestartInterval 16 is gone: the sstable writer's default is 16.
//
// Every field but the handles (FS, Clock, Logf, Latencies) is
// compared, so a row default that moves fails here.
func TestResolvedConfigGolden(t *testing.T) {
	serve := func(conc int) *lsmkv.Options {
		o := lsmkv.Default()
		o.MemtableBytes = 256 << 10
		o.CacheBytes = 2 << 20
		o.Shards = 1
		o.TrackLatency = true
		o.CompactionConcurrency = conc
		return o
	}
	base := core.Options{Dir: "d", L0CompactionTrigger: 4, BaseBytes: 40 << 20, Design: lsmkv.Options{
		Layout: lsmkv.Leveled, SizeRatio: 10, HybridK: 1, HybridZ: 1, MaxLevels: 7,
		MemtableBytes: 4 << 20, MaxImmutableMemtables: 2,
		L0SlowdownTrigger: 12, L0StopTrigger: 24, SlowdownMaxDelay: time.Millisecond,
		PendingCompactionSlowdownBytes: 64 << 20,
		Filter:                         lsmkv.FilterBloom, BitsPerKey: 10,
		RangeFilterBitsPerKey: 16, PrefixLength: 8, BlockSize: 4096,
		CacheBytes: 8 << 20, ValueThreshold: 1024, VlogSegmentBytes: 64 << 20,
		CompactionConcurrency: 2, AutoTuneInterval: 10 * time.Second,
	}}
	shape := compaction.Shape{SizeRatio: 10, K: 1, Z: 1, L0Trigger: 4, BaseBytes: 40 << 20, MaxLevels: 7}
	for _, tc := range []struct {
		name  string
		opts  *lsmkv.Options
		want  func(o *core.Options, s *compaction.Shape)
		shape compaction.Shape
	}{
		{"default", lsmkv.Default(), func(o *core.Options, s *compaction.Shape) {}, shape},
		{"read", lsmkv.ReadOptimized(), func(o *core.Options, s *compaction.Shape) {
			o.PartitionedFilters, o.MonkeyFilters, o.BlockHashIndex, o.PrefetchAfterCompaction = true, true, true, true
			o.RangeFilter, o.LearnedIndex, o.CacheBytes = lsmkv.RangeFilterSuRF, lsmkv.LearnedPLR, 32<<20
		}, shape},
		{"write", lsmkv.WriteOptimized(), func(o *core.Options, s *compaction.Shape) {
			o.Layout, o.SizeRatio, o.HybridK, o.HybridZ, o.BaseBytes, o.BitsPerKey = lsmkv.Tiered, 4, 3, 3, 16<<20, 5
			s.SizeRatio, s.K, s.Z, s.BaseBytes = 4, 3, 3, 16<<20
		}, shape},
		{"balanced", lsmkv.Balanced(), func(o *core.Options, s *compaction.Shape) {
			o.Layout, o.SizeRatio, o.HybridK, o.BaseBytes, o.MonkeyFilters = lsmkv.LazyLeveled, 6, 5, 24<<20, true
			s.SizeRatio, s.K, s.BaseBytes = 6, 5, 24<<20
		}, shape},
		{"wisckey", lsmkv.WiscKey(), func(o *core.Options, s *compaction.Shape) {
			o.ValueSeparation, o.ValueThreshold = true, 512
		}, shape},
		{"serve", serve(0), func(o *core.Options, s *compaction.Shape) {
			o.MemtableBytes, o.BaseBytes, o.CacheBytes, o.Shards, o.TrackLatency = 256<<10, 2560<<10, 2<<20, 1, true
			s.BaseBytes = 2560 << 10
		}, shape},
		{"serve-load", serve(1), func(o *core.Options, s *compaction.Shape) {
			o.MemtableBytes, o.BaseBytes, o.CacheBytes, o.Shards, o.TrackLatency = 256<<10, 2560<<10, 2<<20, 1, true
			o.CompactionConcurrency = 1
			s.BaseBytes = 2560 << 10
		}, shape},
	} {
		got, err := core.Resolve(core.Options{Dir: "d", Design: *tc.opts})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got.FS, got.Clock, got.Logf, got.Latencies = nil, nil, nil, nil
		want, wantShape := base, tc.shape
		tc.want(&want, &wantShape)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s resolves to\n%+v\nwant\n%+v", tc.name, got, want)
		}
		if s := got.Shape(); s != wantShape {
			t.Errorf("%s plans against shape %+v, want %+v", tc.name, s, wantShape)
		}
	}
}
