// Package core implements the LSM storage engine that composes every
// substrate in this repository: memtables and WAL on the write path;
// leveled/tiered/lazy-leveled/hybrid data layouts maintained by the
// compaction planner; and the read path the tutorial is about — fence
// pointers, point filters (with Monkey allocation), range filters, block
// cache (with compaction-aware prefetch), data-block hash indexes, and
// learned indexes. Every design choice the tutorial surveys is a field of
// Design and one row of Knobs, making the engine a navigable point in the
// LSM design space.
//
// Maintenance runs on a dedicated flush worker plus a pool of
// CompactionConcurrency compaction workers; the compaction.Scheduler
// hands the pool disjoint tasks while every version install stays
// serialized under db.mu. Writers feel maintenance debt as
// graduated backpressure: a soft per-write delay once level 0 or pending
// compaction debt crosses its slowdown trigger, then the hard stop at
// L0StopTrigger / MaxImmutableMemtables. TUNING.md is the operator's
// model of these knobs.
package core

import (
	"errors"
	"fmt"
	"time"

	"lsmkv/internal/compaction"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/rangefilter"
	"lsmkv/internal/sstable"
	"lsmkv/internal/vfs"
)

// Layout names the data layout of the tree (tutorial Module I).
type Layout string

// Layouts; lsmkv documents each.
const (
	Leveled     Layout = "leveled"
	Tiered      Layout = "tiered"
	LazyLeveled Layout = "lazy"
)

// Design is the public design struct, lsmkv.Options: one field per row of
// Knobs, where a zero field selects the row's default.
type Design struct {
	// Layout selects the data layout. Default Leveled.
	Layout Layout
	// SizeRatio is the growth factor T between levels. Default 10.
	SizeRatio int
	// HybridK and HybridZ, when both positive, override Layout with an
	// explicit point on the Dostoevsky continuum: up to K runs in inner
	// levels and Z runs in the last level (1 <= K,Z <= SizeRatio-1).
	// Leveling is (1,1), tiering (T-1,T-1), lazy leveling (T-1,1).
	HybridK int
	HybridZ int
	// MemtableBytes is the write-buffer capacity. Default 4 MiB.
	MemtableBytes int64
	// TwoLevelMemtable enables the FloDB-style hash front buffer.
	TwoLevelMemtable bool
	// DisableWAL trades durability for ingest throughput.
	DisableWAL bool
	// SyncWAL fsyncs on every write.
	SyncWAL bool

	// Shards splits the keyspace across this many independent engines,
	// each with its own WAL, memtable, level 0, manifest, and compaction
	// claim space; point operations route by a stable hash of the key,
	// scans merge all shards, and batches commit atomically per shard
	// (not across shards). 0 adopts whatever the directory already is
	// (1 for a fresh database); 1 is the classic single-engine layout,
	// byte-for-byte. Opening a single-engine database with Shards=N>1
	// migrates it in place once; changing the count of an already-sharded
	// database is an error. See DESIGN.md's Sharding section.
	Shards int

	// PartialCompaction moves one file at a time (leveled layout only).
	PartialCompaction bool
	// FilePicking selects which file partial compaction moves.
	FilePicking compaction.FilePicker
	// MaxLevels bounds tree depth. Default 7.
	MaxLevels int

	// Filter selects the point-filter structure. Default FilterBloom.
	Filter filter.FilterKind
	// BitsPerKey is the average filter budget. Default 10.
	BitsPerKey float64
	// MonkeyFilters redistributes filter memory optimally across levels.
	MonkeyFilters bool
	// PartitionedFilters builds one filter partition per data block.
	PartitionedFilters bool

	// RangeFilter selects the range-filter structure. Default none.
	RangeFilter rangefilter.Kind
	// RangeFilterBitsPerKey budgets Bloom-backed range filters. Default 16.
	RangeFilterBitsPerKey float64
	// PrefixLength is the prefix length for RangeFilterPrefix. Default 8.
	PrefixLength int

	// BlockSize is the data-block size. Default 4096.
	BlockSize int
	// BlockHashIndex accelerates in-block point lookups.
	BlockHashIndex bool
	// LearnedIndex stores and uses a learned model over fences.
	LearnedIndex sstable.LearnedKind

	// CacheBytes is the block-cache capacity. Zero selects the 8 MiB
	// default; only DisableCache turns the cache off.
	CacheBytes int64
	// CacheClock selects CLOCK replacement instead of LRU.
	CacheClock bool
	// PrefetchAfterCompaction re-warms the cache after compactions.
	PrefetchAfterCompaction bool

	// ValueSeparation stores large values in a value log (WiscKey).
	ValueSeparation bool
	// ValueThreshold is the minimum separated value size. Default 1024.
	ValueThreshold int
	// VlogSegmentBytes bounds value-log segment size (the GC unit).
	// Default 64 MiB.
	VlogSegmentBytes uint64

	// CompactionMaxBytesPerSec throttles compaction output, smoothing
	// foreground latency at the cost of slower maintenance. The budget is
	// shared by all compaction workers (it bounds their combined rate);
	// flushes are exempt. 0 disables.
	CompactionMaxBytesPerSec int64
	// CompactionConcurrency is the number of background compaction
	// workers; the scheduler keeps their tasks disjoint. Default 2.
	CompactionConcurrency int
	// MaxImmutableMemtables bounds the flush queue; writers hard-stop
	// beyond it. Default 2.
	MaxImmutableMemtables int
	// L0SlowdownTrigger is the level-0 run count where writes begin to be
	// delayed (soft backpressure); L0StopTrigger is where they block
	// outright. Defaults: 3× and 6× the layout's L0 trigger.
	L0SlowdownTrigger int
	L0StopTrigger     int
	// SlowdownMaxDelay caps the per-write delay of the slowdown band.
	// Default 1ms; negative disables the band.
	SlowdownMaxDelay time.Duration
	// PendingCompactionSlowdownBytes is the compaction-debt level at
	// which writes are delayed by the full SlowdownMaxDelay (ramping from
	// half that debt). Default 64 MiB; negative disables the component.
	PendingCompactionSlowdownBytes int64

	// AutoTune starts the online self-tuning controller at Open: one
	// tuner per shard samples the engine's iostat counters and adapts the
	// live knobs (leveling/tiering position, filter bits/key, slowdown
	// band) to the observed workload. See TUNING.md's "Let the engine
	// tune itself". Off by default.
	AutoTune bool
	// AutoTuneInterval is the tuner's sampling period. Default 10s.
	AutoTuneInterval time.Duration

	// TrackLatency is ignored: every engine records its latency
	// histograms, read via DB.Latencies.
	//
	// Deprecated: latency tracking is always on.
	TrackLatency bool
	// Logf receives engine event logs when set.
	Logf func(format string, args ...any)

	// cacheBytesSet distinguishes "explicitly 0" from "unset" when the
	// struct is built by presets.
	cacheBytesSet bool
	// filterDisabled distinguishes "explicitly no filter" from the zero
	// value (which selects the default Bloom filter).
	filterDisabled bool
}

// DisableCache explicitly turns the block cache off (distinct from
// leaving CacheBytes zero, which selects the default size).
func (o *Design) DisableCache() *Design {
	o.CacheBytes = 0
	o.cacheBytesSet = true
	return o
}

// DisableFilters explicitly turns point filters off (distinct from
// leaving Filter zero, which selects Bloom filters).
func (o *Design) DisableFilters() *Design {
	o.Filter = filter.KindNone
	o.filterDisabled = true
	return o
}

// Options is what Open takes: where the engine lives, the handles a
// caller may inject, and the design point.
type Options struct {
	// Dir is the database directory (required).
	Dir string

	// FS is the filesystem every persistence layer (WAL, manifest,
	// sstables, value log) goes through. Nil selects the real filesystem;
	// tests substitute vfs.Mem / vfs.Faulty to inject faults and
	// simulate crashes.
	FS vfs.FS
	// Clock returns the current time in unix nanoseconds; the engine
	// consults it to judge TTL expiry on reads and in compaction. Nil
	// selects the real clock. Tests substitute a manual clock to make
	// expiry deterministic.
	Clock func() int64
	// Latencies, when non-nil, is the OpLatencies instance the engine
	// records into; nil gives the engine its own. The shard router shares
	// one instance across every shard engine so aggregate latency
	// quantiles come out of a single set of histograms.
	Latencies *iostat.OpLatencies

	// L0CompactionTrigger is the level-0 run count past which the picker
	// drains level 0: the live knob with no public field (Retune moves
	// it). BaseBytes is level 1's capacity, by default MemtableBytes × T.
	// Tests set both to shape small trees.
	L0CompactionTrigger int
	BaseBytes           uint64

	Design
}

// Defaults returns the options every knob resolves to when left zero.
func Defaults() Options {
	var o Options
	o.resolve(false) // the zero value is legal
	return o
}

// resolve gives every zero knob its row's default and holds every other
// to its row's legal values, then applies the rules that tie rows
// together; it also fills the unset handles. Open runs it on the caller's
// options. Retune runs it (live) on the running engine's options with the
// moved knobs written in: the rest were resolved at Open.
func (o *Options) resolve(live bool) error {
	if (o.HybridK == 0) != (o.HybridZ == 0) {
		return errors.New("core: HybridK and HybridZ override the layout together: set both or neither")
	}
	for i := range Knobs {
		if err := Knobs[i].resolve(o); err != nil {
			return err
		}
	}
	if o.HybridK >= o.SizeRatio || o.HybridZ >= o.SizeRatio {
		return fmt.Errorf("core: K=%d and Z=%d must stay within 1..T-1 (T=%d)", o.HybridK, o.HybridZ, o.SizeRatio)
	}
	// Single-file compaction moves one file of a one-run level, so it
	// needs K=1: asked for with another layout it is an error, while a
	// Retune that moves K off 1 suspends it (see shape).
	if o.PartialCompaction && o.HybridK != 1 && !live {
		return errors.New("core: partial compaction requires the leveled layout (K=1)")
	}
	// The picker drains level 0 only past L0CompactionTrigger runs, so a
	// stop at or below it would block writers in a state no compaction
	// relieves; the slowdown band engages below the stop.
	o.L0StopTrigger = max(o.L0StopTrigger, o.L0CompactionTrigger+1)
	o.L0SlowdownTrigger = min(o.L0SlowdownTrigger, o.L0StopTrigger-1)
	if o.Filter == filter.KindNone {
		o.BitsPerKey = 0 // no filter, no budget to spend or tune
	}
	if o.BaseBytes == 0 {
		o.BaseBytes = uint64(o.MemtableBytes) * uint64(o.SizeRatio)
	}
	if o.FS == nil {
		o.FS = vfs.Default
	}
	if o.Clock == nil {
		o.Clock = func() int64 { return time.Now().UnixNano() }
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// runs is the run budget Layout gives the inner levels (K) or the last
// one (Z) of a tree of ratio T.
func (o *Options) runs(last bool) float64 {
	if o.Layout == Tiered || o.Layout == LazyLeveled && !last {
		return float64(o.SizeRatio - 1)
	}
	return 1
}

// shape is the compaction design point of resolved options. Single-file
// granularity applies while K=1.
func (o *Options) shape() compaction.Shape {
	gran := compaction.WholeLevel
	if o.PartialCompaction && o.HybridK == 1 {
		gran = compaction.SingleFile
	}
	return compaction.Shape{
		SizeRatio: o.SizeRatio, K: o.HybridK, Z: o.HybridZ, L0Trigger: o.L0CompactionTrigger,
		BaseBytes: o.BaseBytes, Granularity: gran, Picker: o.FilePicking, MaxLevels: o.MaxLevels,
	}
}
