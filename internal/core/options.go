// Package core implements the LSM storage engine that composes every
// substrate in this repository: memtables and WAL on the write path;
// leveled/tiered/lazy-leveled/hybrid data layouts maintained by the
// compaction planner; and the read path the tutorial is about — fence
// pointers, point filters (with Monkey allocation), range filters, block
// cache (with compaction-aware prefetch), data-block hash indexes, and
// learned indexes. Every design choice the tutorial surveys is a field of
// Options, making the engine a navigable point in the LSM design space.
//
// Maintenance runs on a dedicated flush worker plus a pool of
// CompactionConcurrency compaction workers; the compaction.Scheduler
// hands the pool disjoint tasks while every version install stays
// serialized through the manifest lock. Writers feel maintenance debt as
// graduated backpressure: a soft per-write delay once level 0 or pending
// compaction debt crosses its slowdown trigger, then the hard stop at
// L0StopTrigger / MaxImmutableMemtables. TUNING.md is the operator's
// model of these knobs.
package core

import (
	"fmt"
	"time"

	"lsmkv/internal/cache"
	"lsmkv/internal/compaction"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/rangefilter"
	"lsmkv/internal/sstable"
	"lsmkv/internal/vfs"
)

// Options is the engine's design point. Zero values select sane defaults
// (a RocksDB-flavored leveled LSM with 10-bits/key Bloom filters).
type Options struct {
	// Dir is the database directory (required).
	Dir string

	// FS is the filesystem every persistence layer (WAL, manifest,
	// sstables, value log) goes through. Nil selects the real filesystem;
	// tests substitute vfs.Mem / vfs.Faulty to inject faults and
	// simulate crashes.
	FS vfs.FS

	// ---- Write path / buffering ----

	// MemtableBytes is the buffer capacity before flush. Default 4 MiB.
	MemtableBytes int64
	// TwoLevelMemtable enables the FloDB-style hash-front buffer.
	TwoLevelMemtable bool
	// MaxImmutableMemtables bounds the flush queue; writers stall beyond
	// it. Default 2.
	MaxImmutableMemtables int
	// L0StopTrigger stalls writers while level 0 holds at least this many
	// runs, so compactions keep pace with flushes instead of starving
	// behind them (RocksDB's L0 stop trigger). Default 6× the shape's
	// L0Trigger; clamped above L0Trigger, since a stop at or below the
	// run budget would block writers in a state the picker never plans
	// relief for.
	L0StopTrigger int
	// L0SlowdownTrigger starts the soft backpressure band: once level 0
	// holds this many runs, each write is delayed by an amount that ramps
	// quadratically toward SlowdownMaxDelay as L0 approaches
	// L0StopTrigger. Default 3× the shape's L0Trigger, clamped below the
	// stop trigger.
	L0SlowdownTrigger int
	// SlowdownMaxDelay caps the per-write delay the slowdown band may
	// inject. Default 1ms; negative disables the band entirely (writes go
	// full speed until the hard stop).
	SlowdownMaxDelay time.Duration
	// PendingCompactionSlowdownBytes is the compaction-debt soft limit:
	// when the bytes awaiting compaction (all of L0 plus every leveled
	// level's overage) exceed half this value, writes start slowing, and
	// at the full value they are delayed by SlowdownMaxDelay. Default
	// 64 MiB; negative disables the debt component.
	PendingCompactionSlowdownBytes int64
	// DisableWAL trades durability for ingest speed.
	DisableWAL bool
	// WALSync fsyncs the log on every write batch.
	WALSync bool

	// ---- Data layout / compaction (Module I) ----

	// Shape is the compaction design point: size ratio T, runs per level
	// K/Z, trigger, granularity, and movement policy.
	Shape compaction.Shape

	// ---- Table format ----

	// BlockSize is the data-block size. Default 4096.
	BlockSize int
	// RestartInterval is the block restart spacing. Default 16.
	RestartInterval int

	// ---- Point filters (Module II-i, II-v) ----

	// FilterPolicy selects the AMQ structure and the average bits/key
	// budget.
	FilterPolicy filter.Policy
	// FilterPartitioned builds one filter partition per data block.
	FilterPartitioned bool
	// MonkeyFilters redistributes the filter budget across levels
	// (smaller levels get more bits/key) instead of uniform allocation.
	MonkeyFilters bool

	// ---- Range filters (Module II-ii) ----

	// RangeFilter selects the per-table range filter.
	RangeFilter rangefilter.Policy

	// ---- In-block and index acceleration (Module II-iv) ----

	// BlockHashIndex appends per-block hash indexes for point lookups.
	BlockHashIndex bool
	// LearnedIndex stores a learned model over fences in each table and
	// uses it at read time.
	LearnedIndex sstable.LearnedKind

	// ---- Caching (Module II-iii) ----

	// CacheBytes is the block cache capacity. 0 disables the cache.
	CacheBytes int64
	// CachePolicy selects LRU or Clock replacement.
	CachePolicy cache.Policy
	// PrefetchAfterCompaction re-warms the cache with output blocks after
	// a compaction invalidates cached input blocks (Leaper-style).
	PrefetchAfterCompaction bool

	// ---- Key-value separation ----

	// ValueSeparation stores values at or above ValueThreshold in a
	// WiscKey-style value log.
	ValueSeparation bool
	// ValueThreshold is the minimum value size that is separated.
	// Default 1024.
	ValueThreshold int
	// VlogSegmentBytes bounds value-log segment size. Default 64 MiB.
	VlogSegmentBytes uint64

	// ---- Stability (Module III-B) ----

	// CompactionMaxBytesPerSec throttles compaction output, trading
	// slower maintenance for steadier foreground latency (the
	// SILK/Luo-&-Carey performance-stability direction). The budget is a
	// single token bucket shared by every concurrent compaction worker —
	// it bounds their combined rate — and flushes are exempt (flush
	// starvation is what stalls writers). 0 disables.
	CompactionMaxBytesPerSec int64
	// CompactionConcurrency is the number of background compaction
	// workers. The scheduler only hands them non-overlapping tasks, so
	// extra workers help exactly when distinct levels have debt — the
	// common state under sustained ingest. Default 2.
	CompactionConcurrency int

	// ---- Instrumentation ----

	// Stats receives I/O accounting. Nil allocates a private instance.
	Stats *iostat.Stats
	// TrackLatency enables per-operation latency histograms for Get, Put,
	// Delete, Scan and ApplyBatch (read via DB.Latencies). Off by default;
	// disabled, no operation reads the clock.
	TrackLatency bool
	// Latencies, when non-nil, is the OpLatencies instance the engine
	// records into (and implies TrackLatency). The shard router shares one
	// instance across every shard engine so aggregate latency quantiles
	// come out of a single set of histograms.
	Latencies *iostat.OpLatencies
	// Clock returns the current time in unix nanoseconds; the engine
	// consults it to judge TTL expiry on reads and in compaction. Nil
	// selects the real clock. Tests substitute a manual clock to make
	// expiry deterministic.
	Clock func() int64
	// EventLogSize bounds the in-memory ring of engine lifecycle events
	// (flushes, compactions, WAL rotations and recoveries, value-log GC),
	// read via DB.Events. 0 selects iostat.DefaultEventLogSize; negative
	// disables event recording.
	EventLogSize int
	// Logf, when set, receives engine event logs.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("core: Options.Dir is required")
	}
	if o.FS == nil {
		o.FS = vfs.Default
	}
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxImmutableMemtables <= 0 {
		o.MaxImmutableMemtables = 2
	}
	if o.Shape.BaseBytes == 0 {
		o.Shape.BaseBytes = uint64(o.MemtableBytes) * uint64(max(o.Shape.SizeRatio, 2))
	}
	if err := o.Shape.Validate(); err != nil {
		return o, err
	}
	if o.L0StopTrigger <= 0 {
		o.L0StopTrigger = o.Shape.L0Trigger * 6
	}
	// The picker only plans L0 relief once the level exceeds its run
	// budget (L0Trigger+1 runs); a stop at or below the budget would
	// block writers in a state no compaction can ever relieve.
	if o.L0StopTrigger <= o.Shape.L0Trigger {
		o.L0StopTrigger = o.Shape.L0Trigger + 1
	}
	if o.L0SlowdownTrigger <= 0 {
		o.L0SlowdownTrigger = o.Shape.L0Trigger * 3
	}
	if o.L0SlowdownTrigger >= o.L0StopTrigger {
		o.L0SlowdownTrigger = o.L0StopTrigger - 1
	}
	if o.SlowdownMaxDelay == 0 {
		o.SlowdownMaxDelay = time.Millisecond
	} else if o.SlowdownMaxDelay < 0 {
		o.SlowdownMaxDelay = 0
	}
	if o.PendingCompactionSlowdownBytes == 0 {
		o.PendingCompactionSlowdownBytes = 64 << 20
	} else if o.PendingCompactionSlowdownBytes < 0 {
		o.PendingCompactionSlowdownBytes = 0
	}
	if o.CompactionConcurrency <= 0 {
		o.CompactionConcurrency = 2
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 4096
	}
	if o.RestartInterval <= 0 {
		o.RestartInterval = 16
	}
	if o.ValueThreshold <= 0 {
		o.ValueThreshold = 1024
	}
	if o.VlogSegmentBytes == 0 {
		o.VlogSegmentBytes = 64 << 20
	}
	if o.Stats == nil {
		o.Stats = &iostat.Stats{}
	}
	if o.Clock == nil {
		o.Clock = func() int64 { return time.Now().UnixNano() }
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}
