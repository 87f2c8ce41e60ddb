// Package lsmkv is a log-structured merge-tree storage engine whose
// configuration surface is the LSM design space surveyed in "The LSM
// Design Space and its Read Optimizations" (Sarkar, Dayan, Athanassoulis,
// ICDE 2023). Every read optimization the tutorial covers is a switch on
// Options: point filters (Bloom, blocked Bloom, cuckoo, ribbon) with
// Monkey allocation, range filters (prefix Bloom, SuRF, Rosetta, SNARF),
// fence pointers with optional learned indexes, block caching with
// compaction-aware prefetch, data-block hash indexes, tiered/leveled/
// lazy-leveled/hybrid layouts, partial compaction policies, and
// WiscKey-style key-value separation.
//
// Quick start:
//
//	db, err := lsmkv.Open("/data/mydb", lsmkv.ReadOptimized())
//	if err != nil { ... }
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
package lsmkv

import (
	"errors"
	"time"

	"lsmkv/internal/cache"
	"lsmkv/internal/checkpoint"
	"lsmkv/internal/compaction"
	"lsmkv/internal/core"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/rangefilter"
	"lsmkv/internal/replica"
	"lsmkv/internal/shard"
	"lsmkv/internal/sstable"
	"lsmkv/internal/tuner"
)

// ErrNotFound is returned by Get when no visible version of a key exists.
var ErrNotFound = core.ErrNotFound

// ErrClosed is returned by operations on a closed database.
var ErrClosed = core.ErrClosed

// ErrCASMismatch is returned by CompareAndSwap when the current value
// does not match the expected one.
var ErrCASMismatch = core.ErrCASMismatch

// ErrNotCounter is returned by Incr when the key holds a value that is
// not an 8-byte little-endian counter.
var ErrNotCounter = core.ErrNotCounter

// Layout names the data layout of the tree (tutorial Module I).
type Layout string

const (
	// Leveled keeps one sorted run per level (RocksDB default): best
	// reads, most write amplification.
	Leveled Layout = "leveled"
	// Tiered allows T-1 runs per level (Cassandra STCS): best writes,
	// most runs to probe.
	Tiered Layout = "tiered"
	// LazyLeveled tiers the inner levels and levels the last one
	// (Dostoevsky): point-read cost close to leveled at near-tiered
	// write cost.
	LazyLeveled Layout = "lazy"
)

// FilterKind names the point-filter structure (Module II-i).
type FilterKind = filter.FilterKind

// Point-filter kinds.
const (
	FilterNone         = filter.KindNone
	FilterBloom        = filter.KindBloom
	FilterBlockedBloom = filter.KindBlockedBloom
	FilterCuckoo       = filter.KindCuckoo
	FilterRibbon       = filter.KindRibbon
)

// RangeFilterKind names the range-filter structure (Module II-ii).
type RangeFilterKind = rangefilter.Kind

// Range-filter kinds.
const (
	RangeFilterNone    = rangefilter.KindNone
	RangeFilterPrefix  = rangefilter.KindPrefix
	RangeFilterSuRF    = rangefilter.KindSuRF
	RangeFilterRosetta = rangefilter.KindRosetta
	RangeFilterSNARF   = rangefilter.KindSNARF
)

// LearnedIndexKind names the learned fence-pointer model (Module II-iv).
type LearnedIndexKind = sstable.LearnedKind

// Learned index kinds.
const (
	LearnedNone        = sstable.LearnedNone
	LearnedPLR         = sstable.LearnedPLR
	LearnedRadixSpline = sstable.LearnedRadixSpline
)

// FilePicking names the partial-compaction data movement policy.
type FilePicking = compaction.FilePicker

// File-picking policies for partial compaction.
const (
	PickRoundRobin     = compaction.PickRoundRobin
	PickMinOverlap     = compaction.PickMinOverlap
	PickMostTombstones = compaction.PickMostTombstones
	PickOldest         = compaction.PickOldest
)

// Options selects a point in the LSM design space. The zero value (plus a
// directory) is a sensible leveled engine; the preset constructors below
// give named starting points.
type Options struct {
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
	FilePicking FilePicking
	// MaxLevels bounds tree depth. Default 7.
	MaxLevels int

	// Filter selects the point-filter structure. Default FilterBloom.
	Filter FilterKind
	// BitsPerKey is the average filter budget. Default 10.
	BitsPerKey float64
	// MonkeyFilters redistributes filter memory optimally across levels.
	MonkeyFilters bool
	// PartitionedFilters builds one filter partition per data block.
	PartitionedFilters bool

	// RangeFilter selects the range-filter structure. Default none.
	RangeFilter RangeFilterKind
	// RangeFilterBitsPerKey budgets Bloom-backed range filters. Default 16.
	RangeFilterBitsPerKey float64
	// PrefixLength is the prefix length for RangeFilterPrefix. Default 8.
	PrefixLength int

	// BlockSize is the data-block size. Default 4096.
	BlockSize int
	// BlockHashIndex accelerates in-block point lookups.
	BlockHashIndex bool
	// LearnedIndex stores and uses a learned model over fences.
	LearnedIndex LearnedIndexKind

	// CacheBytes is the block-cache capacity. Default 8 MiB; 0 disables.
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

	// Stats, when non-nil, receives I/O accounting shared with the
	// caller — every shard records into it, so ShardStats then holds that
	// one aggregate; otherwise each shard keeps a private instance.
	Stats *iostat.Stats
	// TrackLatency enables per-operation latency histograms, read via
	// DB.Latencies. Off by default; when off no operation reads the clock.
	TrackLatency bool
	// EventLogSize bounds the in-memory ring of engine lifecycle events
	// (flushes, compactions, WAL activity), read via DB.Events. 0 selects
	// the default (512); negative disables event recording.
	EventLogSize int
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
func (o *Options) DisableCache() *Options {
	o.CacheBytes = 0
	o.cacheBytesSet = true
	return o
}

// DisableFilters explicitly turns point filters off (distinct from
// leaving Filter zero, which selects Bloom filters).
func (o *Options) DisableFilters() *Options {
	o.Filter = FilterNone
	o.filterDisabled = true
	return o
}

// Default returns the baseline design: leveled, T=10, Bloom filters at
// 10 bits/key, 8 MiB LRU cache — the RocksDB-flavored point in the space.
func Default() *Options { return &Options{} }

// ReadOptimized returns a design tuned for point and range reads: leveled
// layout, Monkey-allocated partitioned Bloom filters, block hash indexes,
// SuRF range filters, learned fence pointers, larger cache with
// compaction-aware prefetch.
func ReadOptimized() *Options {
	return &Options{
		Layout:                  Leveled,
		MonkeyFilters:           true,
		PartitionedFilters:      true,
		BlockHashIndex:          true,
		RangeFilter:             RangeFilterSuRF,
		LearnedIndex:            LearnedPLR,
		CacheBytes:              32 << 20,
		PrefetchAfterCompaction: true,
	}
}

// WriteOptimized returns a design tuned for ingestion: tiered layout,
// modest filters, no WAL syncing.
func WriteOptimized() *Options {
	return &Options{
		Layout:     Tiered,
		SizeRatio:  4,
		BitsPerKey: 5,
	}
}

// Balanced returns the Dostoevsky-style lazy-leveled middle ground.
func Balanced() *Options {
	return &Options{Layout: LazyLeveled, SizeRatio: 6, MonkeyFilters: true}
}

// WiscKey returns a key-value-separated design for large values.
func WiscKey() *Options {
	return &Options{
		ValueSeparation: true,
		ValueThreshold:  512,
	}
}

// Preset returns the named design point as the command-line tools spell
// it (-preset): default, read, write, balanced or wisckey.
func Preset(name string) (*Options, error) {
	switch name {
	case "default":
		return Default(), nil
	case "read":
		return ReadOptimized(), nil
	case "write":
		return WriteOptimized(), nil
	case "balanced":
		return Balanced(), nil
	case "wisckey":
		return WiscKey(), nil
	}
	return nil, errors.New("lsmkv: unknown preset \"" + name + "\" (default | read | write | balanced | wisckey)")
}

// toCore maps public options to the engine configuration.
func (o *Options) toCore(dir string) (core.Options, error) {
	t := o.SizeRatio
	if t < 2 {
		t = 10
	}
	k, z := 1, 1
	switch o.Layout {
	case "", Leveled:
	case Tiered:
		k, z = t-1, t-1
	case LazyLeveled:
		k, z = t-1, 1
	default:
		return core.Options{}, errors.New("lsmkv: unknown layout " + string(o.Layout))
	}
	if o.HybridK > 0 && o.HybridZ > 0 {
		k, z = o.HybridK, o.HybridZ
	}
	gran := compaction.WholeLevel
	if o.PartialCompaction {
		if k != 1 {
			return core.Options{}, errors.New("lsmkv: partial compaction requires the leveled layout")
		}
		gran = compaction.SingleFile
	}
	bits := o.BitsPerKey
	if bits <= 0 {
		bits = 10
	}
	fk := o.Filter
	if fk == FilterNone {
		if o.filterDisabled {
			fk = FilterNone
		} else {
			fk = FilterBloom
		}
	}
	rfBits := o.RangeFilterBitsPerKey
	if rfBits <= 0 {
		rfBits = 16
	}
	prefixLen := o.PrefixLength
	if prefixLen <= 0 {
		prefixLen = 8
	}
	cacheBytes := o.CacheBytes
	if cacheBytes == 0 && !o.cacheBytesSet {
		cacheBytes = 8 << 20
	}
	cachePolicy := cache.LRU
	if o.CacheClock {
		cachePolicy = cache.Clock
	}
	return core.Options{
		Dir:                   dir,
		MemtableBytes:         o.MemtableBytes,
		TwoLevelMemtable:      o.TwoLevelMemtable,
		MaxImmutableMemtables: o.MaxImmutableMemtables,
		L0SlowdownTrigger:     o.L0SlowdownTrigger,
		L0StopTrigger:         o.L0StopTrigger,
		SlowdownMaxDelay:      o.SlowdownMaxDelay,
		DisableWAL:            o.DisableWAL,
		WALSync:               o.SyncWAL,
		Shape: compaction.Shape{
			SizeRatio:   t,
			K:           k,
			Z:           z,
			Granularity: gran,
			Picker:      o.FilePicking,
			MaxLevels:   o.MaxLevels,
		},
		BlockSize:         o.BlockSize,
		FilterPolicy:      filter.Policy{Kind: fk, BitsPerKey: bits},
		FilterPartitioned: o.PartitionedFilters,
		MonkeyFilters:     o.MonkeyFilters,
		RangeFilter: rangefilter.Policy{
			Kind:            o.RangeFilter,
			BitsPerKey:      rfBits,
			PrefixLen:       prefixLen,
			SuRFMode:        rangefilter.SuRFReal,
			SuRFSuffixBytes: 2,
		},
		BlockHashIndex:                 o.BlockHashIndex,
		LearnedIndex:                   o.LearnedIndex,
		CacheBytes:                     cacheBytes,
		CachePolicy:                    cachePolicy,
		PrefetchAfterCompaction:        o.PrefetchAfterCompaction,
		ValueSeparation:                o.ValueSeparation,
		ValueThreshold:                 o.ValueThreshold,
		VlogSegmentBytes:               o.VlogSegmentBytes,
		CompactionMaxBytesPerSec:       o.CompactionMaxBytesPerSec,
		CompactionConcurrency:          o.CompactionConcurrency,
		PendingCompactionSlowdownBytes: o.PendingCompactionSlowdownBytes,
		Stats:                          o.Stats,
		TrackLatency:                   o.TrackLatency,
		EventLogSize:                   o.EventLogSize,
		Logf:                           o.Logf,
	}, nil
}

// DB is a handle to an open database. It is safe for concurrent use.
// Everything but Open and StartTuning is the embedded engine's method set
// — reads, writes, scans, snapshots, stats, tuning control, replication
// and backup — documented once, on internal/shard.DB.
type DB struct {
	*shard.DB
}

// Open creates or reopens the database at dir with the given design.
// A nil opts selects Default().
func Open(dir string, opts *Options) (*DB, error) {
	if opts == nil {
		opts = Default()
	}
	copts, err := opts.toCore(dir)
	if err != nil {
		return nil, err
	}
	inner, err := shard.Open(copts, opts.Shards)
	if err != nil {
		return nil, err
	}
	db := &DB{DB: inner}
	if opts.AutoTune {
		db.StartTuning(opts.AutoTuneInterval)
	}
	return db, nil
}

// StartTuning launches the online self-tuning controller (one tuner per
// shard) sampling every interval (<= 0 selects the 10s default).
// Idempotent while running. Options.AutoTune calls this at Open.
func (db *DB) StartTuning(interval time.Duration) {
	db.DB.StartTuning(tuner.Config{Interval: interval})
}

// Trace is the record of one traced point lookup: every buffer and sorted
// run consulted, how each screened the probe, and the block-level work.
type Trace = iostat.Trace

// BatchOp is one operation in an atomically committed write batch; build
// with PutOp / DeleteOp.
type BatchOp = core.BatchOp

// PutOp builds a set operation for ApplyBatch.
func PutOp(key, value []byte) BatchOp { return core.PutOp(key, value) }

// DeleteOp builds a tombstone operation for ApplyBatch.
func DeleteOp(key []byte) BatchOp { return core.DeleteOp(key) }

// Snapshot pins a consistent point-in-time view; get one from
// DB.NewSnapshot and Release it. With Shards > 1 the view is one snapshot
// per shard: consistent within each shard, but not an atomic cut across
// shards.
type Snapshot = shard.Snapshot

// LatencySummary carries one operation's latency quantiles.
type LatencySummary = iostat.LatencySummary

// Event is one recorded engine lifecycle event.
type Event = iostat.Event

// LevelInfo describes one level of the tree.
type LevelInfo = core.LevelInfo

// TunerStatus is one shard tuner's externally visible state: the live
// knob set, the design it is steering toward, the last signal sample,
// and the bounded history of applied moves.
type TunerStatus = tuner.Status

// TunerDecision is one applied tuner move: signals, before/after knobs,
// rationale.
type TunerDecision = tuner.Decision

// CheckpointInfo is the durable record of a completed checkpoint.
type CheckpointInfo = checkpoint.Marker

// MerkleTree is a Merkle summary of the database's logical content at a
// sequence vector.
type MerkleTree = replica.Tree

// CommitHook observes every committed write batch (shard, first
// sequence number, op count, logical WAL payload). It runs inside the
// shard's commit pipeline — the shard's next commit waits for it, reads
// do not: copy the payload if retaining it, return quickly.
type CommitHook = shard.CommitHook
