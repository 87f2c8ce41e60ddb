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
type Layout = core.Layout

const (
	// Leveled keeps one sorted run per level (RocksDB default): best
	// reads, most write amplification.
	Leveled = core.Leveled
	// Tiered allows T-1 runs per level (Cassandra STCS): best writes,
	// most runs to probe.
	Tiered = core.Tiered
	// LazyLeveled tiers the inner levels and levels the last one
	// (Dostoevsky): point-read cost close to leveled at near-tiered
	// write cost.
	LazyLeveled = core.LazyLeveled
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
// give named starting points. Each field is one row of core.Knobs, which
// holds its default and legal range (TUNING.md's knob reference); a
// nonzero value outside that range fails Open with an error naming it.
type Options = core.Design

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
	return open(core.Options{Dir: dir, Design: *opts})
}

// open opens the database o describes; tests hand it their own FS.
func open(o core.Options) (*DB, error) {
	inner, err := shard.Open(o, o.Shards)
	if err != nil {
		return nil, err
	}
	db := &DB{DB: inner}
	if o.AutoTune {
		db.StartTuning(o.AutoTuneInterval)
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
