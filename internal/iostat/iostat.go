// Package iostat provides the engine-wide I/O and read-path instruments.
// The tutorial expresses every read-optimization claim in expected storage
// accesses per operation; these counters expose exactly those quantities
// (block reads, cache hits, filter probes and their outcomes) so the
// benchmark harness can report the same units the literature uses.
//
// Beyond the monotonic counters (Stats), the package carries the three
// observability primitives the rest of the engine threads through its
// hot paths, each inert at the cost of one nil check when disabled:
//
//   - Histogram / OpLatencies: lock-free log-bucketed latency histograms
//     with p50/p90/p99/p999 quantiles (Section 2's point-lookup cost is a
//     distribution, not a mean — tail quantiles are where a mis-tuned
//     filter or a deep L0 shows first).
//   - Trace / RunTrace: a per-lookup record of every sorted run
//     considered and why it was skipped or probed — the per-run
//     fence/filter/cache decisions of the paper's read path, Section 4.
//   - Event / EventLog: a bounded ring of engine lifecycle events
//     (flushes, compactions, WAL rotations, value-log GC) — the
//     background work that explains foreground latency shifts.
package iostat

import "sync/atomic"

// Stats is a set of monotonically increasing counters shared by the read
// and write paths. All methods are safe for concurrent use. The zero value
// is ready to use.
type Stats struct {
	// BlockReads counts data/index block fetches that reached storage
	// (cache misses included, cache hits excluded).
	BlockReads atomic.Int64
	// BytesRead counts bytes fetched from storage.
	BytesRead atomic.Int64
	// BlockCacheHits and BlockCacheMisses count block cache outcomes.
	BlockCacheHits   atomic.Int64
	BlockCacheMisses atomic.Int64
	// BlockCacheAdmits and BlockCacheRejects split the misses whose block
	// was read and verified by what cache admission did with it: copied
	// in (free room, or its second miss in the doorkeeper's window), or
	// left out as one-touch traffic.
	BlockCacheAdmits  atomic.Int64
	BlockCacheRejects atomic.Int64
	// FilterProbes counts point-filter membership tests; FilterNegatives
	// the probes that skipped a run; FilterFalsePositives the probes that
	// said maybe but the run turned out not to hold the key.
	FilterProbes         atomic.Int64
	FilterNegatives      atomic.Int64
	FilterFalsePositives atomic.Int64
	// RangeFilterProbes / RangeFilterNegatives mirror the above for range
	// filters.
	RangeFilterProbes    atomic.Int64
	RangeFilterNegatives atomic.Int64
	// BytesWritten counts all bytes written to storage (flushes,
	// compactions, WAL, value log).
	BytesWritten atomic.Int64
	// BytesFlushed counts bytes written by memtable flushes only — the
	// denominator of write amplification.
	BytesFlushed atomic.Int64
	// CompactionBytesRead / CompactionBytesWritten cover compaction I/O,
	// the numerator of write amplification beyond the flush itself.
	CompactionBytesRead    atomic.Int64
	CompactionBytesWritten atomic.Int64
	// Compactions and Flushes count completed background jobs.
	Compactions atomic.Int64
	Flushes     atomic.Int64
	// TrivialMoves counts compactions satisfied by re-parenting files
	// without rewriting them.
	TrivialMoves atomic.Int64
	// RunsProbed counts sorted runs consulted by point lookups (after
	// filter screening); the tutorial's "number of runs probed" metric.
	RunsProbed atomic.Int64
	// PointLookups and RangeLookups count client operations.
	PointLookups atomic.Int64
	RangeLookups atomic.Int64
	// WriteOps counts logical client write operations (every Put, Delete,
	// and batched op), independent of WAL batching — the write half of the
	// read/write mix the online tuner samples.
	WriteOps atomic.Int64
	// VlogReads counts extra value-log hops under key-value separation.
	VlogReads atomic.Int64
	// WALRecords counts records appended to the write-ahead log; WALSyncs
	// counts the fsyncs that made them durable. Group commit's whole
	// purpose is WALSyncs << write count — the server's fsyncs/op metric
	// is WALSyncs over BatchedOps.
	WALRecords atomic.Int64
	WALSyncs   atomic.Int64
	// WALSyncNs is the time spent inside those fsyncs (mean fsync =
	// WALSyncNs / WALSyncs); CommitWaitNs is the time commits spent queued
	// behind another commit, flush rotation or checkpoint sync for the
	// engine's commit lock. Together they say what a write waited for: the
	// disk, or the writers ahead of it.
	WALSyncNs    atomic.Int64
	CommitWaitNs atomic.Int64
	// BatchCommits counts ApplyBatch calls; BatchedOps the operations
	// they carried. BatchedOps/BatchCommits is the mean commit group size.
	BatchCommits atomic.Int64
	BatchedOps   atomic.Int64
	// WriteStalls counts writes that hit the hard stop (full flush queue
	// or L0 at its stop trigger) and had to block; WriteStallNs is the
	// total time they spent blocked. Any nonzero value here means
	// maintenance lost the race with ingest — see WriteSlowdowns for the
	// graduated band that should absorb pressure first.
	WriteStalls  atomic.Int64
	WriteStallNs atomic.Int64
	// WriteSlowdowns counts writes delayed by the soft slowdown band
	// (L0 past its slowdown trigger, or compaction debt past its limit);
	// WriteSlowdownNs is the total injected delay. Slowdown time rising
	// while stall time stays zero is the backpressure working as designed.
	WriteSlowdowns  atomic.Int64
	WriteSlowdownNs atomic.Int64

	// ReplRecordsApplied counts replicated WAL records applied on a
	// follower; ReplBytesApplied is their payload volume. Both advance
	// only through ApplyReplicated, so a primary reads zero.
	ReplRecordsApplied atomic.Int64
	ReplBytesApplied   atomic.Int64
	// Checkpoints counts completed online checkpoints; CheckpointBytes
	// is the total bytes copied or hard-linked into checkpoint dirs.
	Checkpoints     atomic.Int64
	CheckpointBytes atomic.Int64
	// ExpiredDrops counts TTL entries physically dropped by bottommost
	// compaction after their expiry passed (lazily filtered reads are not
	// counted — only reclaimed entries are).
	ExpiredDrops atomic.Int64
}

// Snapshot is a point-in-time copy of every counter.
type Snapshot struct {
	BlockReads             int64
	BytesRead              int64
	BlockCacheHits         int64
	BlockCacheMisses       int64
	BlockCacheAdmits       int64
	BlockCacheRejects      int64
	FilterProbes           int64
	FilterNegatives        int64
	FilterFalsePositives   int64
	RangeFilterProbes      int64
	RangeFilterNegatives   int64
	BytesWritten           int64
	BytesFlushed           int64
	CompactionBytesRead    int64
	CompactionBytesWritten int64
	Compactions            int64
	Flushes                int64
	TrivialMoves           int64
	RunsProbed             int64
	PointLookups           int64
	RangeLookups           int64
	WriteOps               int64
	VlogReads              int64
	WALRecords             int64
	WALSyncs               int64
	WALSyncNs              int64
	CommitWaitNs           int64
	BatchCommits           int64
	BatchedOps             int64
	WriteStalls            int64
	WriteStallNs           int64
	WriteSlowdowns         int64
	WriteSlowdownNs        int64
	ReplRecordsApplied     int64
	ReplBytesApplied       int64
	Checkpoints            int64
	CheckpointBytes        int64
	ExpiredDrops           int64
}

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		BlockReads:             s.BlockReads.Load(),
		BytesRead:              s.BytesRead.Load(),
		BlockCacheHits:         s.BlockCacheHits.Load(),
		BlockCacheMisses:       s.BlockCacheMisses.Load(),
		BlockCacheAdmits:       s.BlockCacheAdmits.Load(),
		BlockCacheRejects:      s.BlockCacheRejects.Load(),
		FilterProbes:           s.FilterProbes.Load(),
		FilterNegatives:        s.FilterNegatives.Load(),
		FilterFalsePositives:   s.FilterFalsePositives.Load(),
		RangeFilterProbes:      s.RangeFilterProbes.Load(),
		RangeFilterNegatives:   s.RangeFilterNegatives.Load(),
		BytesWritten:           s.BytesWritten.Load(),
		BytesFlushed:           s.BytesFlushed.Load(),
		CompactionBytesRead:    s.CompactionBytesRead.Load(),
		CompactionBytesWritten: s.CompactionBytesWritten.Load(),
		Compactions:            s.Compactions.Load(),
		Flushes:                s.Flushes.Load(),
		TrivialMoves:           s.TrivialMoves.Load(),
		RunsProbed:             s.RunsProbed.Load(),
		PointLookups:           s.PointLookups.Load(),
		RangeLookups:           s.RangeLookups.Load(),
		WriteOps:               s.WriteOps.Load(),
		VlogReads:              s.VlogReads.Load(),
		WALRecords:             s.WALRecords.Load(),
		WALSyncs:               s.WALSyncs.Load(),
		WALSyncNs:              s.WALSyncNs.Load(),
		CommitWaitNs:           s.CommitWaitNs.Load(),
		BatchCommits:           s.BatchCommits.Load(),
		BatchedOps:             s.BatchedOps.Load(),
		WriteStalls:            s.WriteStalls.Load(),
		WriteStallNs:           s.WriteStallNs.Load(),
		WriteSlowdowns:         s.WriteSlowdowns.Load(),
		WriteSlowdownNs:        s.WriteSlowdownNs.Load(),
		ReplRecordsApplied:     s.ReplRecordsApplied.Load(),
		ReplBytesApplied:       s.ReplBytesApplied.Load(),
		Checkpoints:            s.Checkpoints.Load(),
		CheckpointBytes:        s.CheckpointBytes.Load(),
		ExpiredDrops:           s.ExpiredDrops.Load(),
	}
}

// Add returns the counter-wise sum s + t. The shard router uses it to
// aggregate per-shard snapshots into one engine-wide view.
func (s Snapshot) Add(t Snapshot) Snapshot {
	return Snapshot{
		BlockReads:             s.BlockReads + t.BlockReads,
		BytesRead:              s.BytesRead + t.BytesRead,
		BlockCacheHits:         s.BlockCacheHits + t.BlockCacheHits,
		BlockCacheMisses:       s.BlockCacheMisses + t.BlockCacheMisses,
		BlockCacheAdmits:       s.BlockCacheAdmits + t.BlockCacheAdmits,
		BlockCacheRejects:      s.BlockCacheRejects + t.BlockCacheRejects,
		FilterProbes:           s.FilterProbes + t.FilterProbes,
		FilterNegatives:        s.FilterNegatives + t.FilterNegatives,
		FilterFalsePositives:   s.FilterFalsePositives + t.FilterFalsePositives,
		RangeFilterProbes:      s.RangeFilterProbes + t.RangeFilterProbes,
		RangeFilterNegatives:   s.RangeFilterNegatives + t.RangeFilterNegatives,
		BytesWritten:           s.BytesWritten + t.BytesWritten,
		BytesFlushed:           s.BytesFlushed + t.BytesFlushed,
		CompactionBytesRead:    s.CompactionBytesRead + t.CompactionBytesRead,
		CompactionBytesWritten: s.CompactionBytesWritten + t.CompactionBytesWritten,
		Compactions:            s.Compactions + t.Compactions,
		Flushes:                s.Flushes + t.Flushes,
		TrivialMoves:           s.TrivialMoves + t.TrivialMoves,
		RunsProbed:             s.RunsProbed + t.RunsProbed,
		PointLookups:           s.PointLookups + t.PointLookups,
		RangeLookups:           s.RangeLookups + t.RangeLookups,
		WriteOps:               s.WriteOps + t.WriteOps,
		VlogReads:              s.VlogReads + t.VlogReads,
		WALRecords:             s.WALRecords + t.WALRecords,
		WALSyncs:               s.WALSyncs + t.WALSyncs,
		WALSyncNs:              s.WALSyncNs + t.WALSyncNs,
		CommitWaitNs:           s.CommitWaitNs + t.CommitWaitNs,
		BatchCommits:           s.BatchCommits + t.BatchCommits,
		BatchedOps:             s.BatchedOps + t.BatchedOps,
		WriteStalls:            s.WriteStalls + t.WriteStalls,
		WriteStallNs:           s.WriteStallNs + t.WriteStallNs,
		WriteSlowdowns:         s.WriteSlowdowns + t.WriteSlowdowns,
		WriteSlowdownNs:        s.WriteSlowdownNs + t.WriteSlowdownNs,
		ReplRecordsApplied:     s.ReplRecordsApplied + t.ReplRecordsApplied,
		ReplBytesApplied:       s.ReplBytesApplied + t.ReplBytesApplied,
		Checkpoints:            s.Checkpoints + t.Checkpoints,
		CheckpointBytes:        s.CheckpointBytes + t.CheckpointBytes,
		ExpiredDrops:           s.ExpiredDrops + t.ExpiredDrops,
	}
}

// Sub returns the per-interval delta s - t (counter-wise).
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		BlockReads:             s.BlockReads - t.BlockReads,
		BytesRead:              s.BytesRead - t.BytesRead,
		BlockCacheHits:         s.BlockCacheHits - t.BlockCacheHits,
		BlockCacheMisses:       s.BlockCacheMisses - t.BlockCacheMisses,
		BlockCacheAdmits:       s.BlockCacheAdmits - t.BlockCacheAdmits,
		BlockCacheRejects:      s.BlockCacheRejects - t.BlockCacheRejects,
		FilterProbes:           s.FilterProbes - t.FilterProbes,
		FilterNegatives:        s.FilterNegatives - t.FilterNegatives,
		FilterFalsePositives:   s.FilterFalsePositives - t.FilterFalsePositives,
		RangeFilterProbes:      s.RangeFilterProbes - t.RangeFilterProbes,
		RangeFilterNegatives:   s.RangeFilterNegatives - t.RangeFilterNegatives,
		BytesWritten:           s.BytesWritten - t.BytesWritten,
		BytesFlushed:           s.BytesFlushed - t.BytesFlushed,
		CompactionBytesRead:    s.CompactionBytesRead - t.CompactionBytesRead,
		CompactionBytesWritten: s.CompactionBytesWritten - t.CompactionBytesWritten,
		Compactions:            s.Compactions - t.Compactions,
		Flushes:                s.Flushes - t.Flushes,
		TrivialMoves:           s.TrivialMoves - t.TrivialMoves,
		RunsProbed:             s.RunsProbed - t.RunsProbed,
		PointLookups:           s.PointLookups - t.PointLookups,
		RangeLookups:           s.RangeLookups - t.RangeLookups,
		WriteOps:               s.WriteOps - t.WriteOps,
		VlogReads:              s.VlogReads - t.VlogReads,
		WALRecords:             s.WALRecords - t.WALRecords,
		WALSyncs:               s.WALSyncs - t.WALSyncs,
		WALSyncNs:              s.WALSyncNs - t.WALSyncNs,
		CommitWaitNs:           s.CommitWaitNs - t.CommitWaitNs,
		BatchCommits:           s.BatchCommits - t.BatchCommits,
		BatchedOps:             s.BatchedOps - t.BatchedOps,
		WriteStalls:            s.WriteStalls - t.WriteStalls,
		WriteStallNs:           s.WriteStallNs - t.WriteStallNs,
		WriteSlowdowns:         s.WriteSlowdowns - t.WriteSlowdowns,
		WriteSlowdownNs:        s.WriteSlowdownNs - t.WriteSlowdownNs,
		ReplRecordsApplied:     s.ReplRecordsApplied - t.ReplRecordsApplied,
		ReplBytesApplied:       s.ReplBytesApplied - t.ReplBytesApplied,
		Checkpoints:            s.Checkpoints - t.Checkpoints,
		CheckpointBytes:        s.CheckpointBytes - t.CheckpointBytes,
		ExpiredDrops:           s.ExpiredDrops - t.ExpiredDrops,
	}
}

// WriteAmplification returns total bytes written over bytes flushed: how
// many times each ingested byte is rewritten by the LSM's maintenance.
// Returns 0 when nothing has been flushed.
func (s Snapshot) WriteAmplification() float64 {
	if s.BytesFlushed == 0 {
		return 0
	}
	return float64(s.BytesFlushed+s.CompactionBytesWritten) / float64(s.BytesFlushed)
}

// BlockReadsPerLookup returns storage block reads per point lookup.
func (s Snapshot) BlockReadsPerLookup() float64 {
	if s.PointLookups == 0 {
		return 0
	}
	return float64(s.BlockReads) / float64(s.PointLookups)
}

// CacheHitRate returns block cache hits over all cache lookups.
func (s Snapshot) CacheHitRate() float64 {
	total := s.BlockCacheHits + s.BlockCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.BlockCacheHits) / float64(total)
}

// FilterFPR returns measured false positives over positive filter answers.
func (s Snapshot) FilterFPR() float64 {
	positives := s.FilterProbes - s.FilterNegatives
	if positives == 0 {
		return 0
	}
	return float64(s.FilterFalsePositives) / float64(positives)
}
