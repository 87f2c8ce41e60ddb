// Package iostat provides the engine-wide I/O and read-path instruments.
// The tutorial expresses every read-optimization claim in expected storage
// accesses per operation; these counters expose exactly those quantities
// (block reads, cache hits, filter probes and their outcomes) so the
// benchmark harness can report the same units the literature uses.
//
// Beyond the monotonic counters (Stats), the package carries the three
// observability primitives the rest of the engine threads through its
// hot paths. Every engine records its counters, histograms and events
// always; only a Trace is asked for per lookup:
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

import (
	"reflect"
	"sync/atomic"
)

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
	// BatchCommits counts commit groups, BatchedOps the operations they
	// committed, and GroupSizes the groups by size (ObserveGroup).
	// BatchedOps/BatchCommits is the mean commit group size.
	BatchCommits atomic.Int64
	BatchedOps   atomic.Int64
	GroupSizes   [GroupSizeBuckets]atomic.Int64
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
	GroupSizes             [GroupSizeBuckets]int64
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

// Tally is a read's private count of its point-read and block events:
// plain integers the reading goroutine bumps without synchronisation,
// named as the Stats counters they feed. A batch of point reads keeps one
// and adds it to Stats once, when the batch ends; a table iterator keeps
// one and adds it per block, so scans and compactions stay live in Stats
// while they run. The loaders and screens that count these events
// (sstable's loadBlock and filter screens, the engine's point-read walk)
// count only here.
type Tally struct {
	PointLookups         int64
	RunsProbed           int64
	FilterProbes         int64
	FilterNegatives      int64
	FilterFalsePositives int64
	BlockReads           int64
	BytesRead            int64
	BlockCacheHits       int64
	BlockCacheMisses     int64
	BlockCacheAdmits     int64
	BlockCacheRejects    int64
}

// FlushTo adds t's counts to s, touching only the counters t moved, and
// zeroes t.
func (t *Tally) FlushTo(s *Stats) {
	add := func(c *atomic.Int64, n int64) {
		if n != 0 {
			c.Add(n)
		}
	}
	add(&s.PointLookups, t.PointLookups)
	add(&s.RunsProbed, t.RunsProbed)
	add(&s.FilterProbes, t.FilterProbes)
	add(&s.FilterNegatives, t.FilterNegatives)
	add(&s.FilterFalsePositives, t.FilterFalsePositives)
	add(&s.BlockReads, t.BlockReads)
	add(&s.BytesRead, t.BytesRead)
	add(&s.BlockCacheHits, t.BlockCacheHits)
	add(&s.BlockCacheMisses, t.BlockCacheMisses)
	add(&s.BlockCacheAdmits, t.BlockCacheAdmits)
	add(&s.BlockCacheRejects, t.BlockCacheRejects)
	*t = Tally{}
}

// GroupSizeBuckets sizes the commit-group histogram: bucket i counts
// groups of [2^i, 2^(i+1)) ops, and the last bucket is open-ended.
const GroupSizeBuckets = 11

// ObserveGroup records one commit group of n ops.
func (s *Stats) ObserveGroup(n int) {
	s.BatchCommits.Add(1)
	s.BatchedOps.Add(int64(n))
	b := 0
	for v := n; v > 1 && b < GroupSizeBuckets-1; v >>= 1 {
		b++
	}
	s.GroupSizes[b].Add(1)
}

// Snapshot copies the current counter values. Stats and Snapshot declare
// the same counters in the same order, a histogram as an array of them;
// this walk, and combine's below, are the only code that has to visit
// every one (TestEveryCounterIsCarried checks the two declarations
// against each other, name by name). Neither is on a per-operation path.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	var load func(src, dst reflect.Value)
	load = func(src, dst reflect.Value) {
		if src.Kind() == reflect.Array {
			for j := 0; j < src.Len(); j++ {
				load(src.Index(j), dst.Index(j))
			}
			return
		}
		dst.SetInt(src.Addr().Interface().(*atomic.Int64).Load())
	}
	src, dst := reflect.ValueOf(s).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		load(src.Field(i), dst.Field(i))
	}
	return out
}

// combine returns the snapshot whose every counter is op of s's and t's.
func combine(s, t Snapshot, op func(a, b int64) int64) Snapshot {
	var apply func(sv, tv reflect.Value)
	apply = func(sv, tv reflect.Value) {
		if sv.Kind() == reflect.Array {
			for j := 0; j < sv.Len(); j++ {
				apply(sv.Index(j), tv.Index(j))
			}
			return
		}
		sv.SetInt(op(sv.Int(), tv.Int()))
	}
	sv, tv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(t)
	for i := 0; i < sv.NumField(); i++ {
		apply(sv.Field(i), tv.Field(i))
	}
	return s
}

// Add returns the counter-wise sum s + t. The shard router uses it to
// aggregate per-shard snapshots into one engine-wide view.
func (s Snapshot) Add(t Snapshot) Snapshot {
	return combine(s, t, func(a, b int64) int64 { return a + b })
}

// Sub returns the per-interval delta s - t (counter-wise).
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return combine(s, t, func(a, b int64) int64 { return a - b })
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
