package iostat

import (
	"fmt"
	"strconv"
	"strings"
)

// Run-level trace decisions: what happened when a point lookup considered
// one sorted run.
const (
	// DecisionFenceSkip: no file in the run covers the key (run-level
	// fence pointers pruned the probe before any filter or I/O).
	DecisionFenceSkip = "fence-skip"
	// DecisionSeqSkip: the covering file's entire sequence range is newer
	// than the read snapshot.
	DecisionSeqSkip = "seq-skip"
	// DecisionFilterNegative: the table's point filter proved the key
	// absent (no storage access).
	DecisionFilterNegative = "filter-negative"
	// DecisionProbed: the run survived screening and data blocks were
	// consulted.
	DecisionProbed = "probed"
)

// Filter verdicts recorded per run.
const (
	// FilterNone: the table carries no point filter; the probe was
	// unavoidable.
	FilterNone = "none"
	// FilterMaybe: the filter answered "maybe present".
	FilterMaybe = "maybe"
	// FilterNegativeVerdict: the filter answered "definitely absent".
	FilterNegativeVerdict = "negative"
	// FilterPartitioned: per-block partitioned filters were consulted
	// inside the table (see RunTrace.PartitionNegatives).
	FilterPartitioned = "partitioned"
)

// RunTrace records one sorted run's part in a traced point lookup: the
// screening decision (fences, sequence bounds, filters) and, when the run
// was probed, the block-level work it cost.
type RunTrace struct {
	// Level and Run locate the sorted run (Run counts from the newest,
	// 0, to the oldest within the level).
	Level int `json:"level"`
	Run   int `json:"run"`
	// File is the table file number consulted (0 when fence-skipped).
	File uint64 `json:"file,omitempty"`
	// Decision is one of the Decision* constants.
	Decision string `json:"decision"`
	// Filter is one of the Filter* constants ("" when never consulted).
	Filter string `json:"filter,omitempty"`
	// StartBlock is the fence-pointer landing block ordinal.
	StartBlock int `json:"start_block,omitempty"`
	// LearnedIndex reports that a learned model predicted StartBlock.
	LearnedIndex bool `json:"learned_index,omitempty"`
	// Blocks counts data blocks whose contents were consulted.
	Blocks int `json:"blocks,omitempty"`
	// PartitionNegatives counts per-block filter partitions that screened
	// a block without reading it.
	PartitionNegatives int `json:"partition_negatives,omitempty"`
	// CacheHits/CacheMisses/BlockReads account the probe's block I/O;
	// CacheAdmitted counts the misses the cache then admitted (the rest
	// it took for one-touch traffic and left out).
	CacheHits     int `json:"cache_hits,omitempty"`
	CacheMisses   int `json:"cache_misses,omitempty"`
	CacheAdmitted int `json:"cache_admitted,omitempty"`
	BlockReads    int `json:"block_reads,omitempty"`
	// Found reports the run held the visible version (ends the lookup).
	Found bool `json:"found,omitempty"`
	// FalsePositive reports a probe that read blocks yet found nothing:
	// the filter (or its absence) admitted a superfluous storage access.
	FalsePositive bool `json:"false_positive,omitempty"`
}

// Trace records one point lookup's full path through the engine: buffers,
// then every sorted run considered in probe order with its screening
// decision, and the outcome. Build one with NewTrace and thread it through
// the read path; a nil *Trace disables all recording at the cost of one
// nil check per recording site.
type Trace struct {
	// Key is the looked-up user key (Go-quoted for binary safety).
	Key string `json:"key"`
	// Found and Tombstone describe the outcome; a tombstone lookup is
	// Found=false, Tombstone=true (the deletion was the newest version).
	Found     bool `json:"found"`
	Tombstone bool `json:"tombstone,omitempty"`
	// Value is the result (Go-quoted, truncated to 64 bytes), present
	// only on Found.
	Value string `json:"value,omitempty"`
	// Source names where the visible version was found: "memtable",
	// "immutable-<i>", or "L<level>/run<r>/file<n>".
	Source string `json:"source,omitempty"`
	// MemtableHit / ImmutablesChecked describe the in-memory part.
	MemtableHit       bool `json:"memtable_hit,omitempty"`
	ImmutablesChecked int  `json:"immutables_checked,omitempty"`
	// VlogRead reports the extra value-log hop (key-value separation).
	VlogRead bool `json:"vlog_read,omitempty"`
	// Runs lists every sorted run considered, in probe order.
	Runs []RunTrace `json:"runs"`
	// ElapsedUs is the wall-clock lookup duration.
	ElapsedUs float64 `json:"elapsed_us"`
	// Shard is the shard engine that served the lookup (0 unless the
	// database is sharded; the router stamps it after routing).
	Shard int `json:"shard,omitempty"`
}

// NewTrace starts a trace for a lookup of key.
func NewTrace(key []byte) *Trace {
	return &Trace{Key: strconv.Quote(string(key))}
}

// AddRun appends a run record and returns it for in-place completion.
// Nil-safe (returns nil, which every RunTrace recording site tolerates).
func (t *Trace) AddRun(level, run int) *RunTrace {
	if t == nil {
		return nil
	}
	t.Runs = append(t.Runs, RunTrace{Level: level, Run: run})
	return &t.Runs[len(t.Runs)-1]
}

// SetValue records the (truncated, quoted) result value. Nil-safe.
func (t *Trace) SetValue(v []byte) {
	if t == nil {
		return
	}
	const maxShown = 64
	if len(v) > maxShown {
		t.Value = strconv.Quote(string(v[:maxShown])) + fmt.Sprintf("... (%d bytes)", len(v))
		return
	}
	t.Value = strconv.Quote(string(v))
}

// String renders the trace as a human-readable multi-line report — the
// `lsmctl trace` output.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	outcome := "NOT FOUND"
	if t.Found {
		outcome = "FOUND at " + t.Source
	} else if t.Tombstone {
		outcome = "TOMBSTONE at " + t.Source
	}
	fmt.Fprintf(&b, "trace get %s: %s (%.1fus)\n", t.Key, outcome, t.ElapsedUs)
	mem := "miss"
	if t.MemtableHit {
		mem = "hit"
	}
	fmt.Fprintf(&b, "  memtable: %s\n", mem)
	if t.ImmutablesChecked > 0 {
		fmt.Fprintf(&b, "  immutables checked: %d\n", t.ImmutablesChecked)
	}
	for _, r := range t.Runs {
		fmt.Fprintf(&b, "  L%d/run%d", r.Level, r.Run)
		if r.File != 0 {
			fmt.Fprintf(&b, " file %06d", r.File)
		}
		switch r.Decision {
		case DecisionFenceSkip:
			b.WriteString(": fence skip (no file covers key)")
		case DecisionSeqSkip:
			b.WriteString(": seq skip (file newer than snapshot)")
		case DecisionFilterNegative:
			b.WriteString(": filter negative (skipped)")
		case DecisionProbed:
			fmt.Fprintf(&b, ": filter %s -> probed", r.Filter)
			if r.LearnedIndex {
				fmt.Fprintf(&b, ", learned index -> block %d", r.StartBlock)
			} else {
				fmt.Fprintf(&b, ", fences -> block %d", r.StartBlock)
			}
			fmt.Fprintf(&b, ", %d block(s)", r.Blocks)
			if r.PartitionNegatives > 0 {
				fmt.Fprintf(&b, ", %d partition negative(s)", r.PartitionNegatives)
			}
			fmt.Fprintf(&b, " (%d cache hit, %d miss of which %d admitted, %d read)", r.CacheHits, r.CacheMisses, r.CacheAdmitted, r.BlockReads)
			if r.Found {
				b.WriteString(", FOUND")
			} else if r.FalsePositive {
				b.WriteString(", not here [false positive]")
			} else {
				b.WriteString(", not here")
			}
		default:
			b.WriteString(": " + r.Decision)
		}
		b.WriteByte('\n')
	}
	if t.VlogRead {
		b.WriteString("  value log: 1 extra read (key-value separation)\n")
	}
	if t.Found {
		fmt.Fprintf(&b, "  value: %s\n", t.Value)
	}
	return b.String()
}
