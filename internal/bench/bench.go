// Package bench is the one place the experiments catalogued in DESIGN.md
// (E1–E19, one per tutorial claim) are defined. Each experiment builds
// engines in temporary directories, drives them with the workload
// generators, and returns its result as tables of typed cells, in the
// units the tutorial's claims are stated in — expected I/Os per
// operation, write amplification, hit rates, bits/key, nanoseconds per
// probe. cmd/lsmbench renders the tables; the package's tests run every
// experiment and assert on the numbers.
package bench

import (
	"fmt"
	"io"
	"os"
	"strings"

	"lsmkv"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Small finishes the full suite in a few minutes on a laptop.
	Small Scale = iota
	// Full uses 10x the data for smoother numbers.
	Full
	// tiny shrinks the engine-backed experiments (key counts, probe
	// counts, timed windows) until all nineteen fit in a test run. Its
	// tables have the right shape and say nothing about the claims, so
	// ParseScale does not accept it.
	tiny
)

// ParseScale maps a flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "small":
		return Small, nil
	case "full":
		return Full, nil
	default:
		return Small, fmt.Errorf("bench: unknown scale %q", s)
	}
}

func (s Scale) factor() int {
	if s == Full {
		return 10
	}
	return 1
}

// Experiment is one runnable experiment. Run returns the experiment's
// tables, or the first error the engine (or the experiment's own
// correctness guard) reported; a failed measurement is never a row.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(scale Scale) ([]*Table, error)
}

// Registry lists every experiment in order.
func Registry() []Experiment {
	return []Experiment{
		{"E1", "Read vs write tradeoff across size ratio T",
			"Greedier merging (leveling, larger T) lowers read I/O and raises write amplification; tiering is the opposite.", E1},
		{"E2", "Data layouts: leveled vs tiered vs lazy-leveled",
			"Tiering ingests fastest but probes the most runs; lazy leveling sits between; leveling reads best.", E2},
		{"E3", "Bloom filters and Monkey allocation",
			"Filters bound zero-result lookup I/O by bits/key; Monkey allocation beats uniform at equal memory.", E3},
		{"E4", "Range filters: prefix vs SuRF vs Rosetta vs SNARF",
			"Range filters cut superfluous I/O for empty ranges; Rosetta is strongest on short ranges, SuRF on longer ones, prefix only within one prefix.", E4},
		{"E5", "Block cache and compaction invalidation",
			"Bigger caches raise hit rates; compactions invalidate cached blocks; Leaper-style prefetch restores the hit rate.", E5},
		{"E6", "Fence pointers vs learned indexes",
			"Learned models answer fence lookups with less memory and comparable or better CPU than binary search.", E6},
		{"E7", "Memory allocation: buffer vs filters",
			"Splitting one memory budget between buffer and filters has an interior optimum (Monkey's second result).", E7},
		{"E8", "Key-value separation (WiscKey)",
			"Separating large values slashes write amplification at the cost of one extra read hop.", E8},
		{"E9", "Partial-compaction file picking policies",
			"Min-overlap picking writes less than round-robin; tombstone-driven picking reclaims deletes fastest.", E9},
		{"E10", "Robust tuning under workload uncertainty",
			"Tuning for the worst case near the expected workload loses little at the expectation and wins under drift.", E10},
		{"E11", "Point-filter implementations (the filter zoo)",
			"Blocked Bloom trades FPR for single-cache-line probes; ribbon is smaller at equal FPR; cuckoo supports deletes.", E11},
		{"E12", "Shared hash computation across filter probes",
			"Computing the key digest once and deriving every filter probe from it removes per-run hashing CPU.", E12},
		{"E13", "Compaction throttling and foreground-latency stability",
			"Pacing compaction output flattens the client-visible read-latency tail during ingest (the SILK/throttling stability result); writer stalls move the other way.", E13},
		{"E14", "Concurrent compaction workers, write stalls and group commit",
			"Splitting background work across a pool of compaction workers keeps L0 drained while deep merges run: total write-stall time and the Put p999 tail drop versus a single worker. Concurrent synced Puts share WAL fsyncs: 64 writers ingest at least 3x as fast as one.", E14},
		{"E15", "Keyspace sharding and aggregate write throughput",
			"Sharding the keyspace across independent engines divides a saturating ingest across per-shard WALs, memtables, and compaction claim spaces: backpressure disengages and aggregate write throughput at 4 shards is at least 2x the single engine's.", E15},
		{"E16", "Replication and online backup",
			"An online CHECKPOINT hard-links sstables, so its wall time tracks the file count rather than the data size and writes never pause; a follower applying the shipped WAL over TCP through the recovery path holds bounded sequence lag under a saturating ingest while serving reads.", E16},
		{"E17", "Online self-tuning across a workload shift",
			"When a write-heavy workload flips to read-heavy mid-run, the online tuner walks a write-tuned engine across the leveling/tiering continuum and recovers at least 80% of the best static configuration's post-shift read throughput (point lookups plus short scans), while the frozen write-tuned engine does not; every knob move is auditable in the event log.", E17},
		{"E18", "Zero-allocation read hot path and batched wire reads",
			"Pooled decode scratch and append-style reads take the warm point lookup to zero allocations (the learned-index paths included); batching point reads into MULTIGET frames beats sequential GET round trips by at least 2x at batch 64; a full-range scan streams as frames on one request.", E18},
		{"E19", "YCSB core mixes and TTL reclamation",
			"Over one engine configuration the YCSB mixes rank C >= B >= D >= A >= F in throughput — each added update steals WAL+memtable time from reads and F pays a read before every write; expiring keys serve until their deadline, read as absent immediately after it, and the bytes return only at the next bottommost compaction (footprint shrinks, ExpiredDrops > 0).", E19},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table is one result table. Cells keep their types — float64, integer,
// bool, or a string for a label or a ratio the row derives from its own
// number cells — so a test can read the numbers a renderer prints.
// Caption and Note are the free text printed above and below the rows.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]any
	Note    string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// Row appends a row.
func (t *Table) Row(vals ...any) { t.Rows = append(t.Rows, vals) }

// closeInto closes c into *err: a Close that fails is the result unless
// an earlier error already is.
func closeInto(c io.Closer, err *error) {
	if cerr := c.Close(); *err == nil {
		*err = cerr
	}
}

// withDir runs body in a scratch directory, removed on every path.
func withDir(body func(dir string) error) (err error) {
	dir, err := os.MkdirTemp("", "lsmbench-*")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	return body(dir)
}

// openAt runs body against the store at dir, closed on every path.
func openAt(dir string, opts *lsmkv.Options, body func(db *lsmkv.DB) error) (err error) {
	db, err := lsmkv.Open(dir, opts)
	if err != nil {
		return err
	}
	defer closeInto(db, &err)
	return body(db)
}

// cell runs one sweep cell — scratch directory, Open, body, Close,
// remove — and returns the first error any of them reported. Every
// engine an experiment measures is opened here (or, for a store that
// must live at a given path, by withDir and openAt, its two halves).
// The small memtable is what lets modest key counts build real
// multi-level trees; a cell that sweeps the buffer sets its own.
func (cfg engineConfig) cell(opts *lsmkv.Options, body func(db *lsmkv.DB) error) error {
	if opts.MemtableBytes == 0 {
		opts.MemtableBytes = cfg.memtable
	}
	return withDir(func(dir string) error { return openAt(dir, opts, body) })
}
