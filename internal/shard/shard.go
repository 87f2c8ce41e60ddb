// Package shard implements keyspace sharding: a DB that routes operations
// across N independent core engines, each owning its own WAL, memtable,
// level 0, manifest, and compaction claim space. Sharding multiplies the
// engine's serial bottlenecks — the single WAL appender, the single
// memtable mutex, the single flush worker — by partitioning the keyspace
// with a stable hash (see Of), at the cost of scans having to merge N
// ordered streams and of batch atomicity holding per shard rather than
// globally.
//
// On disk a sharded database is a directory holding a SHARDS marker file
// and one engine directory per shard (shard-0 ... shard-N-1). A
// single-shard database (the default) is byte-for-byte the classic
// single-engine layout with no marker, so Shards=1 databases are fully
// interchangeable with databases created before sharding existed. The
// layout is all the shard count decides: every method runs the same
// routing, merging and aggregating code at one shard as at N. Opening
// an existing single-engine database with Shards=N>1 performs a one-shot
// migration that streams every live key into the new shard engines; the
// durable SHARDS marker is the commit point, so a crash mid-migration
// restarts it from the untouched single-engine files. Changing the shard
// count of an already-sharded database is not supported.
package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
	"lsmkv/internal/tuner"
	"lsmkv/internal/vfs"
)

const (
	// markerName is the root-directory file recording the shard count.
	// Its presence is what makes a directory a sharded database.
	markerName = "SHARDS"
	// markerMagic guards against misreading an unrelated file.
	markerMagic = "lsmkv-shards-v1"
	// dirPrefix names per-shard engine directories: shard-0, shard-1, ...
	dirPrefix = "shard-"
)

// DB routes operations across n independent core engines. Point
// operations go to the shard owning the key; scans merge all shards;
// batches are split into per-shard sub-batches applied in parallel. It is
// safe for concurrent use. The public lsmkv.DB embeds it, so the doc
// comments on its methods are the public API's.
type DB struct {
	dir     string
	fs      vfs.FS
	n       int
	engines []*core.DB
	// lat is the latency histogram set every shard engine records into
	// (handed down as Options.Latencies), so aggregate quantiles come out
	// of one set of histograms.
	lat *iostat.OpLatencies

	mu     sync.Mutex
	closed bool
	// tuners holds the per-shard online tuners while StartTuning is
	// active (see tune.go); nil otherwise.
	tuners []*tuner.Tuner
}

// Open opens (creating if necessary) a database at opts.Dir with the
// given shard count. shards semantics:
//
//   - 0 adopts the database's existing shard count (1 for a fresh or
//     classic single-engine directory) — what servers should pass so
//     restarts never depend on matching a flag to the data.
//   - 1 is the classic single-engine layout, byte-for-byte.
//   - N>1 opens or creates N engines under shard-<i>/ subdirectories,
//     migrating a classic single-engine database in place first.
//
// Opening an already-sharded database with a different non-zero count
// fails: resharding is not supported.
func Open(opts core.Options, shards int) (*DB, error) {
	if shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", shards)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("shard: Options.Dir is required")
	}
	fs := opts.FS
	if fs == nil {
		fs = vfs.Default
	}
	opts.FS = fs
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	// A marker write that lost power before its rename leaves its temp
	// file; every open clears it, whatever layout it goes on to open.
	if err := fs.Remove(filepath.Join(opts.Dir, markerName+".tmp")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	recorded, err := readMarker(fs, opts.Dir)
	if err != nil {
		return nil, err
	}
	n := shards
	if recorded > 0 {
		if n == 0 {
			n = recorded
		}
		if n != recorded {
			return nil, fmt.Errorf("shard: database at %s has %d shards; resharding to %d is not supported",
				opts.Dir, recorded, n)
		}
	} else {
		if n == 0 {
			n = 1
		}
		if n > 1 {
			single, err := hasEngineFiles(fs, opts.Dir)
			if err != nil {
				return nil, err
			}
			if single {
				if err := migrate(opts, fs, n); err != nil {
					return nil, fmt.Errorf("shard: migrating %s to %d shards: %w", opts.Dir, n, err)
				}
			} else if err := writeMarker(fs, opts.Dir, n); err != nil {
				return nil, err
			}
		}
	}

	db := &DB{dir: opts.Dir, fs: fs, n: n, lat: opts.Latencies}
	if db.lat == nil {
		db.lat = &iostat.OpLatencies{}
	}
	if n > 1 {
		// Layout: a crash between the migration's marker write and its
		// root-file sweep leaves stale single-engine files beside the
		// marker; clear them now. (With one shard the root files are the
		// engine.)
		if err := sweepRootEngineFiles(fs, opts.Dir); err != nil {
			return nil, err
		}
	}
	db.engines = make([]*core.DB, n)
	for i := range db.engines {
		eng, err := core.Open(db.shardOpts(opts, i))
		if err != nil {
			for _, prev := range db.engines[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		db.engines[i] = eng
	}
	return db, nil
}

// shardOpts derives shard i's engine options from the caller's: same
// design point and the shared latency histograms. Only where the engine
// lives depends on the shard count: a lone engine sits in the database
// root — byte-for-byte the classic single-engine layout — while each of
// several gets its own shard-i/ directory and a log prefix saying which
// one is talking.
func (db *DB) shardOpts(base core.Options, i int) core.Options {
	o := base
	o.FS = db.fs
	o.Latencies = db.lat
	if db.n > 1 {
		o.Dir = ShardDir(base.Dir, i)
		if logf := base.Logf; logf != nil {
			o.Logf = func(format string, args ...any) {
				logf("shard %d: "+format, append([]any{i}, args...)...)
			}
		}
	}
	return o
}

// ShardDir returns the directory shard i of a database rooted at dir
// lives in.
func ShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%d", dirPrefix, i))
}

// NumShards returns the open database's shard count (1 unless sharding
// was configured).
func (db *DB) NumShards() int { return db.n }

// ShardOf returns the index of the shard that owns key.
func (db *DB) ShardOf(key []byte) int { return Of(key, db.n) }

// Get returns the newest value of key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) { return db.GetAppend(key, nil) }

// GetTraced is Get with a read-path trace, stamped with the shard that
// served it. The trace is returned even on ErrNotFound — absent keys are
// the interesting case for diagnosing read amplification. Tracing
// allocates; use it for diagnostics, not hot paths.
func (db *DB) GetTraced(key []byte) ([]byte, *iostat.Trace, error) {
	i := Of(key, db.n)
	v, tr, err := db.engines[i].GetTraced(key)
	if tr != nil {
		tr.Shard = i
	}
	return v, tr, err
}

// GetAppend is Get with the value appended to dst (which may be nil)
// instead of freshly allocated, returning the extended slice; on any
// error, ErrNotFound included, dst comes back unchanged. Reusing one dst
// buffer across lookups makes the steady-state (cache-hit) read path
// allocation-free; see DESIGN.md "Read path allocations".
func (db *DB) GetAppend(key, dst []byte) ([]byte, error) {
	return db.engines[Of(key, db.n)].GetAppend(key, dst)
}

// MultiGet looks up every key and returns values aligned with keys; a
// nil entry with a nil error means that key was absent, and a present
// empty value is a non-nil empty slice. Each engine serves its keys as
// one batch walk (core.DB.MultiGet): one pinned view, each run walked
// once in key order, the batch's work counted once. Keys that all live
// on one shard — every call on a 1-shard database, and any call on a
// sharded one that happens to — are that engine's batch, run on the
// caller's goroutine; otherwise they are grouped by owning shard and the
// per-shard batches run in parallel. Duplicate keys are looked up once
// per occurrence. The MULTIGET wire opcode maps directly onto this.
func (db *DB) MultiGet(keys [][]byte) ([][]byte, error) {
	vals, _, err := db.multiGet(keys, false)
	return vals, err
}

// MultiGetTraced is MultiGet with one read-path trace per key (absent
// keys included — the interesting case), each stamped with the serving
// shard; a trace's ElapsedUs is the key's share of its engine's batch.
// Tracing allocates; use it for diagnostics.
func (db *DB) MultiGetTraced(keys [][]byte) ([][]byte, []*iostat.Trace, error) {
	return db.multiGet(keys, true)
}

// multiGet runs one engine batch per shard the keys route to and lays
// the answers out in the caller's order.
func (db *DB) multiGet(keys [][]byte, traced bool) ([][]byte, []*iostat.Trace, error) {
	if s, ok := SoleShard(db.n, len(keys), func(i int) []byte { return keys[i] }); ok {
		return db.batch(s, keys, traced)
	}
	idxs := make([][]int, db.n)
	for i, k := range keys {
		s := Of(k, db.n)
		idxs[s] = append(idxs[s], i)
	}
	vals := make([][]byte, len(keys))
	var trs []*iostat.Trace
	if traced {
		trs = make([]*iostat.Trace, len(keys))
	}
	return vals, trs, fanOut(db.n, func(s int) error {
		if len(idxs[s]) == 0 {
			return nil
		}
		sub := make([][]byte, len(idxs[s]))
		for j, i := range idxs[s] {
			sub[j] = keys[i]
		}
		v, tr, err := db.batch(s, sub, traced)
		for j, i := range idxs[s] {
			vals[i] = v[j]
			if traced {
				trs[i] = tr[j]
			}
		}
		return err
	})
}

// batch is shard s's engine batch over keys, its traces stamped with s.
func (db *DB) batch(s int, keys [][]byte, traced bool) ([][]byte, []*iostat.Trace, error) {
	if !traced {
		vals, err := db.engines[s].MultiGet(keys)
		return vals, nil, err
	}
	vals, trs, err := db.engines[s].MultiGetTraced(keys)
	for _, tr := range trs {
		tr.Shard = s
	}
	return vals, trs, err
}

// SoleShard reports the one shard every key of a call routes to, when
// there is one: always on a 1-shard database, and on a sharded one
// whenever the input happens to. Such a call runs on the caller's
// goroutine against that engine, with no per-shard slices built.
func SoleShard(n, count int, keyAt func(i int) []byte) (int, bool) {
	if count == 0 {
		return 0, true
	}
	s := Of(keyAt(0), n)
	for i := 1; i < count; i++ {
		if Of(keyAt(i), n) != s {
			return 0, false
		}
	}
	return s, true
}

// fanOut runs work(i) concurrently for every i in [0, n) and returns the
// first error any of them reported.
func fanOut(n int, work func(i int) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := work(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Put stores key -> value, overwriting any previous version.
func (db *DB) Put(key, value []byte) error {
	return db.engines[Of(key, db.n)].Put(key, value)
}

// PutTTL stores key -> value with a time-to-live: after ttl elapses the
// key reads as absent (Get returns ErrNotFound, scans skip it) and the
// bottommost compaction that next touches it reclaims the space. See
// TUNING.md "Expiring keys" for the lazy-vs-compaction reclamation
// model.
func (db *DB) PutTTL(key, value []byte, ttl time.Duration) error {
	return db.engines[Of(key, db.n)].PutTTL(key, value, ttl)
}

// Incr atomically adds delta to the 8-byte little-endian counter at key
// and returns the new value. An absent key starts at zero, so the first
// Incr of a counter returns delta. A value of any other width fails
// with ErrNotCounter. Counters are ordinary values: Get returns the
// 8-byte encoding, and Put can seed or reset one.
func (db *DB) Incr(key []byte, delta int64) (int64, error) {
	return db.engines[Of(key, db.n)].Incr(key, delta)
}

// CompareAndSwap atomically replaces key's value with newValue if the
// current value equals expected; a nil expected asserts the key is
// absent. On mismatch it returns ErrCASMismatch and changes nothing.
func (db *DB) CompareAndSwap(key, expected, newValue []byte) error {
	return db.engines[Of(key, db.n)].CompareAndSwap(key, expected, newValue)
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	return db.engines[Of(key, db.n)].Delete(key)
}

// ApplyBatch splits ops by owning shard and applies the sub-batches in
// parallel, preserving the caller's op order within each shard; a batch
// whose ops all live on one shard is applied as it stands. Each
// sub-batch is atomic per shard (one WAL record per shard) and, when
// syncWAL is true, fsynced before ApplyBatch returns; a batch spanning
// shards is NOT atomic across them — a crash can persist some shards'
// sub-batches and not others'. It is Submit and Wait.
func (db *DB) ApplyBatch(ops []core.BatchOp, syncWAL bool) error {
	w := db.Submit(ops, syncWAL)
	return w.Wait()
}

// Write is a write submitted to the commit queues of the shards it
// touches, one part per shard. Wait for it exactly once.
type Write struct {
	one   Part   // the part of a write on one shard
	parts []Part // the parts of a write spanning shards
}

// Part is one shard's share of a Write: after Wait, Seq is that shard's
// watermark once the part committed, its read-your-writes coordinate.
type Part struct {
	Shard int
	Seq   uint64
	w     *core.Write
}

// Submit queues ops on their shards' commit queues and returns without
// waiting: ops that all land on one shard — every write on a 1-shard
// database — are queued as they stand, and a write spanning shards is
// split into per-shard sub-batches. Each shard commits its part in
// Submit order, within a group with whatever else is queued there (see
// core.DB.Submit). ops must not change until Wait returns.
func (db *DB) Submit(ops []core.BatchOp, syncWAL bool) Write {
	if s, ok := SoleShard(db.n, len(ops), func(i int) []byte { return ops[i].Key }); ok {
		return Write{one: Part{Shard: s, w: db.engines[s].Submit(ops, syncWAL)}}
	}
	var w Write
	for s, sub := range SplitBatch(ops, db.n) {
		if len(sub) > 0 {
			w.parts = append(w.parts, Part{Shard: s, w: db.engines[s].Submit(sub, syncWAL)})
		}
	}
	return w
}

// Wait waits for every part, the shards concurrently, and returns the
// first error any part met.
func (w *Write) Wait() error {
	if w.parts == nil {
		var err error
		w.one.Seq, err = w.one.w.Wait()
		return err
	}
	parts := w.parts // captured instead of w, so ApplyBatch's Write stays on its stack
	return fanOut(len(parts), func(i int) error {
		var err error
		parts[i].Seq, err = parts[i].w.Wait()
		return err
	})
}

// Parts returns the write's per-shard parts, in shard order.
func (w *Write) Parts() []Part {
	if w.parts == nil {
		return []Part{w.one}
	}
	return w.parts
}

// SplitBatch partitions ops into n per-shard sub-batches, preserving
// relative order within each.
func SplitBatch(ops []core.BatchOp, n int) [][]core.BatchOp {
	subs := make([][]core.BatchOp, n)
	for _, op := range ops {
		i := Of(op.Key, n)
		subs[i] = append(subs[i], op)
	}
	return subs
}

// Flush forces every shard's write buffer to storage (level 0).
func (db *DB) Flush() error {
	for _, eng := range db.engines {
		if err := eng.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Compact blocks until no shard has flush or compaction work left.
func (db *DB) Compact() error {
	for _, eng := range db.engines {
		if err := eng.WaitIdle(); err != nil {
			return err
		}
	}
	return nil
}

// RunValueLogGC runs one value-log GC attempt per shard (key-value
// separation only), reporting whether any shard reclaimed a segment.
func (db *DB) RunValueLogGC() (bool, error) {
	any := false
	for _, eng := range db.engines {
		collected, err := eng.RunValueLogGC()
		if err != nil {
			return any, err
		}
		any = any || collected
	}
	return any, nil
}

// Close flushes and shuts down every shard engine; the first error wins
// but all engines are closed regardless.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	tuners := db.tuners
	db.tuners = nil
	db.mu.Unlock()
	for _, t := range tuners {
		t.Stop()
	}
	var firstErr error
	for _, eng := range db.engines {
		if err := eng.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats returns a snapshot of the aggregate I/O counters: the per-shard
// counters summed.
func (db *DB) Stats() iostat.Snapshot {
	agg := db.engines[0].Stats()
	for _, eng := range db.engines[1:] {
		agg = agg.Add(eng.Stats())
	}
	return agg
}

// ShardStats returns each shard's own I/O counter snapshot, indexed by
// shard.
func (db *DB) ShardStats() []iostat.Snapshot {
	out := make([]iostat.Snapshot, len(db.engines))
	for i, eng := range db.engines {
		out[i] = eng.Stats()
	}
	return out
}

// Latencies returns per-operation latency summaries keyed "get", "put",
// "delete", "scan", "batch", plus "stall" for write-stall episodes;
// zero-count histograms are omitted. All shards record into one shared histogram set, so these are true
// aggregate quantiles, not an average of per-shard quantiles. Each key
// of a MultiGet is one "get" observation of its share of its shard's
// batch: the batch's time over its size.
func (db *DB) Latencies() map[string]iostat.LatencySummary { return db.lat.Summaries() }

// Events returns the retained engine lifecycle events, oldest first:
// every shard's ring merged into one time-ordered stream, each event
// tagged with its shard.
func (db *DB) Events() []iostat.Event {
	var all []iostat.Event
	for i, eng := range db.engines {
		evs := eng.Events()
		for j := range evs {
			evs[j].Shard = i
		}
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Time.Before(all[b].Time) })
	return all
}

// Levels returns the per-level structure summed across shards: Runs at
// level L is the total number of sorted runs any scan of the whole
// database merges at that depth.
func (db *DB) Levels() []core.LevelInfo {
	var out []core.LevelInfo
	for _, eng := range db.engines {
		for _, li := range eng.Levels() {
			for len(out) <= li.Level {
				out = append(out, core.LevelInfo{Level: len(out)})
			}
			o := &out[li.Level]
			o.Runs += li.Runs
			o.Files += li.Files
			o.Bytes += li.Bytes
			o.Entries += li.Entries
			o.Tombstones += li.Tombstones
		}
	}
	return out
}

// TotalRuns returns the total sorted-run count across all shards: what a
// worst-case point lookup probes, summed over the keyspace.
func (db *DB) TotalRuns() int {
	n := 0
	for _, li := range db.Levels() {
		n += li.Runs
	}
	return n
}

// IndexMemory returns the resident bytes of pinned fences, filters, and
// learned models across all shards.
func (db *DB) IndexMemory() int {
	total := 0
	for _, eng := range db.engines {
		total += eng.IndexMemory()
	}
	return total
}

// DebugString renders the tree shape; a sharded database gets one
// indented section per shard under a "shard i:" header.
func (db *DB) DebugString() string {
	var b strings.Builder
	for i, eng := range db.engines {
		tree := renderTree(eng.Levels())
		if db.n > 1 { // output format only
			tree = fmt.Sprintf("shard %d:\n  %s\n", i,
				strings.ReplaceAll(strings.TrimRight(tree, "\n"), "\n", "\n  "))
		}
		b.WriteString(tree)
	}
	return b.String()
}

// renderTree renders one engine's levels, a line per level that holds a
// run.
func renderTree(levels []core.LevelInfo) string {
	var b strings.Builder
	for _, li := range levels {
		if li.Runs == 0 {
			continue
		}
		fmt.Fprintf(&b, "L%d: %d runs, %d files, %.2f MiB\n",
			li.Level, li.Runs, li.Files, float64(li.Bytes)/(1<<20))
	}
	if b.Len() == 0 {
		return "(empty tree)\n"
	}
	return b.String()
}

// ---- Layout detection, marker, migration ----

// readMarker returns the shard count recorded at dir, or 0 when dir is
// not a sharded database.
func readMarker(fs vfs.FS, dir string) (int, error) {
	data, err := vfs.ReadFile(fs, filepath.Join(dir, markerName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != markerMagic {
		return 0, fmt.Errorf("shard: malformed %s marker in %s: %q", markerName, dir, data)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 2 {
		return 0, fmt.Errorf("shard: malformed %s marker in %s: %q", markerName, dir, data)
	}
	return n, nil
}

// writeMarker durably records the shard count: temp file, sync, rename —
// the marker's appearance is the migration commit point, so it must not
// be torn.
func writeMarker(fs vfs.FS, dir string, n int) error {
	return vfs.WriteFileAtomic(fs, filepath.Join(dir, markerName), fmt.Appendf(nil, "%s %d\n", markerMagic, n))
}

// isEngineFile reports whether name is a file the single-engine layout
// places in the database root.
func isEngineFile(name string) bool {
	if name == "MANIFEST" || strings.HasPrefix(name, "MANIFEST.") {
		return true
	}
	switch {
	case strings.HasSuffix(name, ".sst"), strings.HasSuffix(name, ".wal"), strings.HasSuffix(name, ".vlog"):
		return true
	}
	return false
}

// hasEngineFiles reports whether dir holds classic single-engine data
// that would need migrating before sharding.
func hasEngineFiles(fs vfs.FS, dir string) (bool, error) {
	names, err := fs.List(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	for _, name := range names {
		if isEngineFile(name) {
			return true, nil
		}
	}
	return false, nil
}

// sweepRootEngineFiles removes stale single-engine files from a sharded
// database's root (left behind if a crash hit between the migration's
// marker write and its cleanup).
func sweepRootEngineFiles(fs vfs.FS, dir string) error {
	names, err := fs.List(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if isEngineFile(name) {
			if err := fs.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// migrationBatchOps bounds the per-shard batch size the migration
// accumulates before applying.
const migrationBatchOps = 512

// migrate converts a classic single-engine database at opts.Dir into n
// shards: stream every live key out of the old engine into fresh shard
// engines, durably write the SHARDS marker (the commit point), then sweep
// the old engine's files. A crash before the marker leaves the old engine
// untouched (partial shard directories are cleared and the migration
// restarts); a crash after it leaves stale root files that every sharded
// open sweeps.
func migrate(opts core.Options, fs vfs.FS, n int) error {
	// Clear leftovers from a previously interrupted migration.
	for i := 0; i < n; i++ {
		if err := vfs.RemoveTree(fs, ShardDir(opts.Dir, i)); err != nil {
			return err
		}
	}

	src, err := core.Open(opts)
	if err != nil {
		return err
	}
	defer src.Close()

	// The shard engines live only for the copy: no WAL (a crash restarts
	// the migration from the source engine anyway; durability comes from
	// the flush-on-close).
	engines := make([]*core.DB, n)
	defer func() {
		for _, eng := range engines {
			if eng != nil {
				eng.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		o := opts
		o.Dir = ShardDir(opts.Dir, i)
		o.FS = fs
		o.DisableWAL = true
		engines[i], err = core.Open(o)
		if err != nil {
			return err
		}
	}

	sc, err := src.NewScanner(nil, nil)
	if err != nil {
		return err
	}
	defer sc.Close()
	pending := make([][]core.BatchOp, n)
	flush := func(i int) error {
		if len(pending[i]) == 0 {
			return nil
		}
		err := engines[i].ApplyBatch(pending[i], false)
		pending[i] = pending[i][:0]
		return err
	}
	for sc.Next() {
		i := Of(sc.Key(), n)
		key, value := append([]byte(nil), sc.Key()...), append([]byte(nil), sc.Value()...)
		op := core.PutOp(key, value)
		if exp := sc.Expiry(); exp != 0 { // a TTL key keeps its deadline
			op = core.PutTTLOp(key, value, exp)
		}
		pending[i] = append(pending[i], op)
		if len(pending[i]) >= migrationBatchOps {
			if err := flush(i); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := flush(i); err != nil {
			return err
		}
	}
	// Clean close flushes each shard's memtable into durable tables.
	for i, eng := range engines {
		engines[i] = nil
		if err := eng.Close(); err != nil {
			return err
		}
	}
	if err := sc.Close(); err != nil {
		return err
	}
	if err := src.Close(); err != nil {
		return err
	}

	// Commit point: from here on the directory IS a sharded database.
	if err := writeMarker(fs, opts.Dir, n); err != nil {
		return err
	}
	return sweepRootEngineFiles(fs, opts.Dir)
}
