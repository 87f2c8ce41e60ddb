package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
	"lsmkv/internal/vfs"
)

// testOpts returns a tiny engine design (small buffers so a few hundred
// ops exercise flush and compaction) on the given filesystem.
func testOpts(fs vfs.FS, dir string) core.Options {
	o := core.Options{
		Dir: dir, FS: fs, L0CompactionTrigger: 2, BaseBytes: 8 << 10,
		Design: core.Design{MemtableBytes: 4 << 10, SizeRatio: 4, MaxLevels: 4, BlockSize: 512},
	}
	o.DisableCache()
	return o
}

func openShards(t *testing.T, fs vfs.FS, dir string, n int) *DB {
	t.Helper()
	db, err := Open(testOpts(fs, dir), n)
	if err != nil {
		t.Fatalf("Open(%s, %d): %v", dir, n, err)
	}
	return db
}

func tkey(i int) []byte  { return []byte(fmt.Sprintf("key-%05d", i)) }
func tval(i int) []byte  { return []byte(fmt.Sprintf("val-%05d", i)) }
func tval2(i int) []byte { return []byte(fmt.Sprintf("VAL2-%05d", i)) }

func TestShardedCRUDAndReopen(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 4)
	const n = 500
	for i := 0; i < n; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		if err := db.Delete(tkey(i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(db *DB) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, err := db.Get(tkey(i))
			if i%5 == 0 {
				if err != core.ErrNotFound {
					t.Fatalf("key %d: want ErrNotFound, got %q, %v", i, v, err)
				}
				continue
			}
			if err != nil || string(v) != string(tval(i)) {
				t.Fatalf("key %d: got %q, %v", i, v, err)
			}
		}
	}
	check(db)
	if got := db.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Reopen with an explicit matching count, then with 0 (adopt).
	db = openShards(t, fs, "db", 4)
	check(db)
	db.Close()
	db = openShards(t, fs, "db", 0)
	if got := db.NumShards(); got != 4 {
		t.Fatalf("adopted NumShards = %d, want 4", got)
	}
	check(db)
	db.Close()
}

func TestKeysLandOnRoutedShardOnly(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 3)
	defer db.Close()
	for i := 0; i < 300; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every key must be visible in exactly the shard ShardOf names and in
	// no other shard engine.
	for i := 0; i < 300; i++ {
		owner := db.ShardOf(tkey(i))
		for s := 0; s < db.NumShards(); s++ {
			_, err := db.engines[s].Get(tkey(i))
			if s == owner && err != nil {
				t.Fatalf("key %d missing from owner shard %d: %v", i, owner, err)
			}
			if s != owner && err != core.ErrNotFound {
				t.Fatalf("key %d leaked into shard %d (owner %d): %v", i, s, owner, err)
			}
		}
	}
}

func TestSingleShardLayoutIsClassic(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 1)
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if name == markerName || strings.HasPrefix(name, dirPrefix) {
			t.Fatalf("single-shard layout polluted: %v", names)
		}
	}
	// And a plain core engine can open it directly.
	eng, err := core.Open(testOpts(fs, "db"))
	if err != nil {
		t.Fatalf("core.Open on 1-shard layout: %v", err)
	}
	if v, err := eng.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("core read-back: %q, %v", v, err)
	}
	eng.Close()
}

func TestMigrationSingleToN(t *testing.T) {
	fs := vfs.NewMem()
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	opts := testOpts(fs, "db")
	opts.Clock = now.Load
	// Build a classic single-engine database with flushed tables, live
	// overwrites, deletions, and keys that expire within the minute.
	db, err := Open(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n, ttls = 400, 20
	for i := n; i < n+ttls; i++ {
		if err := db.PutTTL(tkey(i), tval(i), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		if err := db.Put(tkey(i), tval2(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if err := db.Delete(tkey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen sharded: one-shot migration. A TTL key keeps its deadline:
	// live until it, gone after.
	if db, err = Open(opts, 4); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+ttls; i++ {
		if v, err := db.Get(tkey(i)); err != nil || string(v) != string(tval(i)) {
			t.Fatalf("TTL key %d before its deadline: %q, %v", i, v, err)
		}
	}
	now.Add(int64(time.Hour))
	for i := n; i < n+ttls; i++ {
		if v, err := db.Get(tkey(i)); err != core.ErrNotFound {
			t.Fatalf("TTL key %d an hour past its deadline: %q, %v", i, v, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := db.Get(tkey(i))
		switch {
		case i%7 == 0:
			if err != core.ErrNotFound {
				t.Fatalf("deleted key %d resurrected: %q, %v", i, v, err)
			}
		case i%3 == 0:
			if err != nil || string(v) != string(tval2(i)) {
				t.Fatalf("key %d: got %q, %v, want overwrite", i, v, err)
			}
		default:
			if err != nil || string(v) != string(tval(i)) {
				t.Fatalf("key %d: got %q, %v", i, v, err)
			}
		}
	}
	// Root engine files must be gone; marker and shard dirs present.
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	sawMarker, sawShard := false, false
	for _, name := range names {
		if isEngineFile(name) {
			t.Fatalf("stale root engine file %q after migration (%v)", name, names)
		}
		sawMarker = sawMarker || name == markerName
		sawShard = sawShard || strings.HasPrefix(name, dirPrefix)
	}
	if !sawMarker || !sawShard {
		t.Fatalf("migrated layout incomplete: %v", names)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Adopting reopen and writes keep working post-migration.
	db = openShards(t, fs, "db", 0)
	if db.NumShards() != 4 {
		t.Fatalf("NumShards after migration = %d", db.NumShards())
	}
	if err := db.Put(tkey(1), []byte("post-migration")); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get(tkey(1)); string(v) != "post-migration" {
		t.Fatalf("post-migration write lost: %q", v)
	}
	db.Close()
}

func TestReshardRejected(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 3)
	db.Put([]byte("k"), []byte("v"))
	db.Close()
	if _, err := Open(testOpts(fs, "db"), 5); err == nil {
		t.Fatal("resharding 3 -> 5 was accepted")
	}
	if _, err := Open(testOpts(fs, "db"), 1); err == nil {
		t.Fatal("resharding 3 -> 1 was accepted")
	}
	// The rejection must not have damaged the database.
	db = openShards(t, fs, "db", 0)
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("database damaged by rejected reshard: %q, %v", v, err)
	}
	db.Close()
}

func TestMalformedMarkerRejected(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("db")
	if err := vfs.WriteFile(fs, filepath.Join("db", markerName), []byte("garbage\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testOpts(fs, "db"), 0); err == nil {
		t.Fatal("malformed marker accepted")
	}
}

func TestOpenArgumentErrors(t *testing.T) {
	if _, err := Open(testOpts(vfs.NewMem(), "db"), -1); err == nil {
		t.Fatal("negative shard count accepted")
	}
	o := testOpts(vfs.NewMem(), "")
	if _, err := Open(o, 2); err == nil {
		t.Fatal("empty Dir accepted")
	}
}

func TestBatchSplitsAndAppliesPerShard(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 4)
	defer db.Close()
	var ops []core.BatchOp
	for i := 0; i < 100; i++ {
		ops = append(ops, core.PutOp(tkey(i), tval(i)))
	}
	ops = append(ops, core.DeleteOp(tkey(0)))
	if err := db.ApplyBatch(ops, true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(tkey(0)); err != core.ErrNotFound {
		t.Fatalf("delete op in batch lost: %v", err)
	}
	for i := 1; i < 100; i++ {
		if v, err := db.Get(tkey(i)); err != nil || string(v) != string(tval(i)) {
			t.Fatalf("batched key %d: %q, %v", i, v, err)
		}
	}
	if err := db.ApplyBatch(nil, false); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestAggregateStatsEventsLevels(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOpts(fs, "db")
	db, err := Open(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 600
	for i := 0; i < n; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Get(tkey(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Scan([]byte("key-"), []byte("key-~"), func(k, v []byte) bool { return true })

	agg := db.Stats()
	per := db.ShardStats()
	if len(per) != 3 {
		t.Fatalf("ShardStats len %d", len(per))
	}
	var sumLookups, sumFlushes int64
	for _, s := range per {
		sumLookups += s.PointLookups
		sumFlushes += s.Flushes
	}
	if agg.PointLookups != sumLookups || agg.PointLookups != n {
		t.Fatalf("aggregate lookups %d, per-shard sum %d, want %d", agg.PointLookups, sumLookups, int64(n))
	}
	if agg.Flushes != sumFlushes || agg.Flushes < 3 {
		t.Fatalf("aggregate flushes %d (sum %d): every shard should have flushed", agg.Flushes, sumFlushes)
	}

	// Latencies come from one shared histogram set: the counts are
	// database-wide, not per-shard.
	lat := db.Latencies()
	if lat["get"].Count != n {
		t.Fatalf("aggregate get count %d, want %d", lat["get"].Count, n)
	}
	if lat["put"].Count != n {
		t.Fatalf("aggregate put count %d, want %d", lat["put"].Count, n)
	}

	// Events carry their shard tag and arrive time-ordered.
	evs := db.Events()
	if len(evs) == 0 {
		t.Fatal("no events after flushes")
	}
	shardsSeen := map[int]bool{}
	for i, e := range evs {
		shardsSeen[e.Shard] = true
		if i > 0 && e.Time.Before(evs[i-1].Time) {
			t.Fatalf("events out of time order at %d", i)
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("events from only %d shard(s): %v", len(shardsSeen), shardsSeen)
	}

	// Levels aggregate across shards; the debug rendering names shards.
	var totalFiles int
	for _, li := range db.Levels() {
		totalFiles += li.Files
	}
	if totalFiles == 0 {
		t.Fatal("no files in aggregated Levels after flush")
	}
	if db.TotalRuns() == 0 {
		t.Fatal("TotalRuns 0 after flush")
	}
	if db.IndexMemory() == 0 {
		t.Fatal("IndexMemory 0 after flush")
	}
	if ds := db.DebugString(); !strings.Contains(ds, "shard 0:") {
		t.Fatalf("DebugString lacks shard sections:\n%s", ds)
	}
}

func TestSharedLatencyHandlePassthrough(t *testing.T) {
	lat := &iostat.OpLatencies{}
	opts := testOpts(vfs.NewMem(), "db")
	opts.Latencies = lat
	db, err := Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		db.Put(tkey(i), tval(i))
	}
	if lat.Summaries()["put"].Count != 10 {
		t.Fatalf("caller-supplied OpLatencies not shared: %+v", lat.Summaries())
	}
}

func TestGetTracedStampsShard(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 4)
	defer db.Close()
	for i := 0; i < 50; i++ {
		db.Put(tkey(i), tval(i))
	}
	for i := 0; i < 50; i++ {
		_, tr, err := db.GetTraced(tkey(i))
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || tr.Shard != db.ShardOf(tkey(i)) {
			t.Fatalf("trace shard %v, want %d", tr, db.ShardOf(tkey(i)))
		}
	}
}

func TestValueLogGCFansOut(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOpts(fs, "db")
	opts.ValueSeparation = true
	opts.ValueThreshold = 32
	opts.VlogSegmentBytes = 4 << 10
	db, err := Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	big := strings.Repeat("v", 128)
	for i := 0; i < 200; i++ {
		if err := db.Put(tkey(i), []byte(big)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite everything so old segments are mostly garbage.
	for i := 0; i < 200; i++ {
		if err := db.Put(tkey(i), []byte(strings.Repeat("w", 128))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatalf("vlog GC across shards: %v", err)
	}
}

// TestMigrationCrashBeforeMarkerRestarts: a 1-to-N migration that fails
// before its marker is written leaves the source engine intact, and the
// next open clears the partial shard directories and migrates again.
// It injects its fault itself instead of using the crashtest oracle,
// which cannot state this property: it is about the migration marker
// and a restart with a different shard count, not about a history.
func TestMigrationCrashBeforeMarkerRestarts(t *testing.T) {
	mem := vfs.NewMem()
	db := openShards(t, mem, "db", 1)
	const n = 200
	for i := 0; i < n; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Fail the migration before its commit point by rejecting the marker
	// temp-file creation; the source engine must remain intact.
	faulty := vfs.NewFaulty(mem)
	faulty.Inject(vfs.Rule{Op: vfs.OpCreate, Path: markerName, Repeat: true})
	if _, err := Open(testOpts(faulty, "db"), 4); err == nil {
		t.Fatal("migration succeeded despite marker-write fault")
	}
	if got, err := readMarker(mem, "db"); err != nil || got != 0 {
		t.Fatalf("marker present after failed migration: %d, %v", got, err)
	}

	// Retry without the fault: the partial shard directories from the
	// failed attempt must be cleared, not double-applied.
	db = openShards(t, mem, "db", 4)
	defer db.Close()
	for i := 0; i < n; i++ {
		if v, err := db.Get(tkey(i)); err != nil || string(v) != string(tval(i)) {
			t.Fatalf("key %d after restarted migration: %q, %v", i, v, err)
		}
	}
	count := 0
	if err := db.Scan(nil, nil, func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("restarted migration left %d keys, want %d (duplicates or loss)", count, n)
	}
}

// TestSweepAfterMarkerCrash: stale root engine files beside a sharded
// database, as a crash between the migration marker and the root sweep
// leaves them, are swept at the next open, and the marker is kept. Like
// TestMigrationCrashBeforeMarkerRestarts it plants the crash's leftovers
// itself: the crashtest oracle cannot state a property of the marker.
func TestSweepAfterMarkerCrash(t *testing.T) {
	// Simulate a crash after the marker write but before the root sweep:
	// plant stale root engine files beside a sharded database.
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 2)
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, filepath.Join("db", "000042.sst"), []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, filepath.Join("db", "MANIFEST"), []byte("stale")); err != nil {
		t.Fatal(err)
	}
	db = openShards(t, fs, "db", 0)
	defer db.Close()
	if v, err := db.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("read after sweep: %q, %v", v, err)
	}
	names, err := fs.List("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if isEngineFile(name) {
			t.Fatalf("stale root file %q survived the sweep", name)
		}
	}
	if _, err := fs.Stat(filepath.Join("db", markerName)); err != nil {
		t.Fatalf("marker swept by mistake: %v", err)
	}
}

func TestShardDirNaming(t *testing.T) {
	if got := ShardDir("db", 3); got != filepath.Join("db", "shard-3") {
		t.Fatalf("ShardDir = %q", got)
	}
	if _, err := os.Stat("/nonexistent-path-for-compile-use"); err == nil {
		t.Fatal("impossible")
	}
}
