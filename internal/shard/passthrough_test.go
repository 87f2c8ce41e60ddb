package shard

import (
	"strings"
	"testing"

	"lsmkv/internal/core"
	"lsmkv/internal/vfs"
)

// TestSingleShardPassthroughs: a 1-shard database runs the same routing,
// merging and aggregating code as an N-shard one, and every accessor
// must still answer exactly as the lone engine would (shard 0 everywhere,
// no "shard 0:" sections, one ShardStats entry, latencies recorded once).
func TestSingleShardPassthroughs(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOpts(fs, "db")
	db, err := Open(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 300; i++ {
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
	if db.ShardOf(tkey(0)) != 0 {
		t.Fatal("single shard routed elsewhere")
	}
	if _, tr, err := db.GetTraced(tkey(1)); err != nil || tr == nil || tr.Shard != 0 {
		t.Fatalf("GetTraced passthrough: %v, %+v", err, tr)
	}
	if got := db.Latencies(); got["put"].Count == 0 {
		t.Fatalf("Latencies passthrough empty: %+v", got)
	}
	for i := 0; i < 2; i++ {
		if err := db.Scan(nil, nil, func(k, v []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Latencies()["scan"].Count; got != 2 {
		t.Fatalf("2 scans recorded %d scan latencies", got)
	}
	if evs := db.Events(); len(evs) == 0 {
		t.Fatal("Events passthrough empty after flush")
	}
	if ds := db.DebugString(); strings.Contains(ds, "shard 0:") {
		t.Fatalf("single-shard DebugString grew shard sections:\n%s", ds)
	}
	if len(db.Levels()) == 0 || db.TotalRuns() == 0 {
		t.Fatal("Levels/TotalRuns passthrough empty after flush")
	}
	if len(db.ShardStats()) != 1 {
		t.Fatal("ShardStats on single shard")
	}
	if _, err := db.RunValueLogGC(); err != nil {
		t.Fatal(err)
	}
	// Snapshot passthrough with early termination.
	snap := db.NewSnapshot()
	seen := 0
	if err := snap.Scan(nil, nil, func(k, v []byte) bool { seen++; return seen < 5 }); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("snapshot early stop saw %d", seen)
	}
	if _, err := snap.Get(tkey(2)); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	snap.Release() // idempotent

	subs := SplitBatch([]core.BatchOp{core.PutOp([]byte("a"), []byte("b"))}, 1)
	if len(subs) != 1 || len(subs[0]) != 1 {
		t.Fatalf("SplitBatch n=1: %v", subs)
	}
}

// TestShardLogfPrefix: a caller-supplied logger receives per-shard lines
// prefixed with the shard that emitted them.
func TestShardLogfPrefix(t *testing.T) {
	var lines []string
	opts := testOpts(vfs.NewMem(), "db")
	opts.Logf = func(format string, args ...any) {
		lines = append(lines, format)
	}
	db, err := Open(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		db.Put(tkey(i), tval(i))
	}
	db.Flush()
	db.Compact()
	db.Close()
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "shard ") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no shard-prefixed log lines in %d lines", len(lines))
	}
}

// TestOperationsAfterClose: the merged read paths surface the engine's
// closed error instead of panicking.
func TestOperationsAfterClose(t *testing.T) {
	db := openShards(t, vfs.NewMem(), "db", 3)
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.newScanner(nil, nil); err == nil {
		t.Fatal("NewScanner on closed DB succeeded")
	}
	if err := db.Scan(nil, nil, func(k, v []byte) bool { return true }); err == nil {
		t.Fatal("Scan on closed DB succeeded")
	}
	if err := db.Flush(); err == nil {
		t.Fatal("Flush on closed DB succeeded")
	}
}

// TestFreshShardedCreateFaults: failures while recording the marker for a
// brand-new sharded database must surface, not create a half-layout that
// later opens as single-engine.
func TestFreshShardedCreateFaults(t *testing.T) {
	for _, op := range []vfs.Op{vfs.OpCreate, vfs.OpSync, vfs.OpRename} {
		mem := vfs.NewMem()
		fs := vfs.NewFaulty(mem)
		fs.Inject(vfs.Rule{Op: op, Path: markerName, Repeat: true})
		if _, err := Open(testOpts(fs, "db"), 4); err == nil {
			t.Fatalf("fresh sharded create survived injected %v on marker", op)
		}
		// Without the fault the same directory opens cleanly at 4 shards.
		db, err := Open(testOpts(mem, "db"), 4)
		if err != nil {
			t.Fatalf("reopen after failed create (%v): %v", op, err)
		}
		db.Close()
	}
}

// TestSnapshotMergedEarlyStop: the merged snapshot scan honors fn=false
// across shards (heap torn down mid-merge, all sub-scanners released).
func TestSnapshotMergedEarlyStop(t *testing.T) {
	db := openShards(t, vfs.NewMem(), "db", 3)
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put(tkey(i), tval(i))
	}
	snap := db.NewSnapshot()
	defer snap.Release()
	seen := 0
	if err := snap.Scan(nil, nil, func(k, v []byte) bool { seen++; return seen < 7 }); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("merged snapshot early stop saw %d", seen)
	}
	// Scanner form, stepping past the end.
	sc, err := snap.newScanner(tkey(98), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sc.Next() {
		n++
	}
	if sc.Next() {
		t.Fatal("Next after exhaustion returned true")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("tail scan saw %d keys, want 2", n)
	}
}
