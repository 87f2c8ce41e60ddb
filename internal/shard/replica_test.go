package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/checkpoint"
	"lsmkv/internal/core"
	"lsmkv/internal/vfs"
)

// shardHookRec collects commit-hook deliveries per shard.
type shardHookRec struct {
	mu       sync.Mutex
	firsts   map[int][]uint64
	counts   map[int][]int
	payloads map[int][][]byte
}

func newShardHookRec() *shardHookRec {
	return &shardHookRec{
		firsts:   map[int][]uint64{},
		counts:   map[int][]int{},
		payloads: map[int][][]byte{},
	}
}

func (r *shardHookRec) hook(shard int, firstSeq uint64, count int, payload []byte) {
	p := append([]byte(nil), payload...)
	r.mu.Lock()
	r.firsts[shard] = append(r.firsts[shard], firstSeq)
	r.counts[shard] = append(r.counts[shard], count)
	r.payloads[shard] = append(r.payloads[shard], p)
	r.mu.Unlock()
}

// dumpAll returns every key/value pair in a merged scan.
func dumpAll(t *testing.T, db *DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := db.Scan(nil, nil, func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedCommitStreamReplicates drives a sharded primary, fans its
// tagged commit stream into a sharded follower via ApplyReplicated, and
// compares full content plus watermark vectors.
func TestShardedCommitStreamReplicates(t *testing.T) {
	fs := vfs.NewMem()
	prim := openShards(t, fs, "prim", 3)
	defer prim.Close()
	rec := newShardHookRec()
	prim.SetCommitHook(rec.hook)

	const n = 400
	for i := 0; i < n; i++ {
		if i%9 == 4 {
			if err := prim.Delete(tkey(i % 50)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := prim.Put(tkey(i%50), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A spanning batch commits per shard: each touched shard reports its
	// own hook delivery.
	batch := []core.BatchOp{
		core.PutOp(tkey(1000), tval(1000)),
		core.PutOp(tkey(1001), tval(1001)),
		core.PutOp(tkey(1002), tval(1002)),
	}
	if err := prim.ApplyBatch(batch, true); err != nil {
		t.Fatal(err)
	}
	prim.SetCommitHook(nil)
	if err := prim.Put(tkey(2000), tval(2000)); err != nil { // after detach: not delivered
		t.Fatal(err)
	}

	fol := openShards(t, fs, "fol", 3)
	defer fol.Close()
	rec.mu.Lock()
	for shard, payloads := range rec.payloads {
		// Per-shard streams are contiguous in sequence order.
		for i := 1; i < len(rec.firsts[shard]); i++ {
			want := rec.firsts[shard][i-1] + uint64(rec.counts[shard][i-1])
			if rec.firsts[shard][i] != want {
				t.Fatalf("shard %d commit %d starts at %d, want %d", shard, i, rec.firsts[shard][i], want)
			}
		}
		for _, p := range payloads {
			if _, err := fol.ApplyReplicated(shard, p); err != nil {
				t.Fatalf("apply shard %d: %v", shard, err)
			}
		}
	}
	rec.mu.Unlock()

	pw, fw := prim.LastSeqs(), fol.LastSeqs()
	if len(pw) != 3 || len(fw) != 3 {
		t.Fatalf("watermark vectors: %v, %v", pw, fw)
	}
	primDump := dumpAll(t, prim)
	delete(primDump, string(tkey(2000))) // written after the hook detached
	folDump := dumpAll(t, fol)
	if len(folDump) != len(primDump) {
		t.Fatalf("follower holds %d keys, primary stream carried %d", len(folDump), len(primDump))
	}
	for k, v := range primDump {
		if folDump[k] != v {
			t.Fatalf("follower %q = %q, want %q", k, folDump[k], v)
		}
	}
	if _, err := fol.Get(tkey(2000)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("post-detach write leaked to follower: %v", err)
	}
}

func TestShardIndexValidation(t *testing.T) {
	db := openShards(t, vfs.NewMem(), "db", 2)
	defer db.Close()
	if _, err := db.ApplyReplicated(2, []byte("x")); err == nil {
		t.Fatal("out-of-range shard accepted by ApplyReplicated")
	}
	if _, err := db.ApplyReplicated(-1, []byte("x")); err == nil {
		t.Fatal("negative shard accepted by ApplyReplicated")
	}
	if err := db.WaitForSeq(2, 1, time.Millisecond); err == nil {
		t.Fatal("out-of-range shard accepted by WaitForSeq")
	}
	if _, err := db.snapshotAt([]uint64{0}); err == nil {
		t.Fatal("short seq vector accepted by SnapshotAt")
	}
	if _, err := db.snapshotAt([]uint64{1 << 40, 1 << 40}); err == nil {
		t.Fatal("future seq vector accepted by SnapshotAt")
	}
}

func TestShardedWaitForSeq(t *testing.T) {
	db := openShards(t, vfs.NewMem(), "db", 2)
	defer db.Close()
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	shard := db.ShardOf([]byte("a"))
	seq := db.LastSeqs()[shard]
	if seq == 0 {
		t.Fatal("watermark did not advance")
	}
	// Already satisfied: returns immediately.
	if err := db.WaitForSeq(shard, seq, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Future seq: satisfied by the next write to that shard.
	done := make(chan error, 1)
	go func() { done <- db.WaitForSeq(shard, seq+1, 5*time.Second) }()
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("w%04d", i))
		if db.ShardOf(k) == shard {
			if err := db.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitForSeq not woken by write: %v", err)
	}
}

// TestShardedSnapshotAtPinsVector checks SnapshotAt sees exactly the
// state at the requested per-shard seqs, not later writes.
func TestShardedSnapshotAtPinsVector(t *testing.T) {
	db := openShards(t, vfs.NewMem(), "db", 2)
	defer db.Close()
	for i := 0; i < 50; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	pin := db.LastSeqs()
	snap, err := db.snapshotAt(pin)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for i := 0; i < 50; i++ {
		if err := db.Put(tkey(i), tval2(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Put(tkey(999), tval(999)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v, err := snap.Get(tkey(i))
		if err != nil || !bytes.Equal(v, tval(i)) {
			t.Fatalf("pinned snapshot %d = %q, %v; want original", i, v, err)
		}
	}
	if _, err := snap.Get(tkey(999)); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("post-pin key visible in snapshot: %v", err)
	}
	// MerkleAt pins the same way: 50 entries at the vector, 51 and a
	// different root at the current watermarks (nil).
	atPin, err := db.MerkleAt(16, pin)
	if err != nil {
		t.Fatal(err)
	}
	now, err := db.MerkleAt(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if atPin.Entries != 50 || now.Entries != 51 || atPin.Root == now.Root {
		t.Fatalf("MerkleAt(pin) = %d entries root %s; MerkleAt(nil) = %d entries root %s",
			atPin.Entries, atPin.Root, now.Entries, now.Root)
	}
}

// TestShardedCheckpointOpens checkpoints a 3-shard database under its
// sharded layout and reopens the copy as a database with equal content.
func TestShardedCheckpointOpens(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 3)
	defer db.Close()
	for i := 0; i < 300; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	m, err := db.Checkpoint("ckpts/ck")
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 || len(m.LastSeqs) != 3 || m.Files == 0 {
		t.Fatalf("marker: %+v", m)
	}
	if !checkpoint.IsComplete(fs, "ckpts/ck") {
		t.Fatal("checkpoint not marked complete")
	}
	// Re-checkpointing the same path is refused (it is a completed
	// backup, not a scratch directory).
	if _, err := db.Checkpoint("ckpts/ck"); err == nil {
		t.Fatal("overwrite of a completed checkpoint accepted")
	}

	copyDB, err := Open(testOpts(fs, "ckpts/ck"), 0) // adopt the sharded layout
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	defer copyDB.Close()
	if copyDB.NumShards() != 3 {
		t.Fatalf("checkpoint adopted %d shards, want 3", copyDB.NumShards())
	}
	want := dumpAll(t, db)
	got := dumpAll(t, copyDB)
	if len(got) != len(want) {
		t.Fatalf("checkpoint holds %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("checkpoint %q = %q, want %q", k, got[k], v)
		}
	}

	// A single-shard database checkpoints to the flat classic layout.
	one := openShards(t, fs, "one", 1)
	defer one.Close()
	if err := one.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := one.Checkpoint("ckpts/one"); err != nil {
		t.Fatal(err)
	}
	oneCopy, err := Open(testOpts(fs, "ckpts/one"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer oneCopy.Close()
	if oneCopy.NumShards() != 1 {
		t.Fatalf("flat checkpoint adopted %d shards", oneCopy.NumShards())
	}
	if v, err := oneCopy.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("flat checkpoint get: %q, %v", v, err)
	}
}
