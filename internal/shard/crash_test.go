package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lsmkv/internal/core"
	"lsmkv/internal/crashtest"
	"lsmkv/internal/vfs"
)

// The sharded crash properties, each a crashtest.Case partitioned by the
// router: every shard has its own WAL and flush pipeline, so each shard's
// recovered state must be a prefix of the writes routed to it, covering
// every acknowledged one.

func crashShardOpts(fs vfs.FS, walSync bool) core.Options {
	o := testOpts(fs, "db")
	o.SyncWAL = walSync
	return o
}

// shardCase is a synced crash property over n shards: the image is
// reopened adopting whatever layout it holds, which must be n shards —
// or one, where power failed before Open wrote the layout's marker; the
// history check then finds any acknowledged write that layout lost.
func shardCase(seed int64, n int, opts func(vfs.FS) core.Options, run func(e *crashtest.Env, db *DB)) crashtest.Case {
	return crashtest.Case{Seed: seed, Iters: 15, Tails: crashtest.Alternate,
		Parts: func(key string) int { return Of([]byte(key), n) },
		Reopen: func(img vfs.FS) (crashtest.Store, error) {
			db, err := Open(crashShardOpts(img, false), 0)
			if err != nil {
				return nil, err
			}
			if got := db.NumShards(); got != n && got != 1 {
				db.Close()
				return nil, fmt.Errorf("recovered with %d shards, want %d", got, n)
			}
			return db, nil
		},
		Run: func(e *crashtest.Env) {
			db, err := Open(opts(e.FS), n)
			if err != nil {
				return
			}
			defer db.Close() // ignore errors: the FS may be frozen
			run(e, db)
		},
	}
}

// synced is crashShardOpts with WAL sync on commit.
func synced(fs vfs.FS) core.Options { return crashShardOpts(fs, true) }

// TestShardedCrashRecoverySynced: with WAL sync on commit, every
// acknowledged write survives any crash point on every shard — each
// shard's WAL recovers independently, including with torn tails.
func TestShardedCrashRecoverySynced(t *testing.T) {
	crashtest.Check(t, shardCase(2000, 3, synced, func(e *crashtest.Env, db *DB) {
		for i := range 250 {
			w := e.RandomWrite(i)
			op := e.Issue(w)
			if crashtest.Apply(db, w) != nil {
				return
			}
			e.Ack(op)
		}
	}))
}

// batchKeys builds batch b's key set: unique keys, guaranteed to span at
// least two shards of n so the fan-out path is always exercised.
func batchKeys(b, n int) []string {
	keys := []string{}
	shards := map[int]bool{}
	for c := 0; len(keys) < 6 || len(shards) < 2; c++ {
		k := fmt.Sprintf("b%03d-%02d", b, c)
		keys = append(keys, k)
		shards[Of([]byte(k), n)] = true
		if c > 64 {
			panic("cannot span two shards")
		}
	}
	return keys
}

// TestCrashMidBatchSpanningShards: sequential synced ApplyBatch calls,
// each spanning >= 2 shards with batch-unique keys, crashed at a random
// filesystem operation. After recovery every acknowledged batch is fully
// visible on all its shards, and the in-flight batch is atomic per shard:
// each shard holds all of its sub-batch or none of it (the oracle records
// a batch's part on one shard as one entry).
func TestCrashMidBatchSpanningShards(t *testing.T) {
	crashtest.Check(t, shardCase(3000, 4, synced, func(e *crashtest.Env, db *DB) {
		for b := range 60 {
			var ws []crashtest.Write
			var ops []core.BatchOp
			for _, k := range batchKeys(b, 4) {
				v := fmt.Sprintf("%s#batch%03d", k, b)
				ws = append(ws, crashtest.Put(k, v))
				ops = append(ops, core.PutOp([]byte(k), []byte(v)))
			}
			op := e.Issue(ws...)
			if db.ApplyBatch(ops, true) != nil {
				return
			}
			e.Ack(op)
		}
	}))
}

// TestCrashMidFlushOneShard: with WAL sync on, a crash landing inside one
// shard's flush must lose nothing — that shard's WAL replays the memtable
// and the other shards never notice. The memtable is big enough that
// nothing flushes in the background, so the crash window brackets
// exactly shard 1's explicit flush.
func TestCrashMidFlushOneShard(t *testing.T) {
	opts := func(fs vfs.FS) core.Options {
		o := synced(fs)
		o.MemtableBytes = 1 << 20
		return o
	}
	crashtest.Check(t, shardCase(4000, 3, opts, func(e *crashtest.Env, db *DB) {
		for i := range 150 {
			op := e.Issue(crashtest.Put(string(tkey(i)), string(tval(i))))
			if err := db.Put(tkey(i), tval(i)); err != nil {
				e.Errorf("fill: %v", err)
				return
			}
			e.Ack(op)
		}
		e.WindowStart()
		db.engines[1].Flush() // fails partway in the crash run: the crash point is inside
		e.WindowEnd()
	}))
}

// TestOpenCrashLeavesNoMarkerTemp: power lost at any of a fresh 4-shard
// Open's first 60 filesystem operations — the SHARDS marker's temp file
// written and not yet renamed among them — leaves no SHARDS.tmp once the
// image has been reopened, adopting whatever layout it holds, and closed.
func TestOpenCrashLeavesNoMarkerTemp(t *testing.T) {
	for op := range int64(60) {
		var img vfs.FS
		err := crashtest.Run(crashtest.Case{Seed: 5000 + op,
			Run: func(e *crashtest.Env) {
				e.CrashAt(op + 1)
				if db, err := Open(crashShardOpts(e.FS, false), 4); err == nil {
					db.Close()
				}
			},
			Reopen: func(fs vfs.FS) (crashtest.Store, error) {
				img = fs
				return Open(crashShardOpts(fs, false), 0)
			},
			Check: func(*crashtest.History, map[string]string) error {
				if _, err := img.Stat(filepath.Join("db", markerName+".tmp")); !os.IsNotExist(err) {
					return fmt.Errorf("%s.tmp after a reopen: %v", markerName, err)
				}
				return nil
			},
		}, 0)
		if err != nil {
			t.Fatalf("crash at op %d of Open: %v", op+1, err)
		}
	}
}
