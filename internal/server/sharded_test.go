package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
	"lsmkv/internal/server"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// TestShardedServerEndToEnd drives the full network path against a
// 3-shard engine: point writes route to their shards' commit queues, BATCH
// frames split across shards and acknowledge only when every sub-batch
// commits, scans merge the shards back into one ordered stream, and the
// STATS payload carries the per-shard counter breakdown.
func TestShardedServerEndToEnd(t *testing.T) {
	srv, db := startServer(t, vfs.NewMem(), 3, nil)
	cl := dialTest(t, srv, nil)

	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("e2e-%04d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("val-%04d", i)) }

	// Point writes land on all three shards.
	for i := 0; i < n/2; i++ {
		if err := cl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The rest through BATCH frames spanning shards.
	var ops []client.Op
	for i := n / 2; i < n; i++ {
		ops = append(ops, core.PutOp(key(i), val(i)))
		if len(ops) == 32 {
			if err := cl.Batch(ops); err != nil {
				t.Fatal(err)
			}
			ops = nil
		}
	}
	if len(ops) > 0 {
		if err := cl.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	touched := map[int]bool{}
	for i := 0; i < n; i++ {
		touched[db.ShardOf(key(i))] = true
	}
	if len(touched) != 3 {
		t.Fatalf("workload touched %d shards, want 3", len(touched))
	}

	// Reads and deletes round-trip.
	for i := 0; i < n; i++ {
		v, err := cl.Get(key(i))
		if err != nil || string(v) != string(val(i)) {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	if err := cl.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(key(0)); err != client.ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}

	// A paginated scan sees the merged, ordered keyspace.
	var got []string
	var prev string
	err := cl.Scan([]byte("e2e-"), []byte("e2e-~"), func(k, v []byte) bool {
		if prev != "" && string(k) <= prev {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = string(k)
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-1 {
		t.Fatalf("scan saw %d keys, want %d", len(got), n-1)
	}

	// STATS carries the per-shard breakdown, and the shard counters sum
	// to the aggregate.
	body, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Engine       iostat.Snapshot   `json:"engine"`
		EngineShards []iostat.Snapshot `json:"engine_shards"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.EngineShards) != 3 {
		t.Fatalf("engine_shards has %d entries, want 3: %s", len(payload.EngineShards), body)
	}
	var sumWAL int64
	for _, s := range payload.EngineShards {
		sumWAL += s.WALRecords
	}
	if sumWAL == 0 || sumWAL != payload.Engine.WALRecords {
		t.Fatalf("per-shard WAL records sum %d, aggregate %d", sumWAL, payload.Engine.WALRecords)
	}
}

// TestShardedBatchAtomicPerShard: a BATCH whose ops span shards is split
// into per-shard sub-batches; the client sees one acknowledgment and
// every op is visible afterward (the ack waits for all sub-commits).
func TestShardedBatchAtomicPerShard(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 3, nil)
	cl := dialTest(t, srv, nil)

	var ops []client.Op
	for i := 0; i < 100; i++ {
		ops = append(ops, core.PutOp([]byte(fmt.Sprintf("span-%03d", i)), []byte("v")))
	}
	ops = append(ops, core.DeleteOp([]byte("span-000")))
	if err := cl.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("span-000")); err != client.ErrNotFound {
		t.Fatalf("trailing delete in spanning batch lost: %v", err)
	}
	for i := 1; i < 100; i++ {
		if _, err := cl.Get([]byte(fmt.Sprintf("span-%03d", i))); err != nil {
			t.Fatalf("op %d of acknowledged spanning batch missing: %v", i, err)
		}
	}
}

// TestBatchOnOneShardIsOneWALRecord: a multi-op BATCH whose ops all land
// on one shard is submitted whole to that shard and commits as one
// WAL record — every BATCH at one shard, and at three shards one whose
// keys were picked to share a shard.
func TestBatchOnOneShardIsOneWALRecord(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, db := startServer(t, vfs.NewMem(), shards, nil)
			cl := dialTest(t, srv, nil)
			var ops []client.Op
			for i := 0; len(ops) < 20; i++ {
				if k := []byte(fmt.Sprintf("one-%04d", i)); db.ShardOf(k) == 0 {
					ops = append(ops, core.PutOp(k, []byte("v")))
				}
			}
			before := db.Stats().WALRecords
			if err := cl.Batch(ops); err != nil {
				t.Fatal(err)
			}
			if got := db.Stats().WALRecords - before; got != 1 {
				t.Fatalf("%d-op batch on one shard wrote %d WAL records, want 1", len(ops), got)
			}
			for _, op := range ops {
				if _, err := cl.Get(op.Key); err != nil {
					t.Fatalf("get %q after batch: %v", op.Key, err)
				}
			}
		})
	}
}

// TestShardedShutdownNoGoroutineLeak: shutting the server down while
// fan-out SCANs are in flight, then closing the sharded DB, returns the
// process to its baseline goroutine count — commit groups, the merged
// scan path, and per-shard background workers all drain.
func TestShardedShutdownNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db, err := shard.Open(core.Options{Dir: "db", FS: vfs.NewMem()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}

	// Seed enough keys that scans take multiple pages.
	cl, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ops []client.Op
	for i := 0; i < 2000; i++ {
		ops = append(ops, core.PutOp([]byte(fmt.Sprintf("leak-%05d", i)), []byte("v")))
	}
	if err := cl.Batch(ops); err != nil {
		t.Fatal(err)
	}

	// In-flight fan-out scans racing the shutdown.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scl, err := client.Dial(srv.Addr(), nil)
			if err != nil {
				return
			}
			defer scl.Close()
			for i := 0; i < 50; i++ {
				// Errors are expected once the drain begins.
				if err := scl.Scan([]byte("leak-"), []byte("leak-~"), func(k, v []byte) bool {
					return true
				}); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the scans get going

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-serveDone
	wg.Wait()
	cl.Close()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Goroutines wind down asynchronously; poll with a deadline. Allow a
	// small slack for runtime/testing helpers that outlive the server.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after shutdown: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// keysOnShards returns, for each shard of db in order, a distinct key
// that routes to it, tagged with tag.
func keysOnShards(db *shard.DB, tag string) [][]byte {
	keys := make([][]byte, db.NumShards())
	for i, found := 0, 0; found < len(keys); i++ {
		k := []byte(fmt.Sprintf("%s-%d", tag, i))
		if s := db.ShardOf(k); keys[s] == nil {
			keys[s], found = k, found+1
		}
	}
	return keys
}

// TestCrossShardBatchesNeverDeadlock: two pipelined connections keep
// many cross-shard BATCHes in flight, one connection's with its ops in
// shard order and the other's in the opposite order, on a synced 3-shard
// server. Writes commit only when some waiter leads its shard's queue,
// and every waiter may lead the whole queue, so acks that wait on the
// shards in opposite orders cannot block each other: every ack arrives.
func TestCrossShardBatchesNeverDeadlock(t *testing.T) {
	srv, db := startServer(t, slowSyncFS{FS: vfs.NewMem(), delay: 200 * time.Microsecond}, 3, nil)
	const callers, rounds = 8, 40
	done := make(chan error, 2*callers)
	for c, reverse := range []bool{false, true} {
		cl := dialTest(t, srv, nil)
		for g := 0; g < callers; g++ {
			go func() {
				for r := 0; r < rounds; r++ {
					keys := keysOnShards(db, fmt.Sprintf("c%d-g%d-r%d", c, g, r))
					if reverse {
						slices.Reverse(keys)
					}
					var ops []client.Op
					for _, k := range keys {
						ops = append(ops, core.PutOp(k, k))
					}
					if err := cl.Batch(ops); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
		}
	}
	deadline := time.After(60 * time.Second)
	for i := 0; i < 2*callers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("%d of %d callers still wait for a BATCH ack", 2*callers-i, 2*callers)
		}
	}
}

// overlapFS charges every Sync of a file it created a fixed delay and
// records the most Syncs it ever saw in flight at once.
type overlapFS struct {
	vfs.FS
	delay    time.Duration
	inflight atomic.Int32
	peak     atomic.Int32
}

type overlapFile struct {
	vfs.File
	fs *overlapFS
}

func (o *overlapFS) Create(name string) (vfs.File, error) {
	f, err := o.FS.Create(name)
	return overlapFile{f, o}, err
}

func (f overlapFile) Sync() error {
	n := f.fs.inflight.Add(1)
	defer f.fs.inflight.Add(-1)
	for p := f.fs.peak.Load(); n > p && !f.fs.peak.CompareAndSwap(p, n); p = f.fs.peak.Load() {
	}
	time.Sleep(f.fs.delay)
	return f.File.Sync()
}

// TestCrossShardBatchSyncsShardsInParallel: one synced BATCH spanning
// three shards waits for its shards concurrently, so each shard's WAL
// fsync runs beside the others' instead of after them.
func TestCrossShardBatchSyncsShardsInParallel(t *testing.T) {
	fs := &overlapFS{FS: vfs.NewMem(), delay: 20 * time.Millisecond}
	srv, db := startServer(t, fs, 3, nil)
	cl := dialTest(t, srv, nil)
	var ops []client.Op
	for _, k := range keysOnShards(db, "parallel") {
		ops = append(ops, core.PutOp(k, k))
	}
	fs.peak.Store(0)
	before := db.Stats().WALSyncs
	if err := cl.Batch(ops); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().WALSyncs - before; got != 3 {
		t.Fatalf("a BATCH over 3 shards paid %d WAL fsyncs, want 3", got)
	}
	if peak := fs.peak.Load(); peak < 2 {
		t.Fatalf("at most %d of the BATCH's shard fsyncs ran at once, want them to overlap", peak)
	}
}
