package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmkv"
	"lsmkv/internal/checkpoint"
	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/replica"
	"lsmkv/internal/server"
)

// serveEngine starts a server for cfg on a loopback listener and returns
// it with an explicit shutdown func (no t.Cleanup: the test asserts on
// goroutine counts after an ordered teardown).
func serveEngine(t *testing.T, cfg server.Config) (*server.Server, func()) {
	t.Helper()
	srv, err := server.New(cfg)
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
	return srv, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}
}

// TestReplicationE2E is the acceptance path: a primary under concurrent
// writes takes an online CHECKPOINT; a follower bootstraps from it,
// streams the WAL, serves read-your-writes GETSEQ, and proves zero
// divergence by Merkle comparison. Acked-but-unshipped writes are absent
// from the follower only until the stream resumes — never torn.
func TestReplicationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replication test")
	}
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()

	primDir := t.TempDir()
	ckptRoot := t.TempDir() // dedicated checkpoint root (sweepable)

	prim, err := lsmkv.Open(primDir, &lsmkv.Options{Shards: 2, SyncWAL: false})
	if err != nil {
		t.Fatal(err)
	}
	primary := replica.NewPrimary(replica.PrimaryConfig{
		Shards:            prim.NumShards(),
		LastSeqs:          prim.LastSeqs,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	prim.SetCommitHook(func(shard int, firstSeq uint64, count int, payload []byte) {
		primary.OnCommit(shard, firstSeq, count, payload)
	})
	primSrv, stopPrimSrv := serveEngine(t, server.Config{
		DB: prim, SyncWrites: true,
		Repl:          primary,
		CheckpointDir: ckptRoot,
		Logf:          t.Logf,
	})

	cl, err := client.Dial(primSrv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Seed some history, then checkpoint while a background writer keeps
	// committing — the backup must not require pausing writes.
	for i := 0; i < 300; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("seed%05d", i)), []byte(fmt.Sprintf("sv%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	writerStop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		wcl, err := client.Dial(primSrv.Addr(), nil)
		if err != nil {
			t.Error(err)
			return
		}
		defer wcl.Close()
		for i := 0; ; i++ {
			select {
			case <-writerStop:
				return
			default:
			}
			if err := wcl.Put([]byte(fmt.Sprintf("bg%06d", i)), []byte(fmt.Sprintf("bv%d", i))); err != nil {
				t.Errorf("background write: %v", err)
				return
			}
		}
	}()

	markerJSON, err := cl.Checkpoint("boot")
	if err != nil {
		t.Fatal(err)
	}
	var marker checkpoint.Marker
	if err := json.Unmarshal(markerJSON, &marker); err != nil {
		t.Fatalf("marker %q: %v", markerJSON, err)
	}
	if marker.Shards != 2 || marker.Files == 0 {
		t.Fatalf("checkpoint marker: %+v", marker)
	}

	// Let more writes land after the checkpoint, then quiesce.
	time.Sleep(100 * time.Millisecond)
	close(writerStop)
	writerWG.Wait()

	// Bootstrap the follower from the checkpoint directory: it opens as a
	// normal database at the marker's watermark, then streams the rest.
	fol, err := lsmkv.Open(filepath.Join(ckptRoot, "boot"), nil)
	if err != nil {
		t.Fatalf("follower bootstrap from checkpoint: %v", err)
	}
	if got := fol.LastSeqs(); len(got) != 2 {
		t.Fatalf("follower adopted %d shards, want 2", len(got))
	}
	follower := client.NewFollower(client.FollowerConfig{
		Addr:         primSrv.Addr(),
		DB:           fol,
		RetryBackoff: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	follower.Start()
	folSrv, stopFolSrv := serveEngine(t, server.Config{
		DB: fol, SyncWrites: true,
		Follower: follower.Status,
		Logf:     t.Logf,
	})
	folCl, err := client.Dial(folSrv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Read-your-writes: the primary's write ack carries a sequence
	// coordinate; GETSEQ on the follower waits for it, then serves.
	acks, err := cl.PutSeq([]byte("ryw-key"), []byte("ryw-value"))
	if err != nil {
		t.Fatal(err)
	}
	if len(acks) != 1 || acks[0].Seq == 0 {
		t.Fatalf("write acks: %+v", acks)
	}
	v, err := folCl.GetAtSeq([]byte("ryw-key"), acks[0].Seq)
	if err != nil || string(v) != "ryw-value" {
		t.Fatalf("read-your-writes on follower: %q, %v", v, err)
	}

	// Zero divergence: the follower's Merkle tree at the primary's exact
	// sequence vector has an identical root.
	primTree, err := cl.Merkle(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	folTree, err := folCl.Merkle(primTree.Buckets, primTree.Seqs)
	if err != nil {
		t.Fatal(err)
	}
	if primTree.Root != folTree.Root {
		diff, _ := replica.DiffBuckets(primTree, folTree)
		t.Fatalf("replica diverged in %d buckets (entries %d vs %d)", len(diff), primTree.Entries, folTree.Entries)
	}
	if primTree.Entries == 0 {
		t.Fatal("merkle compared empty trees")
	}

	// The follower rejects direct writes.
	if err := folCl.Put([]byte("x"), []byte("y")); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted a write: %v", err)
	}

	// engine_seq and replication status surface in STATS on both sides.
	var primStats, folStats struct {
		EngineSeqs  []uint64        `json:"engine_seq"`
		Replication json.RawMessage `json:"replication"`
		ReplPrimary json.RawMessage `json:"repl_primary"`
	}
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &primStats); err != nil {
		t.Fatal(err)
	}
	if len(primStats.EngineSeqs) != 2 || primStats.ReplPrimary == nil {
		t.Fatalf("primary stats missing replication fields: %s", raw)
	}
	raw, err = folCl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &folStats); err != nil {
		t.Fatal(err)
	}
	if len(folStats.EngineSeqs) != 2 || folStats.Replication == nil {
		t.Fatalf("follower stats missing replication fields: %s", raw)
	}

	// Acked-but-unshipped: with the stream stopped, a new primary write is
	// acknowledged but absent on the follower — absent, not torn.
	follower.Stop()
	acks2, err := cl.BatchSeq([]client.Op{
		core.PutOp([]byte("unshipped-a"), []byte("ua")),
		core.PutOp([]byte("unshipped-b"), []byte("ub")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(acks2) == 0 {
		t.Fatalf("batch acks: %+v", acks2)
	}
	if _, err := folCl.Get([]byte("unshipped-a")); err != client.ErrNotFound {
		t.Fatalf("unshipped write visible on follower: %v", err)
	}

	// Resuming the stream converges the follower; nothing is lost.
	follower2 := client.NewFollower(client.FollowerConfig{
		Addr:         primSrv.Addr(),
		DB:           fol,
		RetryBackoff: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	follower2.Start()
	if err := follower2.WaitCaughtUp(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"unshipped-a": "ua", "unshipped-b": "ub"} {
		v, err := folCl.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("after resume, follower %s = %q, %v", k, v, err)
		}
	}

	// Ordered teardown, then the goroutine-leak assertion.
	cl.Close()
	folCl.Close()
	follower2.Stop()
	stopFolSrv()
	stopPrimSrv()
	primary.Close()
	prim.SetCommitHook(nil)
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseGoroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d at start, %d after teardown\n%s",
				baseGoroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
