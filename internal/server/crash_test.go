package server_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/crashtest"
	"lsmkv/internal/server"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// TestNetworkCrashRecovery runs the full serving stack over a disk that
// loses power at a seeded point while the clients write: pipelined
// clients write unique keys through the server, some as one-op batches,
// and every write a client saw acknowledged must survive on the crash
// image (the oracle's per-key window check) — the end-to-end version of
// the engine-level durability property, covering the commit groups'
// sync-before-ack ordering. A run in which no crash image held an
// acknowledged write proves nothing and fails.
func TestNetworkCrashRecovery(t *testing.T) {
	const writers, perWriter = 8, 150
	opts := func(fs vfs.FS) core.Options {
		return core.Options{Dir: "db", FS: fs,
			Design: core.Design{MemtableBytes: 64 << 10}} // small enough that the run crosses flushes
	}
	acked := 0 // acknowledged writes, summed over the crash runs
	// About one crash point in a hundred lands before the first commit
	// group's sync completes; three iterations make a run with no
	// acknowledged write a one-in-a-million event.
	crashtest.Check(t, crashtest.Case{Seed: 1, Iters: 3,
		Check: func(h *crashtest.History, got map[string]string) error {
			acked += h.Acked()
			return h.Window(got)
		},
		Reopen: func(img vfs.FS) (crashtest.Store, error) {
			db, err := shard.Open(opts(img), 0)
			if err != nil {
				return nil, err
			}
			return db, nil
		},
		Run: func(e *crashtest.Env) {
			db, err := shard.Open(opts(e.FS), 1)
			if err != nil {
				return
			}
			defer db.Close() // errors expected: the disk is gone
			srv, err := server.New(server.Config{DB: db, SyncWrites: true})
			if err != nil {
				e.Errorf("server: %v", err)
				return
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				e.Errorf("listen: %v", err)
				return
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(ln) }()
			for srv.Addr() == "" {
				time.Sleep(time.Millisecond)
			}
			e.WindowStart() // the crash lands while the clients write
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl, err := client.Dial(srv.Addr(), nil)
					if err != nil {
						return
					}
					defer cl.Close()
					for i := range perWriter {
						key := fmt.Sprintf("net-w%02d-%06d", w, i)
						val := key + "#val"
						op := e.Issue(crashtest.Put(key, val))
						if i%10 == 9 { // the batch path too
							err = cl.Batch([]client.Op{client.PutOp([]byte(key), []byte(val))})
						} else {
							err = cl.Put([]byte(key), []byte(val))
						}
						if err != nil {
							return
						}
						e.Ack(op)
					}
				}()
			}
			wg.Wait()
			e.WindowEnd()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-serveDone
		},
	})
	if acked == 0 {
		t.Fatal("no write acknowledged before any crash; the test proves nothing")
	}
}
