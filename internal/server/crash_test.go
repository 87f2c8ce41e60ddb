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
	"lsmkv/internal/server"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// TestNetworkCrashRecovery runs the full serving stack over the faulty
// filesystem: pipelined clients write through the server while the disk
// dies underneath it mid-write. Every write a client saw acknowledged
// must survive on the crash image — the end-to-end version of the
// engine-level durability property, now covering the commit groups'
// sync-before-ack ordering.
func TestNetworkCrashRecovery(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewFaulty(mem)

	opts := core.Options{
		Dir: "db", FS: fs,
		Design: core.Design{MemtableBytes: 64 << 10}, // small enough that the run crosses flushes
	}
	db, err := shard.Open(opts, 1)
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

	// Writers hammer the server with unique key/value pairs, recording
	// exactly which writes were acknowledged. Once the disk crashes every
	// subsequent commit fails and the writers stop.
	const writers = 8
	var (
		ackMu sync.Mutex
		acked = map[string]string{}
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr(), nil)
			if err != nil {
				return
			}
			defer cl.Close()
			for i := 0; ; i++ {
				key := fmt.Sprintf("net-w%02d-%06d", w, i)
				val := fmt.Sprintf("%s#val", key)
				var err error
				if i%10 == 9 {
					// Exercise the batch path too.
					err = cl.Batch([]client.Op{client.PutOp([]byte(key), []byte(val))})
				} else {
					err = cl.Put([]byte(key), []byte(val))
				}
				if err != nil {
					return
				}
				ackMu.Lock()
				acked[key] = val
				ackMu.Unlock()
			}
		}(w)
	}

	time.Sleep(75 * time.Millisecond) // let writes accumulate across a flush or two
	fs.CrashNow()
	wg.Wait()

	// Tear the server down; errors are expected (the disk is gone).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	<-serveDone
	db.Close()

	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes acknowledged before the crash; test proves nothing")
	}

	// Reopen on the image a power loss would leave (synced data only).
	img := mem.CrashImage(nil)
	rdb, err := core.Open(core.Options{Dir: "db", FS: img, Design: core.Design{MemtableBytes: 64 << 10}})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer rdb.Close()

	missing := 0
	for key, want := range acked {
		got, err := rdb.Get([]byte(key))
		if err != nil || string(got) != want {
			missing++
			if missing <= 5 {
				t.Errorf("acked write lost: %s = %q, %v (want %q)", key, got, err, want)
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged writes missing after crash+reopen", missing, len(acked))
	}
	t.Logf("crash after %d acknowledged writes (%d fs ops); all survived reopen", len(acked), fs.OpCount())
}
