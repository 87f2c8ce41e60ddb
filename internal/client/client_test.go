package client_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/server"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// startBackend runs a real server on an in-memory engine and returns its
// address.
func startBackend(t *testing.T) string {
	t.Helper()
	db, err := shard.Open(core.Options{Dir: "db", FS: vfs.NewMem()}, 1)
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
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
		db.Close()
	})
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	return srv.Addr()
}

// flakyProxy forwards TCP to backend but kills the first `kill`
// accepted connections without forwarding a byte, simulating a server
// restart or LB failover mid-session.
func flakyProxy(t *testing.T, backend string, kill int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if accepted.Add(1) <= int64(kill) {
				c.Close()
				continue
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()
	return ln.Addr().String()
}

// TestRetryRedials: the client transparently survives dead connections
// when MaxRetries is set. The proxy kills the first two connections, so
// the first Put only succeeds on the third dial.
func TestRetryRedials(t *testing.T) {
	backend := startBackend(t)
	addr := flakyProxy(t, backend, 2)

	// Dial tolerates the first kill because it only needs the TCP accept;
	// the read loop discovers the close and the next call redials.
	cl, err := client.Dial(addr, &client.Options{
		MaxRetries:   4,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put through flaky proxy: %v", err)
	}
	v, err := cl.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("get after retries = %q, %v", v, err)
	}
}

// TestLostIncrResponseIsNotRetried: the proxy delivers the first
// connection's request and drops its response. An INCR must come back as
// the transport error — re-sending it would add twice — and the counter
// must read 1: the retry rule follows the opcode's class, and a
// read-modify-write is never re-sent once its frame is out. (A PUT in the
// same spot is re-sent; TestRetryRedials.)
func TestLostIncrResponseIsNotRetried(t *testing.T) {
	backend := startBackend(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for first := true; ; first = false {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(up, c); up.Close() }()
			if first {
				// The first response byte means the server has run the
				// request; the client never sees it.
				go func() { up.Read(make([]byte, 1)); c.Close(); up.Close() }()
			} else {
				go func() { io.Copy(c, up); c.Close() }()
			}
		}
	}()

	cl, err := client.Dial(ln.Addr().String(), &client.Options{MaxRetries: 2, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if n, err := cl.Incr([]byte("ctr"), 1); err == nil {
		t.Fatalf("Incr = %d with its response dropped; want the transport error, not a second INCR", n)
	}
	v, err := cl.Get([]byte("ctr")) // redials; the proxy now forwards both ways
	if err != nil || len(v) != 8 || binary.LittleEndian.Uint64(v) != 1 {
		t.Fatalf("counter after one Incr whose response was lost = %v, %v; want 1", v, err)
	}
}

// TestNoRetryFailsFast: with retries disabled a dead connection is an
// error, not a hang.
func TestNoRetryFailsFast(t *testing.T) {
	backend := startBackend(t)
	// Every connection dies: when the read loop notices the first close
	// before the Put, the Put redials, and that connection must be dead
	// too or the call legitimately succeeds.
	addr := flakyProxy(t, backend, math.MaxInt)
	cl, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err) // accept succeeded; close comes later
	}
	defer cl.Close()
	if err := cl.Put([]byte("k"), []byte("v")); err == nil {
		t.Fatal("put over killed connection succeeded without retries")
	}
}

// TestMissDoesNotPoisonPipeline: a Get miss is a request-level answer
// carried by a healthy connection, not a connection failure. With
// retries disabled, concurrent Puts pipelined on the same wire must all
// succeed while other goroutines hammer absent keys — the regression was
// a miss tearing down the shared wire and failing every in-flight call
// with ErrNotFound.
func TestMissDoesNotPoisonPipeline(t *testing.T) {
	addr := startBackend(t)
	cl, err := client.Dial(addr, nil) // MaxRetries=0: any poisoning is fatal
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers, per = 8, 100
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) { // writer
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				if err := cl.Put(key, []byte("v")); err != nil {
					errs <- fmt.Errorf("put %s poisoned by concurrent miss: %w", key, err)
					return
				}
			}
		}(w)
		go func(w int) { // misser
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("absent-%02d-%03d", w, i))
				if _, err := cl.Get(key); !errors.Is(err, client.ErrNotFound) {
					errs <- fmt.Errorf("get %s = %v, want ErrNotFound", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRequestErrorKeepsConnection: request-level errors must not make
// the client redial — the whole point of pipelining is one long-lived
// connection.
func TestRequestErrorKeepsConnection(t *testing.T) {
	backend := startBackend(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			up, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()

	cl, err := client.Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get([]byte("missing")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("get absent key = %v, want ErrNotFound", err)
	}
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put after miss: %v", err)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("client used %d connections, want 1 (redialed after a request-level error)", got)
	}
}

// TestPipelinedCorrectness: concurrent callers on one client must each
// get the response to their own request (ID demultiplexing).
func TestPipelinedCorrectness(t *testing.T) {
	addr := startBackend(t)
	cl, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers, per = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				val := []byte(fmt.Sprintf("val-%02d-%03d", w, i))
				if err := cl.Put(key, val); err != nil {
					errs <- err
					return
				}
				got, err := cl.Get(key)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				if string(got) != string(val) {
					errs <- fmt.Errorf("get %s = %q, want %q (cross-wired response?)", key, got, val)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWireErrorsAreEngineErrors: a miss and a CAS conflict read over the
// wire satisfy the same sentinels the embedded engine returns, so a
// caller holding either transport tests one error.
func TestWireErrorsAreEngineErrors(t *testing.T) {
	cl, err := client.Dial(startBackend(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get([]byte("absent")); !errors.Is(err, lsmkv.ErrNotFound) {
		t.Fatalf("miss over the wire = %v, want lsmkv.ErrNotFound", err)
	}
	if err := cl.CompareAndSwap([]byte("absent"), []byte("old"), []byte("new")); !errors.Is(err, lsmkv.ErrCASMismatch) {
		t.Fatalf("cas conflict over the wire = %v, want lsmkv.ErrCASMismatch", err)
	}
}

func TestClosedClient(t *testing.T) {
	addr := startBackend(t)
	cl, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := cl.Ping(); err != client.ErrClosed {
		t.Fatalf("ping after close: %v, want ErrClosed", err)
	}
}
