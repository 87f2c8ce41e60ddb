// End-to-end coverage for the batched read path: MULTIGET frames
// against one-shard and sharded (parallel fan-out) engines, and the
// streamed SCAN path checked as a property against a flat-map oracle —
// including a mid-stream
// connection kill that must surface as a transport error on the client
// and leave no goroutines behind on the server.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/server"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// TestMultiGetEndToEnd drives MULTIGET over the wire against a one-shard
// engine (one in-line probe loop) and a 3-shard one (parallel fan-out):
// values come back aligned with the requested keys, absent keys are nil
// (not an error), and a present key with an empty value stays
// distinguishable from an absent one.
func TestMultiGetEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, _ := startServer(t, vfs.NewMem(), shards, nil)
			runMultiGetSuite(t, dialTest(t, srv, nil))
		})
	}
}

func runMultiGetSuite(t *testing.T, cl *client.Client) {
	t.Helper()
	const n = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("mg-%04d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%04d", i)) }
	var ops []client.Op
	for i := 0; i < n; i++ {
		ops = append(ops, core.PutOp(key(i), val(i)))
	}
	ops = append(ops, core.PutOp([]byte("mg-empty"), nil))
	if err := cl.Batch(ops); err != nil {
		t.Fatal(err)
	}

	// A batch mixing present, absent, empty-valued, and repeated keys.
	keys := [][]byte{
		key(0), []byte("mg-absent-a"), key(117), []byte("mg-empty"),
		key(42), key(42), []byte("mg-absent-b"), key(n - 1),
	}
	vals, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(keys) {
		t.Fatalf("got %d values for %d keys", len(vals), len(keys))
	}
	// Oracle: one sequential GET per key.
	for i, k := range keys {
		want, err := cl.Get(k)
		switch {
		case errors.Is(err, client.ErrNotFound):
			if vals[i] != nil {
				t.Fatalf("key %q: multiget %q, sequential get says absent", k, vals[i])
			}
		case err != nil:
			t.Fatal(err)
		default:
			if vals[i] == nil {
				t.Fatalf("key %q: multiget says absent, sequential get %q", k, want)
			}
			if !bytes.Equal(vals[i], want) {
				t.Fatalf("key %q: multiget %q != get %q", k, vals[i], want)
			}
		}
	}
	// The empty-valued key must come back present.
	if vals[3] == nil || len(vals[3]) != 0 {
		t.Fatalf("empty-valued key: got %v, want present-and-empty", vals[3])
	}
	// Edge cases: empty batch and single key.
	if vs, err := cl.MultiGet(nil); err != nil || vs != nil {
		t.Fatalf("empty batch: %v, %v", vs, err)
	}
	vs, err := cl.MultiGet([][]byte{key(7)})
	if err != nil || len(vs) != 1 || !bytes.Equal(vs[0], val(7)) {
		t.Fatalf("single-key batch: %q, %v", vs, err)
	}
}

// TestScanStreamProperty: at shard counts 1, 3, and 8, a streamed scan,
// ScanAll over it, and a sorted flat map must agree exactly — full range
// and sub-ranges — with the server's frame size forced small
// so the stream spans many frames. Concurrent streams on one connection
// exercise the demux under the race detector (make test runs this
// package with -race).
func TestScanStreamProperty(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, _ := startServer(t, vfs.NewMem(), shards, func(c *server.Config) {
				c.MaxScanResults = 17 // many frames per stream
			})
			cl := dialTest(t, srv, nil)

			rng := rand.New(rand.NewSource(int64(shards) * 7919))
			oracle := map[string]string{}
			var ops []client.Op
			for i := 0; i < 1200; i++ {
				k := fmt.Sprintf("prop-%06d", rng.Intn(5000))
				v := fmt.Sprintf("v%08d", rng.Int63())
				oracle[k] = v
				ops = append(ops, core.PutOp([]byte(k), []byte(v)))
			}
			if err := cl.Batch(ops); err != nil {
				t.Fatal(err)
			}

			want := make([]string, 0, len(oracle))
			for k := range oracle {
				want = append(want, k)
			}
			sort.Strings(want)

			type scanFn func(lo, hi []byte, fn func(k, v []byte) bool) error
			collect := func(scan scanFn, lo, hi string) []string {
				t.Helper()
				var got []string
				prev := ""
				err := scan([]byte(lo), []byte(hi), func(k, v []byte) bool {
					if prev != "" && string(k) <= prev {
						t.Fatalf("out of order: %q then %q", prev, k)
					}
					prev = string(k)
					if oracle[string(k)] != string(v) {
						t.Fatalf("key %q: value %q, oracle %q", k, v, oracle[string(k)])
					}
					got = append(got, string(k))
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			inRange := func(lo, hi string) []string {
				var r []string
				for _, k := range want {
					if k >= lo && k <= hi {
						r = append(r, k)
					}
				}
				return r
			}
			ranges := [][2]string{
				{"prop-", "prop-~"},            // everything
				{"prop-001000", "prop-003999"}, // interior
				{"prop-004999", "prop-~"},      // tail
				{"prop-zzz", "prop-zzzz"},      // empty
			}
			for _, r := range ranges {
				exp := inRange(r[0], r[1])
				streamed := collect(cl.ScanStream, r[0], r[1])
				scanAll := collect(cl.Scan, r[0], r[1])
				for name, got := range map[string][]string{
					"streamed": streamed, "scanall": scanAll,
				} {
					if len(got) != len(exp) {
						t.Fatalf("%s saw %d keys, oracle %d (range %q..%q)",
							name, len(got), len(exp), r[0], r[1])
					}
					for i := range exp {
						if got[i] != exp[i] {
							t.Fatalf("%s key %d: %q, oracle %q", name, i, got[i], exp[i])
						}
					}
				}
			}

			// Concurrent streams pipelined on the same connection, racing
			// point reads: every stream must see the full range.
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					count := 0
					err := cl.ScanStream([]byte("prop-"), []byte("prop-~"), func(k, v []byte) bool {
						count++
						return true
					})
					if err != nil {
						errs <- err
						return
					}
					if count != len(want) {
						errs <- fmt.Errorf("concurrent stream saw %d keys, want %d", count, len(want))
					}
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if _, err := cl.MultiGet([][]byte{[]byte(want[i%len(want)])}); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestScanStreamEarlyStop: a consumer that bails mid-stream must not
// wedge the connection — late frames for the cancelled stream are
// discarded and subsequent calls on the same client work.
func TestScanStreamEarlyStop(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 3, func(c *server.Config) {
		c.MaxScanResults = 10
	})
	cl := dialTest(t, srv, nil)
	var ops []client.Op
	for i := 0; i < 500; i++ {
		ops = append(ops, core.PutOp([]byte(fmt.Sprintf("stop-%04d", i)), []byte("v")))
	}
	if err := cl.Batch(ops); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		seen := 0
		err := cl.ScanStream([]byte("stop-"), []byte("stop-~"), func(k, v []byte) bool {
			seen++
			return seen < 25 // stop mid-stream, frames still in flight
		})
		if err != nil || seen != 25 {
			t.Fatalf("round %d: seen %d, err %v", round, seen, err)
		}
		// The connection must still serve ordinary calls.
		if _, err := cl.Get([]byte("stop-0000")); err != nil {
			t.Fatalf("round %d: get after early stop: %v", round, err)
		}
	}
}

// TestScanStreamMidStreamKill routes a client through a byte-budgeted
// TCP proxy that severs the connection partway through a streamed scan.
// The client must surface a transport error (not silent truncation and
// not a server-reported error), and tearing everything down afterwards
// must return the process to its baseline goroutine count: the
// half-finished stream handler on the server drains rather than leaks.
func TestScanStreamMidStreamKill(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db, err := shard.Open(core.Options{Dir: "db", FS: vfs.NewMem()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, SyncWrites: true, MaxScanResults: 16})
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

	// Seed directly (not through the proxy): well over the proxy's
	// server->client byte budget, so the kill lands mid-stream.
	seedCl, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	var ops []client.Op
	for i := 0; i < n; i++ {
		ops = append(ops, core.PutOp([]byte(fmt.Sprintf("kill-%05d", i)), []byte("payload-xxxxxxxx")))
		if len(ops) == 512 {
			if err := seedCl.Batch(ops); err != nil {
				t.Fatal(err)
			}
			ops = nil
		}
	}
	if err := seedCl.Batch(ops); err != nil {
		t.Fatal(err)
	}

	// A proxy that forwards the client's requests untouched but cuts
	// both legs after ~16 KiB of response bytes.
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxyDone := make(chan struct{})
	go func() {
		defer close(proxyDone)
		cconn, err := pln.Accept()
		if err != nil {
			return
		}
		defer cconn.Close()
		sconn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return
		}
		defer sconn.Close()
		go func() {
			io.Copy(sconn, cconn)
			sconn.Close()
		}()
		buf := make([]byte, 4096)
		forwarded := 0
		for forwarded < 16<<10 {
			m, rerr := sconn.Read(buf)
			if m > 0 {
				if _, werr := cconn.Write(buf[:m]); werr != nil {
					return
				}
				forwarded += m
			}
			if rerr != nil {
				return
			}
		}
		// Budget exhausted: sever the connection mid-stream.
	}()

	cl, err := client.Dial(pln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	scanErr := cl.ScanStream([]byte("kill-"), []byte("kill-~"), func(k, v []byte) bool {
		seen++
		return true
	})
	if scanErr == nil {
		t.Fatalf("stream survived a severed connection (saw %d of %d pairs)", seen, n)
	}
	if seen >= n {
		t.Fatalf("kill landed after the stream finished (%d pairs): budget too large", seen)
	}
	var se *client.ServerError
	if errors.As(scanErr, &se) || errors.Is(scanErr, client.ErrNotFound) {
		t.Fatalf("want a transport-level error, got a response-level one: %v", scanErr)
	}
	cl.Close()
	seedCl.Close()
	pln.Close()
	<-proxyDone

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-serveDone
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after mid-stream kill: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:m])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
