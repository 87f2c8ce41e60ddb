package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/server"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// slowSyncFS injects a fixed latency into every file Sync, modeling a
// real disk's fsync cost on top of the in-memory filesystem so that
// group-commit coalescing shows up in wall-clock throughput.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (s slowSyncFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.delay}, nil
}

func (s slowSyncFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.delay}, nil
}

func (s slowSyncFS) OpenReadWrite(name string) (vfs.File, error) {
	f, err := s.FS.OpenReadWrite(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.delay}, nil
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// The server's one engine surface is satisfied by the shard layer and,
// through embedding, by the public facade.
var (
	_ server.Engine = (*shard.DB)(nil)
	_ server.Engine = (*lsmkv.DB)(nil)
)

// startServer is the one way these tests get a served engine: it opens
// an n-shard engine on fs (the server has a single engine surface, so a
// "plain" server is shards=1), serves it on a loopback listener, and
// registers teardown. mutate, when non-nil, adjusts the config before
// server.New.
func startServer(t testing.TB, fs vfs.FS, shards int, mutate func(*server.Config)) (*server.Server, *shard.DB) {
	t.Helper()
	db, err := shard.Open(core.Options{Dir: "db", FS: fs}, shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{DB: db, SyncWrites: true}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // idempotent-ish: second call errors, ignored
		<-serveDone
		db.Close()
	})
	// Wait for the listener address to be visible.
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	return srv, db
}

func dialTest(t testing.TB, srv *server.Server, opts *client.Options) *client.Client {
	t.Helper()
	cl, err := client.Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestServerBasicOps(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 1, nil)
	cl := dialTest(t, srv, nil)

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("beta"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("get alpha = %q, %v", v, err)
	}
	if _, err := cl.Get([]byte("missing")); err != client.ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := cl.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("alpha")); err != client.ErrNotFound {
		t.Fatalf("deleted key: want ErrNotFound, got %v", err)
	}
	if err := cl.Batch([]client.Op{
		core.PutOp([]byte("c1"), []byte("x")),
		core.PutOp([]byte("c2"), []byte("y")),
		core.DeleteOp([]byte("beta")),
	}); err != nil {
		t.Fatal(err)
	}
	var scanned []string
	if err := cl.Scan([]byte("a"), []byte("z"), func(k, v []byte) bool {
		scanned = append(scanned, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(scanned) != "[c1=x c2=y]" {
		t.Fatalf("scan: %v, want [c1=x c2=y]", scanned)
	}
	body, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"server", "engine"} {
		if _, ok := payload[key]; !ok {
			t.Fatalf("stats missing %q section", key)
		}
	}
}

// TestPipelinedThroughput is the acceptance E2E: concurrent pipelined
// clients must sustain >= 10x the throughput of one-request-per-round-
// trip operation. The engine runs on a filesystem with a 1ms fsync and
// the server acknowledges only after the commit group is synced, so the
// sequential client pays one fsync per write while the pipelined load
// amortizes each fsync across an entire commit group.
func TestPipelinedThroughput(t *testing.T) {
	fs := slowSyncFS{FS: vfs.NewMem(), delay: time.Millisecond}
	srv, _ := startServer(t, fs, 1, nil)
	cl := dialTest(t, srv, nil)

	// Sequential: wait for each ack before issuing the next request.
	const seqOps = 100
	seqStart := time.Now()
	for i := 0; i < seqOps; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("seq%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	seqRate := float64(seqOps) / time.Since(seqStart).Seconds()

	// Pipelined: 64 concurrent writers share the same connection.
	const writers, perWriter = 64, 50
	before := srv.Metrics().Snapshot()
	pipeStart := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := cl.Put([]byte(fmt.Sprintf("p%02d-%04d", w, i)), []byte("v")); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	pipeRate := float64(writers*perWriter) / time.Since(pipeStart).Seconds()

	ratio := pipeRate / seqRate
	t.Logf("sequential %.0f ops/s, pipelined %.0f ops/s, ratio %.1fx", seqRate, pipeRate, ratio)
	if ratio < 10 {
		t.Fatalf("pipelined/sequential throughput ratio %.1fx, want >= 10x", ratio)
	}

	// Group commit must actually be coalescing: far fewer commit batches
	// than ops during the pipelined phase.
	after := srv.Metrics().Snapshot()
	batches := after.CommitBatches - before.CommitBatches
	ops := after.CommitOps - before.CommitOps
	if ops != writers*perWriter {
		t.Fatalf("committed %d ops, want %d", ops, writers*perWriter)
	}
	if mean := float64(ops) / float64(batches); mean < 4 {
		t.Fatalf("mean commit batch size %.1f, want >= 4 (no coalescing?)", mean)
	}
}

// TestShutdownRacesServe: Shutdown that runs before Serve has registered
// its listener used to find nothing to close and leave Serve blocked in
// Accept for ever. Even rounds order the two deterministically (Shutdown
// first), odd rounds race them; either way Serve must return nil.
func TestShutdownRacesServe(t *testing.T) {
	for round := 0; round < 40; round++ {
		db, err := shard.Open(core.Options{Dir: "db", FS: vfs.NewMem()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		shutDone := make(chan error, 1)
		shutdown := func() { shutDone <- srv.Shutdown(context.Background()) }
		if round%2 == 0 {
			shutdown()
		} else {
			go shutdown()
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		select {
		case err := <-serveDone:
			if err != nil {
				t.Fatalf("round %d: Serve = %v, want nil", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Serve still blocked in Accept after Shutdown", round)
		}
		if err := <-shutDone; err != nil {
			t.Fatalf("round %d: Shutdown = %v", round, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShutdownDrains: a drain mid-load answers every in-flight request
// and loses no acknowledged write — the zero-dropped-acks guarantee.
func TestShutdownDrains(t *testing.T) {
	srv, db := startServer(t, vfs.NewMem(), 1, nil)

	const writers = 16
	var (
		ackMu sync.Mutex
		acked []string
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("drain-w%02d-%06d", w, i)
				if err := cl.Put([]byte(key), []byte(key)); err != nil {
					return // drain reached this connection
				}
				ackMu.Lock()
				acked = append(acked, key)
				ackMu.Unlock()
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond) // let load build
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes acknowledged before drain; test proves nothing")
	}
	missing := 0
	for _, key := range acked {
		v, err := db.Get([]byte(key))
		if err != nil || string(v) != key {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged writes missing after drain", missing, len(acked))
	}
	t.Logf("drained with %d acknowledged writes, all present", len(acked))
}

func TestConnectionLimit(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 1, func(c *server.Config) { c.MaxConns = 2 })
	c1 := dialTest(t, srv, nil)
	c2 := dialTest(t, srv, nil)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	// The third connection is accepted then immediately closed; its
	// first operation must fail (no retries configured).
	c3, err := client.Dial(srv.Addr(), nil)
	if err == nil {
		defer c3.Close()
		if err := c3.Ping(); err == nil {
			t.Fatal("third connection served beyond MaxConns=2")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().ConnsRejected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ConnsRejected never incremented")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBackpressureThrottles(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 1, func(c *server.Config) {
		c.RatePerSec = 200
		c.Burst = 10
		c.MaxThrottleDelay = 5 * time.Millisecond
	})

	// One connection per worker: the token-bucket sleep happens in each
	// connection's read loop, so a single connection self-paces to the
	// refill rate and is never shed. Shedding needs aggregate demand
	// across connections to outrun the bucket.
	var wg sync.WaitGroup
	var throttled, okCount int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		cl := dialTest(t, srv, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := cl.Get([]byte("nope"))
				mu.Lock()
				if err == client.ErrThrottled {
					throttled++
				} else if err == client.ErrNotFound {
					okCount++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if throttled == 0 {
		t.Fatalf("400 rapid requests at 200/s never throttled (ok=%d)", okCount)
	}
	if okCount == 0 {
		t.Fatal("every request throttled; bucket should admit the burst")
	}
	if got := srv.Metrics().Throttled.Load(); got == 0 {
		t.Fatal("metrics.Throttled not incremented")
	}
	t.Logf("ok=%d throttled=%d", okCount, throttled)
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 1, nil)
	cl := dialTest(t, srv, nil)
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	h := srv.MetricsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	var payload struct {
		Server server.Snapshot `json:"server"`
		Engine struct {
			WALSyncs   int64
			BatchedOps int64
		} `json:"engine"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if payload.Server.ConnsAccepted < 1 || payload.Server.CommitBatches < 1 {
		t.Fatalf("metrics look empty: %+v", payload.Server)
	}
	if payload.Engine.WALSyncs < 1 || payload.Engine.BatchedOps < 1 {
		t.Fatalf("engine counters missing: %+v", payload.Engine)
	}
	for _, name := range []string{`"BlockCacheAdmits"`, `"BlockCacheRejects"`} {
		if !strings.Contains(rec.Body.String(), name) {
			t.Errorf("/metrics engine section lacks %s", name)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz while serving: %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz while draining: %d, want 503", rec.Code)
	}
}

// TestMalformedBodyKeepsConnection: a parseable frame with a bad body
// gets an error response and the connection keeps serving; a broken
// frame closes the connection.
func TestMalformedFrames(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 1, nil)

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Valid frame, unknown opcode -> server.StatusError, connection
	// survives. So does a well-formed frame of the retired paged SCAN
	// (opcode 5, reserved): its error names the replacement. And so does
	// a MERKLE asking for 2^56 buckets, which used to reach make() and
	// take the whole process down.
	hugeMerkle := server.AppendRequest(nil, &server.Request{ID: 6, Op: server.OpMerkle, Buckets: 1 << 56})
	var payload []byte
	for _, bad := range [][]byte{
		{9, 0, 0, 0, 7, 0, 0, 0, 99, 1, 2, 3, 4},
		{10, 0, 0, 0, 8, 0, 0, 0, byte(server.OpScan), 1, 'a', 1, 'z', 10},
		append([]byte{byte(len(hugeMerkle)), 0, 0, 0}, hugeMerkle...),
	} {
		if _, err := nc.Write(bad); err != nil {
			t.Fatal(err)
		}
		payload, err = server.ReadFrame(nc, server.MaxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := server.DecodeResponse(payload, false)
		if err != nil || resp.Status != server.StatusError || resp.ID != uint32(bad[4]) {
			t.Fatalf("want server.StatusError response on ID %d, got %+v, %v", bad[4], resp, err)
		}
		if bad[8] == byte(server.OpScan) && !strings.Contains(string(resp.Value), "SCANSTREAM") {
			t.Fatalf("retired SCAN error does not name its replacement: %q", resp.Value)
		}
	}
	// Still serving: a ping round-trips.
	ping := server.AppendRequest(nil, &server.Request{ID: 5, Op: server.OpPing})
	frame := append([]byte{byte(len(ping)), 0, 0, 0}, ping...)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err = server.ReadFrame(nc, server.MaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := server.DecodeResponse(payload, false); resp.ID != 5 || resp.Status != server.StatusOK {
		t.Fatalf("ping after malformed body: %+v", resp)
	}

	// Oversized frame length -> error response, then close.
	if _, err := nc.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F}); err != nil {
		t.Fatal(err)
	}
	payload, err = server.ReadFrame(nc, server.MaxFrameBytes)
	if err == nil {
		if resp, _ := server.DecodeResponse(payload, false); resp.Status != server.StatusError {
			t.Fatalf("want server.StatusError for oversized frame, got %+v", resp)
		}
		// Connection must now be closed by the server.
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := server.ReadFrame(nc, server.MaxFrameBytes); err == nil {
			t.Fatal("connection still open after framing loss")
		}
	}
	if got := srv.Metrics().DecodeErrors.Load(); got < 4 {
		t.Fatalf("DecodeErrors = %d, want >= 4", got)
	}
}
