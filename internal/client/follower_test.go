package client_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/replica"
	"lsmkv/internal/server"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// fakeTarget is a Target whose watermark is driven by 8-byte
// big-endian-seq record payloads.
type fakeTarget struct {
	mu     sync.Mutex
	shards int
	seqs   []uint64
	nrecs  int
}

func newFakeTarget(shards int) *fakeTarget {
	return &fakeTarget{shards: shards, seqs: make([]uint64, shards)}
}

func (ft *fakeTarget) NumShards() int { return ft.shards }

func (ft *fakeTarget) LastSeqs() []uint64 {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]uint64(nil), ft.seqs...)
}

func (ft *fakeTarget) ApplyReplicated(shard int, payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("fake target: payload %d bytes", len(payload))
	}
	seq := binary.BigEndian.Uint64(payload)
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if seq > ft.seqs[shard] {
		ft.seqs[shard] = seq
	}
	ft.nrecs++
	return ft.seqs[shard], nil
}

func seqPayload(seq uint64) []byte {
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], seq)
	return p[:]
}

// fakePrimary accepts follower connections and lets the test script each
// connection lifetime, framing with the server's codec.
type fakePrimary struct {
	ln net.Listener
}

func newFakePrimary(t *testing.T) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &fakePrimary{ln: ln}
}

// fakeStream is one accepted follower connection past its REPLSYNC.
type fakeStream struct {
	net.Conn
	id uint32
}

// acceptSync accepts one connection and reads its REPLSYNC request,
// returning the follower's watermark vector.
func (fp *fakePrimary) acceptSync() (*fakeStream, []uint64, error) {
	conn, err := fp.ln.Accept()
	if err != nil {
		return nil, nil, err
	}
	payload, err := server.ReadFrame(bufio.NewReader(conn), server.MaxFrameBytes)
	if err == nil {
		var req server.Request
		if req, err = server.DecodeRequest(payload); err == nil && req.Op != server.OpReplSync {
			err = fmt.Errorf("opcode %v, want replsync", req.Op)
		}
		if err == nil {
			return &fakeStream{Conn: conn, id: req.ID}, req.Seqs, nil
		}
	}
	conn.Close()
	return nil, nil, err
}

// send writes one REPLFRAME response body on the stream's request ID.
func (s *fakeStream) send(body []byte) error {
	bw := bufio.NewWriter(s.Conn)
	if err := server.WriteFrame(bw, server.AppendResponse(nil, &server.Response{ID: s.id, Value: body})); err != nil {
		return err
	}
	return bw.Flush()
}

func TestFollowerStreamApplyAndReconnect(t *testing.T) {
	fp := newFakePrimary(t)
	ft := newFakeTarget(1)
	f := client.NewFollower(client.FollowerConfig{
		Addr:         fp.ln.Addr().String(),
		DB:           ft,
		RetryBackoff: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	f.Start()
	defer f.Stop()

	// First connection: handshake at watermark 0, ship three records and
	// a caught-up heartbeat, then drop the link.
	conn, seqs, err := fp.acceptSync()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 0 {
		t.Fatalf("handshake watermarks %v", seqs)
	}
	// The opening heartbeat already names the primary's watermark, 3 (as
	// the second connection's does): with 0 the follower counted as caught
	// up before a record arrived, and WaitCaughtUp below raced the apply.
	if err := conn.send(replica.AppendHeartbeatFrame(nil, []uint64{3})); err != nil {
		t.Fatal(err)
	}
	records := [][]byte{seqPayload(1), seqPayload(2), seqPayload(3)}
	if err := conn.send(replica.AppendRecordsFrame(nil, 0, records)); err != nil {
		t.Fatal(err)
	}
	if err := conn.send(replica.AppendHeartbeatFrame(nil, []uint64{3})); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.Lag != 0 || st.RecordsApplied != 3 || !st.Connected {
		t.Fatalf("caught-up status: %+v", st)
	}
	conn.Close()

	// The follower redials with its advanced watermark — no replay of
	// already-applied history.
	conn2, seqs2, err := fp.acceptSync()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close() // reachable to the end: a collected conn closes under the follower
	if len(seqs2) != 1 || seqs2[0] != 3 {
		t.Fatalf("reconnect watermarks %v, want [3]", seqs2)
	}
	if err := conn2.send(replica.AppendHeartbeatFrame(nil, []uint64{4})); err != nil {
		t.Fatal(err)
	}
	if err := conn2.send(replica.AppendRecordsFrame(nil, 0, [][]byte{seqPayload(4)})); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); st.Reconnects < 2 || st.RecordsApplied != 4 {
		t.Fatalf("post-reconnect status: %+v", st)
	}

	f.Stop()
	if st := f.Status(); st.Connected {
		t.Fatalf("still connected after Stop: %+v", st)
	}
}

// waitFatal polls until f's loop has stopped for good.
func waitFatal(t *testing.T, f *client.Follower) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !f.Status().Fatal {
		if time.Now().After(deadline) {
			t.Fatalf("backlog-eviction error did not turn fatal: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.WaitCaughtUp(time.Second); err == nil || !strings.Contains(err.Error(), "fatal") {
		t.Fatalf("WaitCaughtUp on a fatal follower: %v", err)
	}
}

func TestFollowerFatalOnTooOld(t *testing.T) {
	fp := newFakePrimary(t)
	f := client.NewFollower(client.FollowerConfig{
		Addr:         fp.ln.Addr().String(),
		DB:           newFakeTarget(1),
		RetryBackoff: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	f.Start()
	defer f.Stop()

	conn, _, err := fp.acceptSync()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.send(replica.AppendErrorFrame(nil, replica.ErrTooOld.Error())); err != nil {
		t.Fatal(err)
	}
	waitFatal(t, f)
}

// TestFollowerFatalOnRealBacklogEviction: a real Primary behind a real
// server, whose backlog is too small to hold the history past the
// follower's watermark, ends the stream with its own ErrTooOld text, and
// the follower recognises it as fatal.
func TestFollowerFatalOnRealBacklogEviction(t *testing.T) {
	db, err := shard.Open(core.Options{Dir: "db", FS: vfs.NewMem()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	primary := replica.NewPrimary(replica.PrimaryConfig{Shards: 1, LastSeqs: db.LastSeqs, BacklogBytes: 64})
	defer primary.Close()
	db.SetCommitHook(primary.OnCommit)
	defer db.SetCommitHook(nil)
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte("a value of some length")); err != nil {
			t.Fatal(err)
		}
	}
	if floor := primary.Status().Floors[0]; floor == 0 {
		t.Fatalf("backlog floor still 0 after 20 commits into 64 bytes")
	}

	srv, err := server.New(server.Config{DB: db, Repl: primary})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()

	// The follower is empty: watermark 0 is below the evicted floor.
	f := client.NewFollower(client.FollowerConfig{
		Addr:         ln.Addr().String(),
		DB:           newFakeTarget(1),
		RetryBackoff: 10 * time.Millisecond,
		Logf:         t.Logf,
	})
	f.Start()
	defer f.Stop()
	waitFatal(t, f)
	if st := f.Status(); !strings.Contains(st.LastError, "floor") {
		t.Fatalf("fatal error lost the primary's detail: %q", st.LastError)
	}
}

func TestFollowerStopNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		// No listener at this address: the follower sits in its retry
		// loop; Stop must still join it promptly.
		f := client.NewFollower(client.FollowerConfig{
			Addr:         "127.0.0.1:1",
			DB:           newFakeTarget(1),
			RetryBackoff: 10 * time.Millisecond,
		})
		f.Start()
		time.Sleep(30 * time.Millisecond)
		f.Stop()
		f.Stop() // idempotent
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
