package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
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
// connection lifetime.
type fakePrimary struct {
	t  *testing.T
	ln net.Listener
}

func newFakePrimary(t *testing.T) *fakePrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &fakePrimary{t: t, ln: ln}
}

// acceptSync accepts one connection and reads its REPLSYNC handshake,
// returning the follower's watermark vector.
func (fp *fakePrimary) acceptSync() (net.Conn, []uint64, error) {
	conn, err := fp.ln.Accept()
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReader(conn)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		conn.Close()
		return nil, nil, err
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, payload); err != nil {
		conn.Close()
		return nil, nil, err
	}
	if payload[4] != WireOpReplSync {
		conn.Close()
		return nil, nil, fmt.Errorf("opcode %d, want REPLSYNC", payload[4])
	}
	rest := payload[5:]
	count, n := binary.Uvarint(rest)
	rest = rest[n:]
	seqs := make([]uint64, 0, count)
	for i := uint64(0); i < count; i++ {
		s, n := binary.Uvarint(rest)
		rest = rest[n:]
		seqs = append(seqs, s)
	}
	return conn, seqs, nil
}

// sendFrame writes one REPLFRAME response body on request ID 1.
func sendFrame(conn net.Conn, body []byte) error {
	payload := make([]byte, 5+len(body))
	binary.LittleEndian.PutUint32(payload[0:4], 1)
	payload[4] = wireStatusOK
	copy(payload[5:], body)
	raw := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(raw[0:4], uint32(len(payload)))
	copy(raw[4:], payload)
	_, err := conn.Write(raw)
	return err
}

func TestFollowerStreamApplyAndReconnect(t *testing.T) {
	fp := newFakePrimary(t)
	ft := newFakeTarget(1)
	f := NewFollower(FollowerConfig{
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
	if err := sendFrame(conn, AppendHeartbeatFrame(nil, []uint64{3})); err != nil {
		t.Fatal(err)
	}
	records := [][]byte{seqPayload(1), seqPayload(2), seqPayload(3)}
	if err := sendFrame(conn, AppendRecordsFrame(nil, 0, records)); err != nil {
		t.Fatal(err)
	}
	if err := sendFrame(conn, AppendHeartbeatFrame(nil, []uint64{3})); err != nil {
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
	if err := sendFrame(conn2, AppendHeartbeatFrame(nil, []uint64{4})); err != nil {
		t.Fatal(err)
	}
	if err := sendFrame(conn2, AppendRecordsFrame(nil, 0, [][]byte{seqPayload(4)})); err != nil {
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

func TestFollowerFatalOnTooOld(t *testing.T) {
	fp := newFakePrimary(t)
	f := NewFollower(FollowerConfig{
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
	if err := sendFrame(conn, AppendErrorFrame(nil, ErrTooOld.Error())); err != nil {
		t.Fatal(err)
	}
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
	conn.Close()
}

func TestFollowerStopNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		// No listener at this address: the follower sits in its retry
		// loop; Stop must still join it promptly.
		f := NewFollower(FollowerConfig{
			Addr:         "127.0.0.1:1",
			DB:           newFakeTarget(1),
			DialTimeout:  50 * time.Millisecond,
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
