package client_test

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmkv/internal/client"
	"lsmkv/internal/server"
)

// echoServer is a listener speaking the wire codec that answers every
// request with its key as the value. A key that begins with "late" is
// answered after lateBy, off the connection's read loop, so the requests
// behind it are not held up.
type echoServer struct {
	ln     net.Listener
	lateBy atomic.Int64 // nanoseconds
}

func newEchoServer(t *testing.T) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln}
	var conns sync.WaitGroup
	t.Cleanup(func() { ln.Close(); conns.Wait() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() { defer conns.Done(); s.serve(nc) }()
		}
	}()
	return s
}

func (s *echoServer) serve(nc net.Conn) {
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	var wmu sync.Mutex
	answer := func(req server.Request) {
		wmu.Lock()
		defer wmu.Unlock()
		// A late answer may find the connection closed; the client has
		// given up on it.
		if server.WriteFrame(bw, server.AppendResponse(nil, &server.Response{ID: req.ID, Value: req.Key})) == nil {
			bw.Flush()
		}
	}
	for {
		payload, err := server.ReadFrame(br, server.MaxFrameBytes)
		if err != nil {
			return
		}
		req, err := server.DecodeRequest(payload)
		if err != nil {
			return
		}
		if strings.HasPrefix(string(req.Key), "late") {
			time.AfterFunc(time.Duration(s.lateBy.Load()), func() { answer(req) })
			continue
		}
		answer(req)
	}
}

func (s *echoServer) dial(t *testing.T, timeout time.Duration) *client.Client {
	t.Helper()
	cl, err := client.Dial(s.ln.Addr().String(), &client.Options{RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// getOwn fails t unless a Get of key answers with key itself.
func getOwn(t *testing.T, cl *client.Client, key string) {
	t.Helper()
	if v, err := cl.Get([]byte(key)); err != nil || string(v) != key {
		t.Fatalf("Get(%s) = %q, %v; want its own key back", key, v, err)
	}
}

// TestRequestTimeoutLateReply: a call whose response misses
// RequestTimeout returns ErrTimeout, and the client goes on serving. The
// response, when it does arrive, never reaches a later call that reuses
// the pooled call state — also when it lands in the instant the timer
// fires, where the read loop may deliver it after the caller has given
// up. Run it with -race -count=20.
func TestRequestTimeoutLateReply(t *testing.T) {
	s := newEchoServer(t)

	s.lateBy.Store(int64(2 * time.Second))
	cl := s.dial(t, 250*time.Millisecond)
	if v, err := cl.Get([]byte("late-0")); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("Get answered 2 s late = %q, %v; want ErrTimeout", v, err)
	}
	getOwn(t, cl, "next-0")

	// Answers timed to meet the timer: a late call may time out or not,
	// but every call gets its own answer. The checking client has a
	// generous timeout of its own and shares the process's call pool.
	const timeout = 2 * time.Millisecond
	racy, check := s.dial(t, timeout), s.dial(t, 0)
	rng := rand.New(rand.NewSource(1))
	timeouts := 0
	for i := range 200 {
		s.lateBy.Store(int64(timeout) - int64(timeout/8) + rng.Int63n(int64(timeout/4)))
		key := fmt.Sprintf("late-%d", i)
		switch v, err := racy.Get([]byte(key)); {
		case errors.Is(err, client.ErrTimeout):
			timeouts++
		case err != nil || string(v) != key:
			t.Fatalf("Get(%s) = %q, %v; want its own key back or ErrTimeout", key, v, err)
		}
		getOwn(t, check, fmt.Sprintf("next-%d", i))
	}
	t.Logf("%d of 200 calls answered at their timeout timed out", timeouts)
}
