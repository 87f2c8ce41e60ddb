package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lsmkv/internal/checkpoint"
	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
	"lsmkv/internal/replica"
	"lsmkv/internal/shard"
	"lsmkv/internal/sketch"
	"lsmkv/internal/tuner"
)

// Engine is the storage surface the server fronts: exactly the methods
// it calls, satisfied by *shard.DB and so by the public *lsmkv.DB that
// embeds it. Every method is documented there. Writes reach it only
// through Submit, whose commit queues group them (core.DB.Submit); a
// one-shard engine runs the same code as an N-shard one.
type Engine interface {
	NumShards() int
	ShardOf(key []byte) int

	GetAppend(key, dst []byte) ([]byte, error)
	MultiGet(keys [][]byte) ([][]byte, error)
	GetTraced(key []byte) ([]byte, *iostat.Trace, error)
	Scan(lo, hi []byte, fn func(key, value []byte) bool) error
	Submit(ops []core.BatchOp, sync bool) shard.Write
	Flush() error

	LastSeqs() []uint64
	WaitForSeq(shard int, seq uint64, timeout time.Duration) error
	Checkpoint(dstDir string) (checkpoint.Marker, error)
	MerkleAt(buckets int, seqs []uint64) (*replica.Tree, error)

	Stats() iostat.Snapshot
	ShardStats() []iostat.Snapshot
	Latencies() map[string]iostat.LatencySummary
	Events() []iostat.Event
	TunerStatus() []tuner.Status
}

// Config parameterizes a Server. The zero value of every field except DB
// selects a sensible default.
type Config struct {
	// DB is the engine to serve (required).
	DB Engine
	// MaxConns bounds concurrent connections; excess accepts are closed
	// immediately. Default 1024.
	MaxConns int
	// RatePerSec, when positive, enables token-bucket backpressure at
	// that many requests per second across all connections.
	RatePerSec float64
	// Burst is the token bucket capacity. Default max(16, RatePerSec).
	Burst int
	// MaxThrottleDelay is the longest a request waits for a token before
	// being shed with StatusThrottled. Default 1 second.
	MaxThrottleDelay time.Duration
	// SyncWrites fsyncs each commit group before acknowledging — full
	// durability at one fsync per group, not per write. Default off (the
	// engine's own SyncWAL option still applies if set).
	SyncWrites bool
	// MaxScanResults bounds pairs per SCANSTREAM frame. Default 4096.
	MaxScanResults int
	// Repl, when set, serves REPLSYNC streams from this primary-side
	// shipper. The caller owns its lifecycle and must have wired it to the
	// engine's commit hook.
	Repl *replica.Primary
	// Follower, when set, reports the status of this server's replication
	// loop pulling from a primary (client.Follower.Status), which STATS and
	// /metrics carry. Setting it makes the server read-only: every write
	// and rmw opcode (ClassWrite, ClassRMW) is refused, since a follower's
	// only writer is the replication stream applying below the protocol.
	// The caller owns the loop's lifecycle.
	Follower func() FollowerStatus
	// CheckpointDir, when non-empty, enables the CHECKPOINT opcode:
	// checkpoint names resolve to subdirectories of it.
	CheckpointDir string
	// Logf receives server event logs when set.
	Logf func(format string, args ...any)
}

// Connection deadlines. Each is re-armed only once the one in force was
// set more than a sixteenth of its timeout ago (lazyDeadline), so a
// connection idle for between 15/16 and 1× idleTimeout is closed, and
// each flush of responses runs with at least 15/16 of writeTimeout
// ahead of it.
const idleTimeout, writeTimeout = 5 * time.Minute, 30 * time.Second

func (c Config) withDefaults() (Config, error) {
	if c.DB == nil {
		return c, errors.New("server: Config.DB is required")
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.Burst <= 0 {
		c.Burst = 16
		if int(c.RatePerSec) > c.Burst {
			c.Burst = int(c.RatePerSec)
		}
	}
	if c.MaxThrottleDelay <= 0 {
		c.MaxThrottleDelay = time.Second
	}
	if c.MaxScanResults <= 0 {
		c.MaxScanResults = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Server serves the KV protocol over TCP. Create with New, start with
// Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	// sketches summarize each shard's write stream, indexed by shard: ack
	// loops feed them the keys of every write that committed.
	sketches []*sketch.Set
	bucket   *TokenBucket // nil when unlimited
	// events records serving-layer incidents (sheds, rejected
	// connections, drain); engine events live in the engine's own ring.
	events *iostat.EventLog

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining atomic.Bool
	connWG   sync.WaitGroup
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(cfg.DB.Stats),
		events:  iostat.NewEventLog(),
		conns:   make(map[*conn]struct{}),
	}
	for i := 0; i < cfg.DB.NumShards(); i++ {
		s.sketches = append(s.sketches, sketch.NewSet())
	}
	if cfg.RatePerSec > 0 {
		s.bucket = NewTokenBucket(cfg.RatePerSec, cfg.Burst)
	}
	return s, nil
}

// Metrics exposes the live server counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Events returns the serving layer's retained incident events, oldest
// first (sheds, rejected connections, drain).
func (s *Server) Events() []iostat.Event { return s.events.Events() }

// Addr returns the listener address once serving ("" before).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a clean shutdown, including one that ran before Serve did.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("server: already serving")
	}
	s.ln = ln
	// Shutdown sets draining and then takes mu to close the listener it
	// finds: if it got there first it found none, and closing ln falls to
	// us.
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.mu.Unlock()
	s.cfg.Logf("server: listening on %s", ln.Addr())
	var acceptDelay time.Duration // backoff for transient accept errors
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			// Transient failures (ECONNABORTED, EMFILE, ...) must not
			// kill the accept loop while connections are live: back off
			// and retry, as net/http does.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else {
					acceptDelay *= 2
				}
				if acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				s.cfg.Logf("server: accept error: %v; retrying in %v", err, acceptDelay)
				time.Sleep(acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		s.metrics.ConnsAccepted.Add(1)
		if !s.admit(nc) {
			continue
		}
	}
}

// admit registers a new connection, enforcing MaxConns and drain state.
func (s *Server) admit(nc net.Conn) bool {
	s.mu.Lock()
	if s.draining.Load() || len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.metrics.ConnsRejected.Add(1)
		s.events.Add(iostat.Event{
			Type: iostat.EventConnRejected, FromLevel: -1, ToLevel: -1,
			Detail: nc.RemoteAddr().String(),
		})
		nc.Close()
		return false
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	s.metrics.ConnsActive.Add(1)
	go c.run()
	return true
}

// removeConn unregisters a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.ConnsActive.Add(-1)
	s.connWG.Done()
}

// Shutdown drains the server: it stops accepting, wakes every reader so
// no new requests are decoded, waits for all in-flight requests to be
// answered and their responses written — every submitted write is
// waited for, and so committed, by its connection's ack loop — then
// flushes the engine. Acknowledged writes are never dropped. ctx bounds
// the wait; on expiry remaining connections are severed and the error
// reported.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("server: already shut down")
	}
	s.events.Add(iostat.Event{Type: iostat.EventDrain, FromLevel: -1, ToLevel: -1})
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.beginDrain()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if err := s.cfg.DB.Flush(); err != nil && drainErr == nil {
		drainErr = err
	}
	s.cfg.Logf("server: drained")
	return drainErr
}
