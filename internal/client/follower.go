package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"lsmkv/internal/replica"
	"lsmkv/internal/server"
)

// Target is the engine surface a follower applies records to; *lsmkv.DB
// satisfies it.
type Target interface {
	// NumShards returns the engine's shard count.
	NumShards() int
	// LastSeqs returns the per-shard applied watermarks.
	LastSeqs() []uint64
	// ApplyReplicated applies one logical WAL record to a shard,
	// preserving its sequence numbers; idempotent at or below the
	// watermark.
	ApplyReplicated(shard int, payload []byte) (uint64, error)
}

// FollowerConfig configures a follower's replication loop.
type FollowerConfig struct {
	// Addr is the primary server's address.
	Addr string
	// DB is the local engine records are applied to.
	DB Target
	// RetryBackoff is the initial reconnect delay (default 100ms),
	// doubling to followerMaxBackoff.
	RetryBackoff time.Duration
	// Logf logs loop transitions; nil discards.
	Logf func(format string, args ...any)
}

const (
	// followerIdle drops a stream that delivers no frame for this long:
	// heartbeats arrive every ~500ms, so a silently dead link is redialed
	// quickly. It is the follower client's RequestTimeout.
	followerIdle = 10 * time.Second
	// followerMaxBackoff caps the doubling reconnect delay.
	followerMaxBackoff = 5 * time.Second
)

// Follower maintains a replication stream from a primary: one REPLSYNC
// call per connection lifetime, carrying the engine's recovered
// watermarks, whose frames it applies; it reconnects with backoff on any
// transport failure. Start it after the engine opens; Stop joins the
// loop.
type Follower struct {
	cfg  FollowerConfig
	cl   *Client
	stop chan struct{}
	once sync.Once
	done sync.WaitGroup

	mu          sync.Mutex
	connected   bool
	fatal       bool
	lastErr     string
	primarySeqs []uint64
	reconnects  int64
	frames      int64
	records     int64
	bytes       int64
}

// NewFollower builds a follower; call Start to begin streaming.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Follower{
		cfg:  cfg,
		cl:   newClient(cfg.Addr, Options{RequestTimeout: followerIdle}),
		stop: make(chan struct{}),
	}
}

// Start launches the replication loop.
func (f *Follower) Start() {
	f.done.Add(1)
	go f.run()
}

// Stop terminates the loop and waits for it to exit: closing the client
// ends the stream in flight. Idempotent.
func (f *Follower) Stop() {
	f.once.Do(func() {
		close(f.stop)
		f.cl.Close()
	})
	f.done.Wait()
}

func (f *Follower) run() {
	defer f.done.Done()
	backoff := f.cfg.RetryBackoff
	for {
		err := f.syncOnce(&backoff)
		if f.stopped() {
			f.setDisconnected(nil)
			return
		}
		f.setDisconnected(err)
		if errors.Is(err, replica.ErrTooOld) {
			f.mu.Lock()
			f.fatal = true
			f.mu.Unlock()
			f.cfg.Logf("replica: stream fatal: %v", err)
			return
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, followerMaxBackoff)
	}
}

// syncOnce runs one connection lifetime: a REPLSYNC stream at the
// engine's watermarks, applying frames until the link breaks, the stream
// turns fatal (ErrTooOld) or Stop closes the client.
func (f *Follower) syncOnce(backoff *time.Duration) error {
	watermarks := f.cfg.DB.LastSeqs()
	first := true
	return f.cl.stream(&server.Request{Op: server.OpReplSync, Seqs: watermarks}, func(payload []byte) (bool, error) {
		resp, err := decode(payload, false)
		if err != nil {
			return false, err
		}
		// The body is this frame's own allocation, so applied records may
		// alias it.
		frame, err := replica.DecodeFrame(resp.Value)
		if err != nil {
			return false, err
		}
		if first {
			// Any decoded frame completes the handshake.
			first = false
			*backoff = f.cfg.RetryBackoff
			f.setConnected(watermarks)
		}
		f.mu.Lock()
		f.frames++
		f.mu.Unlock()
		switch frame.Kind {
		case replica.FrameHeartbeat:
			f.mu.Lock()
			f.primarySeqs = append(f.primarySeqs[:0], frame.Seqs...)
			f.mu.Unlock()
		case replica.FrameRecords:
			if frame.Shard >= f.cfg.DB.NumShards() {
				return false, fmt.Errorf("replica: frame for shard %d, engine has %d", frame.Shard, f.cfg.DB.NumShards())
			}
			for _, rec := range frame.Records {
				if _, err := f.cfg.DB.ApplyReplicated(frame.Shard, rec); err != nil {
					return false, err
				}
				f.mu.Lock()
				f.records++
				f.bytes += int64(len(rec))
				f.mu.Unlock()
			}
		case replica.FrameError:
			// The primary words a fallen-off watermark as ErrTooOld
			// wrapped with the floor it missed.
			if detail, ok := strings.CutPrefix(frame.Err, replica.ErrTooOld.Error()); ok {
				return false, fmt.Errorf("%w%s", replica.ErrTooOld, detail)
			}
			return false, fmt.Errorf("replica: stream error from primary: %s", frame.Err)
		}
		return true, nil
	})
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

func (f *Follower) setConnected(watermarks []uint64) {
	f.mu.Lock()
	f.connected = true
	f.lastErr = ""
	f.reconnects++
	f.mu.Unlock()
	f.cfg.Logf("replica: streaming from %s at watermarks %v", f.cfg.Addr, watermarks)
}

func (f *Follower) setDisconnected(err error) {
	f.mu.Lock()
	was := f.connected
	f.connected = false
	if err != nil {
		f.lastErr = err.Error()
	}
	f.mu.Unlock()
	if was && err != nil {
		f.cfg.Logf("replica: stream to %s dropped: %v", f.cfg.Addr, err)
	}
}

// Status reports the loop's current state, including live lag against
// the last heartbeat.
func (f *Follower) Status() server.FollowerStatus {
	applied := f.cfg.DB.LastSeqs()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := server.FollowerStatus{
		Addr:           f.cfg.Addr,
		Connected:      f.connected,
		Fatal:          f.fatal,
		AppliedSeqs:    applied,
		PrimarySeqs:    append([]uint64(nil), f.primarySeqs...),
		LastError:      f.lastErr,
		Reconnects:     f.reconnects,
		FramesReceived: f.frames,
		RecordsApplied: f.records,
		BytesApplied:   f.bytes,
	}
	for i, ps := range st.PrimarySeqs {
		if i < len(applied) && ps > applied[i] {
			st.Lag += ps - applied[i]
		}
	}
	return st
}

// WaitCaughtUp blocks until the follower is connected and its applied
// watermarks have reached the primary's last heartbeat, or the timeout
// elapses.
func (f *Follower) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := f.Status()
		if st.Fatal {
			return fmt.Errorf("replica: follower fatal: %s", st.LastError)
		}
		if st.Connected && len(st.PrimarySeqs) > 0 && st.Lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica: not caught up after %v (lag %d, connected %v, err %q)",
				timeout, st.Lag, st.Connected, st.LastError)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
