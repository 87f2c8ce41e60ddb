package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for PrimaryConfig.
const (
	DefaultBacklogBytes      = 16 << 20
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// maxFramePayloadBytes bounds the record payload per records frame so
	// one stream write never approaches the protocol frame limit.
	maxFramePayloadBytes = 1 << 20
)

// PrimaryConfig configures the primary-side shipper.
type PrimaryConfig struct {
	// Shards is the engine's shard count (1 for unsharded).
	Shards int
	// LastSeqs returns the engine's current per-shard applied
	// watermarks (heartbeats and lag reference).
	LastSeqs func() []uint64
	// BacklogBytes bounds each shard's in-memory record ring; a follower
	// that falls further behind than this must re-bootstrap.
	BacklogBytes int64
	// HeartbeatInterval paces idle-stream heartbeats.
	HeartbeatInterval time.Duration
}

// Primary retains the recent commit stream of every shard and serves it
// to follower streams. Wire it to the engine with SetCommitHook ->
// OnCommit; the server calls Stream per REPLSYNC request.
type Primary struct {
	cfg      PrimaryConfig
	backlogs []*backlog

	mu      sync.Mutex
	waiters map[chan struct{}]struct{}
	closed  bool
	streams int

	framesSent  atomic.Int64
	recordsSent atomic.Int64
	bytesSent   atomic.Int64
}

// PrimaryStatus is the shipper's observable state (STATS / metrics).
type PrimaryStatus struct {
	Shards       int      `json:"shards"`
	Streams      int      `json:"streams"`
	LastSeqs     []uint64 `json:"last_seqs"`
	BacklogBytes int64    `json:"backlog_bytes"`
	Floors       []uint64 `json:"floors"`
	FramesSent   int64    `json:"frames_sent"`
	RecordsSent  int64    `json:"records_sent"`
	BytesSent    int64    `json:"bytes_sent"`
}

// NewPrimary builds a shipper whose backlog floors start at the engine's
// current watermarks: history before now is served by checkpoints, not
// the stream.
func NewPrimary(cfg PrimaryConfig) *Primary {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.BacklogBytes <= 0 {
		cfg.BacklogBytes = DefaultBacklogBytes
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	seqs := make([]uint64, cfg.Shards)
	if cfg.LastSeqs != nil {
		copy(seqs, cfg.LastSeqs())
	}
	p := &Primary{
		cfg:      cfg,
		backlogs: make([]*backlog, cfg.Shards),
		waiters:  make(map[chan struct{}]struct{}),
	}
	for i := range p.backlogs {
		p.backlogs[i] = newBacklog(cfg.BacklogBytes, seqs[i])
	}
	return p
}

// OnCommit retains one committed batch for shipping. It is called from
// the engine's commit hook — inside the shard's commit pipeline, in
// sequence order per shard — so it copies and returns quickly.
func (p *Primary) OnCommit(shard int, firstSeq uint64, count int, payload []byte) {
	if shard < 0 || shard >= len(p.backlogs) || count <= 0 {
		return
	}
	p.backlogs[shard].add(firstSeq, firstSeq+uint64(count)-1, payload)
	p.mu.Lock()
	for ch := range p.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	p.mu.Unlock()
}

// ErrPrimaryClosed stops streams when the primary shuts down.
var ErrPrimaryClosed = errors.New("replica: primary closed")

// Stream serves one follower: an immediate heartbeat (the handshake),
// then records frames whenever any shard's backlog is ahead of the
// follower's watermarks, heartbeats when idle. It returns nil when stop
// closes, and an error for stream-fatal conditions (after shipping an
// error frame so the follower knows why). send is called from this
// goroutine only.
func (p *Primary) Stream(watermarks []uint64, send func(frame []byte) error, stop <-chan struct{}) error {
	if len(watermarks) != len(p.backlogs) {
		msg := fmt.Sprintf("replica: watermark vector has %d shards, primary has %d", len(watermarks), len(p.backlogs))
		send(AppendErrorFrame(nil, msg))
		return errors.New(msg)
	}
	w := append([]uint64(nil), watermarks...)

	notify := make(chan struct{}, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPrimaryClosed
	}
	p.waiters[notify] = struct{}{}
	p.streams++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.waiters, notify)
		p.streams--
		p.mu.Unlock()
	}()

	if err := p.sendHeartbeat(send); err != nil {
		return err
	}
	heartbeat := time.NewTicker(p.cfg.HeartbeatInterval)
	defer heartbeat.Stop()

	for {
		progress := false
		for shard, b := range p.backlogs {
			payloads, next, err := b.collect(w[shard], maxFramePayloadBytes)
			if err != nil {
				send(AppendErrorFrame(nil, err.Error()))
				return err
			}
			if len(payloads) == 0 {
				continue
			}
			frame := AppendRecordsFrame(nil, shard, payloads)
			if err := send(frame); err != nil {
				return err
			}
			w[shard] = next
			progress = true
			p.framesSent.Add(1)
			p.recordsSent.Add(int64(len(payloads)))
			p.bytesSent.Add(int64(len(frame)))
		}
		if progress {
			// Re-scan immediately: a shard may have more than one
			// frame's worth pending.
			select {
			case <-stop:
				return nil
			default:
			}
			continue
		}
		select {
		case <-stop:
			return nil
		case <-notify:
		case <-heartbeat.C:
			if err := p.sendHeartbeat(send); err != nil {
				return err
			}
		}
	}
}

func (p *Primary) sendHeartbeat(send func([]byte) error) error {
	var seqs []uint64
	if p.cfg.LastSeqs != nil {
		seqs = p.cfg.LastSeqs()
	} else {
		seqs = make([]uint64, len(p.backlogs))
	}
	frame := AppendHeartbeatFrame(nil, seqs)
	if err := send(frame); err != nil {
		return err
	}
	p.framesSent.Add(1)
	p.bytesSent.Add(int64(len(frame)))
	return nil
}

// Status reports the shipper's current state.
func (p *Primary) Status() PrimaryStatus {
	st := PrimaryStatus{
		Shards:      len(p.backlogs),
		FramesSent:  p.framesSent.Load(),
		RecordsSent: p.recordsSent.Load(),
		BytesSent:   p.bytesSent.Load(),
	}
	if p.cfg.LastSeqs != nil {
		st.LastSeqs = p.cfg.LastSeqs()
	}
	for _, b := range p.backlogs {
		bytes, floor, _ := b.snapshot()
		st.BacklogBytes += bytes
		st.Floors = append(st.Floors, floor)
	}
	p.mu.Lock()
	st.Streams = p.streams
	p.mu.Unlock()
	return st
}

// Close marks the primary shut down; active Streams exit via their stop
// channels (the server closes them on drain).
func (p *Primary) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}
