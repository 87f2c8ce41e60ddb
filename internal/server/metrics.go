package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
	"lsmkv/internal/replica"
	"lsmkv/internal/tuner"
)

// Metrics is the server's live instrument: connection lifecycle, request
// counts and latencies per opcode, and backpressure outcomes; its
// Snapshot adds how the engine grouped commits. All fields are safe for
// concurrent use; read them through Snapshot.
type Metrics struct {
	start time.Time
	// engine reads the engine's counters, where commit groups form and are
	// counted.
	engine func() iostat.Snapshot

	ConnsAccepted atomic.Int64
	ConnsRejected atomic.Int64 // over the connection limit
	ConnsActive   atomic.Int64

	// Inflight counts requests decoded but not yet answered.
	Inflight atomic.Int64
	// Throttled counts requests shed by the token bucket.
	Throttled atomic.Int64
	// ThrottleWaitNs accumulates time writers spent waiting for tokens.
	ThrottleWaitNs atomic.Int64
	// DecodeErrors counts malformed frames.
	DecodeErrors atomic.Int64

	BytesIn  atomic.Int64
	BytesOut atomic.Int64

	// Per-opcode request counts and service-latency histograms. The
	// histograms are lock-free; quantiles come out via Snapshot.
	Requests [opMax]atomic.Int64
	Latency  [opMax]iostat.Histogram
}

func newMetrics(engine func() iostat.Snapshot) *Metrics {
	return &Metrics{start: time.Now(), engine: engine}
}

// observeOp records one served request of the given opcode.
func (m *Metrics) observeOp(op Opcode, dur time.Duration) {
	if op < opMax {
		m.Requests[op].Add(1)
		m.Latency[op].Observe(dur)
	}
	m.Inflight.Add(-1)
}

// OpSnapshot is one opcode's served-request summary: the count plus the
// latency distribution (mean and p50/p90/p99/p999/max, microseconds).
// The latency is service latency as the server sees it — decode to
// response-queued — so it includes commit-group and throttle queueing.
type OpSnapshot = iostat.LatencySummary

// Snapshot is a point-in-time copy of the server metrics, shaped for
// JSON rendering on /metrics.
type Snapshot struct {
	UptimeSec      float64 `json:"uptime_sec"`
	ConnsAccepted  int64   `json:"conns_accepted"`
	ConnsRejected  int64   `json:"conns_rejected"`
	ConnsActive    int64   `json:"conns_active"`
	Inflight       int64   `json:"inflight"`
	Throttled      int64   `json:"throttled"`
	ThrottleWaitMs float64 `json:"throttle_wait_ms"`
	DecodeErrors   int64   `json:"decode_errors"`
	BytesIn        int64   `json:"bytes_in"`
	BytesOut       int64   `json:"bytes_out"`
	// RespBufAllocs counts response-buffer pool misses (fresh buffers
	// made); RespBufDrops counts oversized buffers released to the GC
	// instead of retained. Both near-flat under steady load means the
	// response path is allocation-free (see DESIGN.md).
	RespBufAllocs int64                 `json:"resp_buf_allocs"`
	RespBufDrops  int64                 `json:"resp_buf_drops"`
	Ops           map[string]OpSnapshot `json:"ops"`
	// CommitBatches, CommitOps and BatchSizeHist are the engine's commit
	// groups (iostat.Stats.BatchCommits, BatchedOps and GroupSizes), all
	// shards summed; MeanBatchSize is CommitOps over CommitBatches.
	CommitBatches int64            `json:"commit_batches"`
	CommitOps     int64            `json:"commit_ops"`
	MeanBatchSize float64          `json:"mean_batch_size"`
	BatchSizeHist map[string]int64 `json:"batch_size_hist"`
}

// Snapshot copies the current metric values.
func (m *Metrics) Snapshot() Snapshot {
	e := m.engine()
	s := Snapshot{
		UptimeSec:      time.Since(m.start).Seconds(),
		ConnsAccepted:  m.ConnsAccepted.Load(),
		ConnsRejected:  m.ConnsRejected.Load(),
		ConnsActive:    m.ConnsActive.Load(),
		Inflight:       m.Inflight.Load(),
		Throttled:      m.Throttled.Load(),
		ThrottleWaitMs: float64(m.ThrottleWaitNs.Load()) / 1e6,
		DecodeErrors:   m.DecodeErrors.Load(),
		BytesIn:        m.BytesIn.Load(),
		BytesOut:       m.BytesOut.Load(),
		RespBufAllocs:  respBufAllocs.Load(),
		RespBufDrops:   respBufDrops.Load(),
		Ops:            map[string]OpSnapshot{},
		CommitBatches:  e.BatchCommits,
		CommitOps:      e.BatchedOps,
		BatchSizeHist:  map[string]int64{},
	}
	if s.CommitBatches > 0 {
		s.MeanBatchSize = float64(s.CommitOps) / float64(s.CommitBatches)
	}
	for op := Opcode(1); op < opMax; op++ {
		if m.Requests[op].Load() == 0 {
			continue
		}
		s.Ops[op.String()] = m.Latency[op].Snapshot().Summary()
	}
	// Bucket labels: "1", "2", "4", ... and "1024+" for the open tail.
	for i, v := range e.GroupSizes {
		if v != 0 {
			label := strconv.Itoa(1 << i)
			if i == iostat.GroupSizeBuckets-1 {
				label += "+"
			}
			s.BatchSizeHist[label] = v
		}
	}
	return s
}

// EventsPayload groups the two event rings on the wire: the serving
// layer's incidents and the engine's lifecycle events.
type EventsPayload struct {
	Server []iostat.Event `json:"server"`
	Engine []iostat.Event `json:"engine"`
}

// MetricsPayload is the /metrics response body (also the STATS opcode's).
type MetricsPayload struct {
	Server Snapshot        `json:"server"`
	Engine iostat.Snapshot `json:"engine"`
	// EngineLatencies carries the engine's own per-operation histograms,
	// which every engine records. Unlike Server.Ops, these exclude
	// network, queueing, and commit-group wait. The "stall" key, present
	// once a write has stalled, times hard write stalls — pair it with the
	// engine's WriteStalls/WriteSlowdowns counters to diagnose
	// backpressure (see OPERATIONS.md).
	EngineLatencies map[string]iostat.LatencySummary `json:"engine_latencies,omitempty"`
	// EngineShards carries each shard's own counter snapshot, indexed by
	// shard — one entry at one shard (Engine above stays the aggregate). A
	// skewed shard shows up here as one entry's flush and stall counters
	// running ahead of its peers'.
	EngineShards []iostat.Snapshot `json:"engine_shards"`
	// EngineSeqs carries the per-shard applied sequence watermarks — the
	// replication coordinate system: compare a primary's and follower's
	// vectors to see lag shard by shard.
	EngineSeqs []uint64 `json:"engine_seq"`
	// Replication is this server's follower-loop status (set only on
	// followers): connection state, applied vs primary watermarks, lag.
	Replication *FollowerStatus `json:"replication,omitempty"`
	// ReplPrimary is the primary-side shipper's status (set only when
	// replication serving is enabled): live streams, backlog, floors.
	ReplPrimary *replica.PrimaryStatus `json:"repl_primary,omitempty"`
	// Tuner carries each shard tuner's status when the engine's online
	// self-tuner is running: the live knob set, the design point it is
	// steering toward, the latest signal sample, and its recent applied
	// moves (see TUNING.md and `lsmctl tune status`).
	Tuner []tuner.Status `json:"tuner,omitempty"`
	// Sketches carries each shard's write-stream sketch summary (the
	// HyperLogLog distinct-key estimate); per-key frequency goes through
	// the SKETCH opcode, which can name the key.
	Sketches []SketchSnapshot `json:"sketches,omitempty"`
	// Events holds both bounded event rings, oldest first. Against a
	// sharded engine every engine event carries the shard that recorded
	// it.
	Events EventsPayload `json:"events"`
}

// FollowerStatus is a follower's replication loop as STATS reports it
// (client.Follower fills it).
type FollowerStatus struct {
	Addr      string `json:"addr"`
	Connected bool   `json:"connected"`
	// Fatal is set when the loop has permanently stopped (watermark off
	// the primary's backlog: re-bootstrap required).
	Fatal bool `json:"fatal,omitempty"`
	// AppliedSeqs is the local engine's watermark vector; PrimarySeqs is
	// the primary's, from its latest heartbeat.
	AppliedSeqs []uint64 `json:"applied_seqs"`
	PrimarySeqs []uint64 `json:"primary_seqs"`
	// Lag is the summed per-shard sequence gap (0 when caught up).
	Lag            uint64 `json:"lag"`
	LastError      string `json:"last_error,omitempty"`
	Reconnects     int64  `json:"reconnects"`
	FramesReceived int64  `json:"frames_received"`
	RecordsApplied int64  `json:"records_applied"`
	BytesApplied   int64  `json:"bytes_applied"`
}

// DecodeMetrics parses a STATS response body — the one decoder the
// command-line tools share, so a field they read is declared once, above.
func DecodeMetrics(body []byte) (MetricsPayload, error) {
	var p MetricsPayload
	if err := json.Unmarshal(body, &p); err != nil {
		return p, fmt.Errorf("decode stats: %w", err)
	}
	return p, nil
}

func (s *Server) payload() MetricsPayload {
	p := MetricsPayload{
		Server:          s.metrics.Snapshot(),
		Engine:          s.cfg.DB.Stats(),
		EngineLatencies: s.cfg.DB.Latencies(),
		EngineShards:    s.cfg.DB.ShardStats(),
		EngineSeqs:      s.cfg.DB.LastSeqs(),
		Tuner:           s.cfg.DB.TunerStatus(),
		Events: EventsPayload{
			Server: s.Events(),
			Engine: s.cfg.DB.Events(),
		},
	}
	if s.cfg.Follower != nil {
		st := s.cfg.Follower()
		p.Replication = &st
	}
	if s.cfg.Repl != nil {
		st := s.cfg.Repl.Status()
		p.ReplPrimary = &st
	}
	for _, sk := range s.sketches {
		p.Sketches = append(p.Sketches, SketchSnapshot{DistinctKeys: sk.Card()})
	}
	return p
}

// observeWrite feeds the keys of a committed write to their shards'
// sketches — the write-stream feed behind SKETCH. An RMW op that did not
// resolve wrote nothing and is left out.
func (s *Server) observeWrite(ops []core.BatchOp) {
	for _, op := range ops {
		if op.RMW == nil || op.RMW.Err == nil {
			s.sketches[s.cfg.DB.ShardOf(op.Key)].Observe(op.Key)
		}
	}
}

// SketchSnapshot is one shard's write-stream sketch summary in STATS
// and /metrics.
type SketchSnapshot struct {
	DistinctKeys uint64 `json:"distinct_keys"`
}

// MetricsHandler returns an HTTP handler exposing /metrics (JSON of
// server counters, per-opcode latency quantiles, the engine's iostat
// snapshot, and both event rings), /events (the event rings alone), and
// /healthz (200 while serving, 503 while draining).
func (s *Server) MetricsHandler() http.Handler {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.payload())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, EventsPayload{Server: s.Events(), Engine: s.cfg.DB.Events()})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}
