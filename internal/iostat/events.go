package iostat

import (
	"fmt"
	"sync"
	"time"
)

// EventType names an engine or server lifecycle event.
type EventType string

// Event types recorded by the engine and the serving layer.
const (
	// EventFlush is a memtable flush reaching level 0.
	EventFlush EventType = "flush"
	// EventCompaction is a merging compaction.
	EventCompaction EventType = "compaction"
	// EventTrivialMove is a compaction satisfied by re-parenting files.
	EventTrivialMove EventType = "trivial-move"
	// EventWALRotate is a write-ahead-log rotation.
	EventWALRotate EventType = "wal-rotate"
	// EventWALRecovery is a crash-recovery WAL replay at open.
	EventWALRecovery EventType = "wal-recovery"
	// EventVlogGC is a value-log garbage collection pass.
	EventVlogGC EventType = "vlog-gc"
	// EventWriteStall is a write blocking on the hard stop (L0 stop
	// trigger or full flush queue); DurMs is the blocked time.
	EventWriteStall EventType = "write-stall"
	// EventWriteSlowdown marks the start of a soft-backpressure episode:
	// writes are being delayed because L0 or compaction debt crossed the
	// slowdown triggers. One event per episode, not per delayed write.
	EventWriteSlowdown EventType = "write-slowdown"
	// EventThrottle is a request shed by the server's token bucket.
	EventThrottle EventType = "throttle-shed"
	// EventConnRejected is a connection refused over the server limit.
	EventConnRejected EventType = "conn-rejected"
	// EventDrain is the server starting its graceful shutdown.
	EventDrain EventType = "drain"
	// EventCheckpoint is a completed online checkpoint (consistent file
	// set copied without pausing writes).
	EventCheckpoint EventType = "checkpoint"
	// EventTune is one online-tuner decision: Detail carries the sampled
	// signal snapshot, the knob delta, and the rationale, so the event
	// log alone reconstructs why the engine moved (see TUNING.md).
	EventTune EventType = "tune"
	// EventRetune is the engine applying a live knob change through
	// core.DB.Retune (whether the tuner or an operator asked for it);
	// Detail lists exactly which knobs changed and to what.
	EventRetune EventType = "retune"
)

// Event is one recorded lifecycle event. FromLevel/ToLevel are -1 when
// not applicable.
type Event struct {
	// Seq numbers events in recording order, starting at 1; gaps never
	// occur, so Seq of the oldest retained event tells how many were
	// evicted from the ring.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type EventType `json:"type"`
	// DurMs is the event duration (0 for instantaneous events).
	DurMs float64 `json:"dur_ms,omitempty"`
	// FromLevel and ToLevel locate compactions and flushes in the tree.
	FromLevel int `json:"from_level"`
	ToLevel   int `json:"to_level"`
	// InputFiles/OutputFiles and InputBytes/OutputBytes size the work.
	InputFiles  int    `json:"input_files,omitempty"`
	OutputFiles int    `json:"output_files,omitempty"`
	InputBytes  uint64 `json:"input_bytes,omitempty"`
	OutputBytes uint64 `json:"output_bytes,omitempty"`
	// Detail carries free-form context (compaction reason, WAL number).
	Detail string `json:"detail,omitempty"`
	// Shard identifies which shard engine recorded the event in a merged
	// multi-shard view (set by the shard router; 0 on single-engine rings,
	// where it is also omitted from JSON).
	Shard int `json:"shard,omitempty"`
}

// String renders the event as one log-style line.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %s %s", e.Seq, e.Time.Format("15:04:05.000"), e.Type)
	if e.FromLevel >= 0 || e.ToLevel >= 0 {
		s += fmt.Sprintf(" L%d->L%d", e.FromLevel, e.ToLevel)
	}
	if e.InputFiles > 0 || e.OutputFiles > 0 {
		s += fmt.Sprintf(" files %d->%d", e.InputFiles, e.OutputFiles)
	}
	if e.InputBytes > 0 || e.OutputBytes > 0 {
		s += fmt.Sprintf(" bytes %d->%d", e.InputBytes, e.OutputBytes)
	}
	if e.DurMs > 0 {
		s += fmt.Sprintf(" (%.1fms)", e.DurMs)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// EventLog is a bounded in-memory ring of Events: the most recent
// capacity events are retained, older ones are evicted. Events are rare
// (flushes, compactions, sheds), so a mutex suffices; the hot read/write
// paths never touch it.
type EventLog struct {
	mu  sync.Mutex
	buf []Event // ring storage, len == capacity
	n   int     // events currently retained (<= len(buf))
	seq uint64  // total events ever added
}

// DefaultEventLogSize is the ring's capacity.
const DefaultEventLogSize = 512

// NewEventLog returns a ring retaining the last DefaultEventLogSize
// events.
func NewEventLog() *EventLog {
	return &EventLog{buf: make([]Event, DefaultEventLogSize)}
}

// Add records e, stamping Seq and (when zero) Time.
func (l *EventLog) Add(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	l.buf[int(l.seq-1)%len(l.buf)] = e
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// Events returns the retained events in chronological order (oldest
// first).
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	start := int(l.seq) - l.n // index (in total order) of the oldest retained
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(start+i)%len(l.buf)])
	}
	return out
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
