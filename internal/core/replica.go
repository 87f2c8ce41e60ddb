package core

import (
	"errors"
	"fmt"
	"time"

	"lsmkv/internal/kv"
)

// Replication hooks: the engine exposes its commit stream (every WAL
// record, in sequence order) to a primary-side shipper, and accepts
// already-sequenced records on a follower via ApplyReplicated, which
// funnels them through the same WAL + memtable path recovery uses. The
// applied-sequence watermark is durable for free: replicated records
// land in the follower's own WAL and the manifest's LastSeq advances
// with every version install, so a restarted follower recovers its
// watermark exactly like a crashed primary recovers acked writes.

// Replication errors.
var (
	// ErrReplicaGap means a replicated batch starts beyond the engine's
	// next expected sequence number; applying it would leave a hole in
	// history. The follower must resync from an older watermark or
	// re-bootstrap from a checkpoint.
	ErrReplicaGap = errors.New("lsmkv: replicated batch leaves a sequence gap")
	// ErrWaitTimeout is returned by WaitForSeq when the engine does not
	// reach the target sequence number within the deadline.
	ErrWaitTimeout = errors.New("lsmkv: timed out waiting for sequence number")
)

// CommitHook observes every committed write batch in sequence order,
// gap-free. It is invoked inside the commit pipeline (commitMu held,
// db.mu not), after the batch's WAL record is appended and synced and
// before the batch is readable: the next commit waits for it, so it must
// be fast, and it must not write to the DB. The payload is the logical
// WAL record (encodeBatch framing, pre-value-separation), valid only for
// the duration of the call; implementations that retain it must copy.
type CommitHook func(firstSeq uint64, count int, payload []byte)

// SetCommitHook installs fn as the engine's commit observer; pass nil
// to detach. Safe to call at any time: it waits out the commit in flight
// (the hook is guarded by commitMu), so once it returns the previous hook
// is never called again.
func (db *DB) SetCommitHook(fn CommitHook) {
	db.commitMu.Lock()
	db.commitHook = fn
	db.commitMu.Unlock()
}

// LastSeq returns the engine's last applied sequence number: writes
// with seq <= LastSeq() are visible to reads. It takes no lock.
func (db *DB) LastSeq() uint64 { return db.seq.Load() }

// lastSeq is LastSeq as a kv.SeqNum.
func (db *DB) lastSeq() kv.SeqNum { return kv.SeqNum(db.seq.Load()) }

// seqWaiter parks one WaitForSeq caller until the watermark reaches target.
type seqWaiter struct {
	target kv.SeqNum
	ch     chan struct{}
}

// notifySeqLocked wakes every waiter whose target has been reached.
// Caller holds db.mu.
func (db *DB) notifySeqLocked() {
	if len(db.seqWaiters) == 0 {
		return
	}
	kept := db.seqWaiters[:0]
	for _, w := range db.seqWaiters {
		if db.lastSeq() >= w.target {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	db.seqWaiters = kept
}

// closeSeqWaitersLocked releases every parked waiter (shutdown path);
// they observe db.closed on wake.
func (db *DB) closeSeqWaitersLocked() {
	for _, w := range db.seqWaiters {
		close(w.ch)
	}
	db.seqWaiters = nil
}

// WaitForSeq blocks until the engine's applied sequence number reaches
// seq, the timeout elapses (ErrWaitTimeout), or the engine closes
// (ErrClosed). timeout <= 0 waits without a deadline. This is the
// read-your-writes primitive: a client that saw its write acked at
// sequence s waits for s on a replica before reading.
func (db *DB) WaitForSeq(seq uint64, timeout time.Duration) error {
	target := kv.SeqNum(seq)
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.lastSeq() >= target {
		db.mu.Unlock()
		return nil
	}
	w := seqWaiter{target: target, ch: make(chan struct{})}
	db.seqWaiters = append(db.seqWaiters, w)
	db.mu.Unlock()

	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-w.ch:
		case <-timer.C:
			db.mu.Lock()
			// Unregister; the waiter may have been satisfied while we
			// raced the timer, in which case its channel is closed and
			// no longer in the slice.
			for i := range db.seqWaiters {
				if db.seqWaiters[i].ch == w.ch {
					db.seqWaiters = append(db.seqWaiters[:i], db.seqWaiters[i+1:]...)
					db.mu.Unlock()
					return ErrWaitTimeout
				}
			}
			db.mu.Unlock()
			return nil // satisfied concurrently with the timeout
		}
	} else {
		<-w.ch
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.lastSeq() >= target {
		return nil
	}
	return ErrClosed
}

// ApplyReplicated applies one logical WAL record shipped from a
// primary, preserving its original sequence numbers. The payload is
// appended verbatim to the follower's own WAL (same durability contract
// as local writes) and its entries inserted into the memtable, so the
// record flows through exactly the machinery crash recovery replays.
//
// Records at or below the current watermark are idempotent no-ops;
// a record starting beyond watermark+1 returns ErrReplicaGap. Returns
// the engine's applied watermark after the call. The payload is not
// retained: the WAL writer and the memtable both copy what they keep.
func (db *DB) ApplyReplicated(payload []byte) (uint64, error) {
	firstSeq, ops, err := decodeBatch(payload)
	if err != nil {
		return 0, err
	}
	if len(ops) == 0 {
		return db.LastSeq(), nil
	}
	db.slowdown()
	n, err := db.commit(ops, false, firstSeq, payload)
	if n > 0 {
		db.stats.ReplRecordsApplied.Add(1)
		db.stats.ReplBytesApplied.Add(int64(len(payload)))
	}
	if err != nil {
		return 0, err
	}
	return db.LastSeq(), nil
}

// NewSnapshotAt pins a read view at an explicit sequence number, which
// must not exceed the current watermark. Primary and follower pin the
// same seq to compare state (Merkle verification) at an identical
// logical time. The seq should be recent: entries shadowed before the
// oldest live snapshot may already be compacted away, in which case the
// view is best-effort. Callers must Release the snapshot.
func (db *DB) NewSnapshotAt(seq uint64) (*Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	s := kv.SeqNum(seq)
	if s > db.lastSeq() {
		return nil, fmt.Errorf("lsmkv: snapshot seq %d ahead of engine watermark %d", seq, db.lastSeq())
	}
	db.snapshots[s]++
	return &Snapshot{db: db, seq: s}, nil
}
