package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
)

// Group commit. Every local write (Put, PutTTL, Delete, Incr,
// CompareAndSwap, ApplyBatch) enters the engine through Submit and
// leaves through Write.Wait; the shard layer, and the server through it,
// call the two apart. The queue between them is LevelDB's writer queue
// (DBImpl::Write + BuildBatchGroup) and has no goroutine of its own: a
// Wait whose write is still queued, and that finds no leader, leads. The
// leader takes the writes at the head of the queue, in arrival order and
// up to maxGroupOps ops, and runs commit once for all of them: one
// slowdown sleep, one resolution pass, one value-log append and sync, one
// WAL record, one fsync if any member asked for sync, one insert and one
// watermark. It leads again while its own write is still queued, and
// returns once it is done; the next waiter takes over. Any waiter may
// lead, whatever its place in the queue, so a caller waiting on several
// engines never waits for another caller to lead, and a Submit that finds
// the queue full leads to make room.
const (
	// maxGroupOps bounds the ops a leader folds into one group, and so
	// the record one fsync waits for; a larger write commits alone.
	maxGroupOps = 4096
	// maxQueued is the queue's capacity: room for every write a pipelined
	// server or a pool of embedded writers has in flight at once, so a
	// Submit blocks only when writers outrun the disk.
	maxQueued = 4096
)

// Write is a write submitted to the commit queue. Wait for it exactly
// once; the handle is recycled then.
type Write struct {
	db   *DB
	ops  []BatchOp
	one  [1]BatchOp // a single-op write's ops, so writeOne allocates nothing
	sync bool
	// lat is the latency histogram Wait records the write in, timed from
	// start.
	lat   func(*iostat.OpLatencies) *iostat.Histogram
	start time.Time
	// next links the members of the group a leader is committing.
	next *Write
	// done receives once, when the write's group has committed; seq and
	// err are its outcome, written before.
	done chan struct{}
	seq  uint64
	err  error
}

var writes = sync.Pool{New: func() any { return &Write{done: make(chan struct{}, 1)} }}

func (db *DB) newWrite(sync bool, lat func(*iostat.OpLatencies) *iostat.Histogram) *Write {
	w := writes.Get().(*Write)
	w.db, w.sync, w.lat, w.start = db, sync, lat, time.Now()
	return w
}

// Submit queues ops to commit atomically, as one WAL record, and fsynced
// before Wait returns when sync is true (or Options.SyncWAL is set). Ops
// are validated here with no lock held; an invalid op fails the whole
// write, which Wait then reports. Writes commit in Submit order, so one
// goroutine's two Submits commit in the order it made them even if it
// waits for neither in between. The queue holds maxQueued writes; a
// Submit that finds it full leads groups until there is room. ops must
// not change until Wait returns; an RMW op's outcome is in its RMW then.
func (db *DB) Submit(ops []BatchOp, sync bool) *Write {
	w := db.newWrite(sync, latBatch)
	w.ops = ops
	return db.enqueue(w)
}

func (db *DB) enqueue(w *Write) *Write {
	var err error
	for i := 0; i < len(w.ops) && err == nil; i++ {
		err = w.ops[i].check()
	}
	if err != nil || len(w.ops) == 0 {
		w.seq, w.err = db.LastSeq(), err
		w.done <- struct{}{}
		return w
	}
	for {
		select {
		case db.queue <- w:
			return w
		default:
		}
		db.lead <- struct{}{} // the queue is full: wait out any leader, then lead
		db.commitGroup()
		<-db.lead
	}
}

// Wait returns once the write has committed, leading groups while it is
// queued and no one else leads. It returns the group's watermark, which
// is at least the write's own last sequence number and so its
// read-your-writes coordinate, and the group's error. An RMW op that did
// not resolve says why in its RMW.Err and leaves the group's error alone.
func (w *Write) Wait() (uint64, error) {
	for db := w.db; len(w.done) == 0; { // not committed yet
		select {
		case db.lead <- struct{}{}:
			db.commitGroup()
			<-db.lead
		case <-w.done:
			w.done <- struct{}{} // put the token back for the receive below
		}
	}
	<-w.done
	seq, err := w.seq, w.err
	w.db.observe(w.lat, w.start)
	*w = Write{done: w.done}
	writes.Put(w)
	return seq, err
}

// commitGroup commits the writes at the head of the queue, up to
// maxGroupOps ops, as one, and hands each its outcome. Caller holds lead.
func (db *DB) commitGroup() {
	if len(db.queue) == 0 {
		return
	}
	// The soft backpressure delay comes first, so that writes arriving
	// while the leader sleeps join its group instead of the next one.
	db.slowdown()
	// Only the leader receives, so a write counted is a write there.
	first := <-db.queue
	last, ops, sync := first, first.ops, first.sync
	for len(ops) < maxGroupOps && len(db.queue) > 0 {
		w := <-db.queue
		if last == first {
			ops = slices.Clip(ops) // first.ops is the caller's: append copies it
		}
		last.next, last = w, w
		ops, sync = append(ops, w.ops...), sync || w.sync
	}
	n, err := db.commit(ops, sync, 0, nil)
	if n > 0 {
		db.stats.ObserveGroup(n)
	}
	seq := db.LastSeq()
	for w := first; w != nil; {
		next := w.next
		w.seq, w.err = seq, err
		w.done <- struct{}{} // w may be recycled from here on
		w = next
	}
}

// commit is the engine's one write path: a group of local writes
// (commitGroup), ApplyReplicated and value-log GC's relocations all end
// here, and it is the only place a WAL record is appended and the commit
// hook fires. ops must be non-empty, and a local write's ops valid
// (Submit checked them).
//
// The caller has slept the soft backpressure delay (slowdown), with no
// lock held: a group's leader once for the group. A replicated record
// (rec is the record as shipped, firstSeq its ops[0]'s sequence number)
// was resolved and separated on its primary and is logged verbatim.
// Then, one commit at a time under commitMu: room
// check (db.mu); conditional ops resolved (resolveConditional); large
// values appended to the value log, and synced when the write is
// durable; sequence numbers, WAL append and fsync, commit hook, memtable
// insert, watermark and seq waiters (db.mu), and a memtable freeze when
// the buffer is full. db.mu is held for the two short memory-only steps
// and for no I/O, so a read never waits for a write's fsync.
//
// What the order guarantees:
//   - A conditional op's read and its insert share the critical section:
//     no write lands in between, so an INCR or CAS never erases a write
//     that returned before it, and a relocation never one that raced it.
//   - A value-log entry's append and its pointer's insert share it too,
//     so once GC has held commitMu, an entry of a sealed segment that the
//     tree does not point at is dead.
//   - Nothing is readable before its WAL record is appended, and synced
//     when the caller asked: the memtable insert comes after both.
//   - The watermark advances only after the insert, and every read is
//     bounded by the watermark it loads (pin), so no read sees part of a
//     batch.
//   - Hook calls are gap-free and in sequence order: one commit at a time.
//   - A memtable is frozen only between commits (freezeMem needs
//     commitMu), so no record lands in a memtable whose log went to the
//     flusher.
//
// It returns how many ops entered the memtable: fewer than len(ops) when
// conditional ops were left out (see resolveConditional) or a replicated
// record overlapped the watermark.
func (db *DB) commit(ops []BatchOp, sync bool, firstSeq kv.SeqNum, rec []byte) (int, error) {
	replicated := rec != nil
	conditional := false
	if !replicated {
		for i := range ops {
			conditional = conditional || ops[i].RMW != nil || ops[i].ifPointer != nil
		}
	}

	if !db.commitMu.TryLock() {
		// The clock is read only when there is a wait to measure.
		start := time.Now()
		db.commitMu.Lock()
		db.stats.CommitWaitNs.Add(int64(time.Since(start)))
	}
	defer db.commitMu.Unlock()

	db.mu.Lock()
	err := db.waitRoomLocked()
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if conditional {
		if ops = db.resolveConditional(ops); len(ops) == 0 {
			return 0, nil
		}
	}
	// ops is the logical record the hook ships, stored what the WAL and
	// the memtable hold; they part only when value separation rewrites an
	// op into a pointer.
	stored, separated := ops, false
	if !replicated && db.vlog != nil {
		for i, op := range ops {
			if op.Kind != kv.KindSet || len(op.Value) < db.opts.ValueThreshold {
				continue
			}
			ptr, err := db.vlog.Append(op.Key, op.Value)
			if err != nil {
				return 0, err
			}
			if !separated {
				stored, separated = slices.Clone(ops), true
			}
			stored[i] = BatchOp{Kind: kv.KindValuePointer, Key: op.Key, Value: ptr.Encode()}
		}
		// A write acknowledged as durable needs the values its WAL record
		// points into durable too; one value-log sync covers the batch.
		if separated && (sync || db.opts.SyncWAL) {
			if err := db.vlog.Sync(); err != nil {
				return 0, err
			}
		}
	}
	// Under commitMu the watermark stands still: only a commit moves it.
	prev := db.lastSeq()
	if replicated {
		if firstSeq+kv.SeqNum(len(ops))-1 <= prev {
			return 0, nil // duplicate delivery
		}
		if firstSeq > prev+1 {
			return 0, fmt.Errorf("%w: batch starts at %d, engine at %d", ErrReplicaGap, firstSeq, prev)
		}
	} else {
		firstSeq = prev + 1
	}
	if db.wal != nil {
		if rec == nil {
			rec = encodeBatch(firstSeq, stored)
		}
		if err := db.wal.AddRecord(rec); err != nil {
			return 0, err
		}
		db.stats.WALRecords.Add(1)
		if sync || db.opts.SyncWAL {
			start := time.Now()
			err := db.wal.Sync()
			db.stats.WALSyncNs.Add(int64(time.Since(start)))
			if err != nil {
				return 0, err
			}
			db.stats.WALSyncs.Add(1)
		}
	}
	if db.commitHook != nil && !replicated {
		// The replication stream carries the logical record — original
		// kinds and values, not vlog pointers a follower couldn't resolve.
		payload := rec
		if rec == nil || separated {
			payload = encodeBatch(firstSeq, ops)
		}
		db.commitHook(uint64(firstSeq), len(ops), payload)
	}
	// A replicated record may overlap the watermark; the already-applied
	// prefix is in the memtable (or flushed) from its first delivery.
	skip := int(prev + 1 - firstSeq)
	n := len(stored) - skip
	db.stats.BytesWritten.Add(db.insert(firstSeq+kv.SeqNum(skip), stored[skip:]))
	if !replicated {
		db.stats.WriteOps.Add(int64(n))
	}

	db.mu.Lock()
	db.seq.Store(uint64(firstSeq) + uint64(len(stored)) - 1)
	db.notifySeqLocked()
	db.mu.Unlock()

	if db.mem.ApproxSize() >= db.opts.MemtableBytes {
		if err := db.freezeMem(); err != nil {
			// The write is logged, inserted and visible: it succeeded. The
			// failed rotation left (mem, wal) paired as they were; it
			// becomes the sticky background error the next write meets.
			db.mu.Lock()
			db.setBgErrLocked(fmt.Errorf("wal rotation: %w", err))
			db.mu.Unlock()
		}
	}
	return n, nil
}

// insert adds ops to the active memtable as entries firstSeq,
// firstSeq+1, … It is the only caller of mem.Add: commit's last data
// step, and all of what WAL replay does with a recovered record. Caller
// holds commitMu or is in Open, and moves the watermark afterwards.
func (db *DB) insert(firstSeq kv.SeqNum, ops []BatchOp) (nbytes int64) {
	for i, op := range ops {
		db.mem.Add(kv.Entry{Key: kv.MakeInternalKey(op.Key, firstSeq+kv.SeqNum(i), op.Kind), Value: op.Value})
		nbytes += int64(len(op.Key) + len(op.Value))
	}
	return nbytes
}

// check validates a locally submitted op.
func (op *BatchOp) check() error {
	if len(op.Key) == 0 {
		return errors.New("lsmkv: empty key")
	}
	switch op.Kind {
	case kv.KindSet, kv.KindDelete:
	case kv.KindSetTTL:
		// The value already carries its expiry prefix. TTL entries are
		// never vlog-separated (the separation gate tests KindSet).
		if len(op.Value) < kv.ExpiryLen {
			return errors.New("lsmkv: ttl op value missing expiry prefix")
		}
	default:
		return errors.New("lsmkv: batch op kind must be set, setttl, or delete")
	}
	return nil
}

// resolveConditional returns ops as they commit: plain ops unchanged, and
// each conditional op replaced by the plain set it resolved to, or left
// out. An RMW op (IncrOp, CASOp) left out says why in its RMW.Err; a
// value-log relocation (ifPointer) is left out, its Value cleared, once
// its key no longer holds the pointer it was copied from — a write since
// then won. Resolution is in slice order and each op sees every op kept
// before it: two INCRs of one key in one batch serialize exactly as if
// they had committed apart. Caller holds commitMu, so nothing commits
// between these reads and the insert.
func (db *DB) resolveConditional(ops []BatchOp) []BatchOp {
	out := make([]BatchOp, 0, len(ops))
	for i, op := range ops {
		switch {
		case op.RMW != nil:
			value, err := db.rmwValue(op, out)
			if op.RMW.Err = err; err == nil {
				out = append(out, PutOp(op.Key, value))
			}
		case op.ifPointer != nil:
			if db.pointsAt(op.Key, op.ifPointer, out) {
				out = append(out, PutOp(op.Key, op.Value))
			} else {
				ops[i].Value = nil
			}
		default:
			out = append(out, op)
		}
	}
	return out
}

// rmwValue computes the value an RMW op stores.
func (db *DB) rmwValue(op BatchOp, pending []BatchOp) ([]byte, error) {
	raw, kind, found, err := db.latest(op.Key, pending)
	var cur []byte
	if err == nil && found {
		// A TTL entry is judged by the engine's clock like any other read.
		cur, _, found, err = db.visible(op.Key, kind, raw)
	}
	if err != nil {
		return nil, err
	}
	r := op.RMW
	if !r.Incr {
		if found != (r.Expected != nil) || !bytes.Equal(cur, r.Expected) {
			return nil, ErrCASMismatch
		}
		return op.Value, nil
	}
	var n int64
	if found {
		var ok bool
		if n, ok = DecodeCounter(cur); !ok {
			return nil, ErrNotCounter
		}
	}
	r.Result = n + r.Delta
	return AppendCounter(nil, r.Result), nil
}

// latest is the engine's own read of key's newest entry, raw, for
// conditional ops and value-log GC: pending, the ops of a batch kept so
// far, overlaid on the engine (the newest pending op for key wins). It is
// neither counted nor timed as a Get: these are not user reads.
func (db *DB) latest(key []byte, pending []BatchOp) (raw []byte, kind kv.Kind, found bool, err error) {
	for i := len(pending) - 1; i >= 0; i-- {
		if op := pending[i]; bytes.Equal(op.Key, key) {
			return op.Value, op.Kind, true, nil
		}
	}
	var hit [1]pointHit
	arena, err := db.walkOne(key, &hit, nil, kv.MaxSeqNum, false, nil)
	if err != nil {
		return nil, 0, false, err
	}
	h := &hit[0]
	return arena[h.start:h.end], h.kind, h.found, nil
}

// pointsAt reports whether key's newest entry, pending overlaid as in
// latest, is the value-log pointer whose encoding is want.
func (db *DB) pointsAt(key, want []byte, pending []BatchOp) bool {
	raw, kind, found, err := db.latest(key, pending)
	return err == nil && found && kind == kv.KindValuePointer && bytes.Equal(raw, want)
}
