package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"lsmkv/internal/kv"
)

// commit is the engine's one write path: Put, PutTTL, Delete, Incr,
// CompareAndSwap, ApplyBatch and ApplyReplicated all end here, and it is
// the only place a WAL record is appended and the commit hook fires. ops
// must be non-empty.
//
// A local write (rec == nil) is first validated, has its RMW ops
// resolved, and has its large values moved to the value log. A replicated
// record (rec is the record as shipped, firstSeq its ops[0]'s sequence
// number) was through that on its primary and is logged verbatim. Both
// then go down the pipeline one at a time, under commitMu: room check
// (db.mu), sequence numbers, WAL append and fsync, commit hook, memtable
// insert, watermark and seq waiters (db.mu), and a memtable freeze when
// the buffer is full. db.mu is held for the two short memory-only steps
// and for no I/O, so a read never waits for a write's fsync.
//
// What the order guarantees:
//   - Nothing is readable before its WAL record is appended, and synced
//     when the caller asked: the memtable insert comes after both.
//   - The watermark advances only after the insert, so a snapshot never
//     names a half-inserted batch. (A plain read has no upper bound and
//     may see an entry between its insert and the watermark; it is logged
//     by then, and the write has not returned.)
//   - Hook calls are gap-free and in sequence order: one commit at a time.
//   - A memtable is frozen only between commits (freezeMem needs
//     commitMu), so no record lands in a memtable whose log went to the
//     flusher.
//
// It returns how many ops entered the memtable: fewer than len(ops) when
// RMW ops failed resolution (see RMW.Err) or a replicated record
// overlapped the watermark.
func (db *DB) commit(ops []BatchOp, sync bool, firstSeq kv.SeqNum, rec []byte) (int, error) {
	replicated := rec != nil
	if !replicated {
		hasRMW := false
		for i := range ops {
			if err := ops[i].check(); err != nil {
				return 0, err
			}
			hasRMW = hasRMW || ops[i].RMW != nil
		}
		if hasRMW {
			// Held until the commit returns, so the next RMW reads this
			// one's outcome.
			db.rmwMu.Lock()
			defer db.rmwMu.Unlock()
			if ops = db.resolve(ops); len(ops) == 0 {
				return 0, nil
			}
		}
	}
	// ops is the logical record the hook ships, stored what the WAL and
	// the memtable hold; they part only when value separation rewrites an
	// op into a pointer.
	stored, separated := ops, false
	if !replicated && db.vlog != nil {
		// Before the pipeline: append separated values to the log and store
		// pointers instead. A write acknowledged as durable needs the
		// values its WAL record points into durable too; one vlog sync
		// covers the batch. vlogMu spans append to insert (see its field).
		db.vlogMu.RLock()
		defer db.vlogMu.RUnlock()
		for i, op := range ops {
			if op.Kind != kv.KindSet || len(op.Value) < db.opts.ValueThreshold {
				continue
			}
			ptr, err := db.vlog.Append(op.Key, op.Value)
			if err != nil {
				return 0, err
			}
			if !separated {
				stored, separated = append([]BatchOp(nil), ops...), true
			}
			stored[i] = BatchOp{Kind: kv.KindValuePointer, Key: op.Key, Value: ptr.Encode()}
		}
		if separated && (sync || db.opts.SyncWAL) {
			if err := db.vlog.Sync(); err != nil {
				return 0, err
			}
		}
	}

	db.slowdown()
	if !db.commitMu.TryLock() {
		// The clock is read only when there is a wait to measure.
		start := time.Now()
		db.commitMu.Lock()
		db.opts.Stats.CommitWaitNs.Add(int64(time.Since(start)))
	}
	defer db.commitMu.Unlock()

	db.mu.Lock()
	err := db.waitRoomLocked()
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if ops[0].ifPointer != nil {
		// Value-log relocations: each op commits only while the tree still
		// points at the entry it copied. Under commitMu no write to the key
		// can land between this check and the insert (under rmwMu one could:
		// a plain Put does not take it). Survivors move to the front of ops.
		n := 0
		for i := range ops {
			if db.pointsAt(ops[i].Key, ops[i].ifPointer) {
				ops[n], stored[n] = ops[i], stored[i]
				n++
			}
		}
		if ops, stored = ops[:n], stored[:n]; n == 0 {
			return 0, nil
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
		db.opts.Stats.WALRecords.Add(1)
		if sync || db.opts.SyncWAL {
			start := time.Now()
			err := db.wal.Sync()
			db.opts.Stats.WALSyncNs.Add(int64(time.Since(start)))
			if err != nil {
				return 0, err
			}
			db.opts.Stats.WALSyncs.Add(1)
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
	db.opts.Stats.BytesWritten.Add(db.insert(firstSeq+kv.SeqNum(skip), stored[skip:]))
	if !replicated {
		db.opts.Stats.WriteOps.Add(int64(n))
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

// pointsAt reports whether the newest version of key is the value-log
// pointer whose encoding is want.
func (db *DB) pointsAt(key, want []byte) bool {
	raw, kind, found, err := db.getInternal(key, kv.MaxSeqNum, nil, nil)
	return err == nil && found && kind == kv.KindValuePointer && bytes.Equal(raw, want)
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

// resolve returns ops as they commit: plain ops unchanged, each RMW
// op replaced by the set it resolved to, or left out (its RMW.Err says
// why) when resolution failed. Resolution is in slice order and each RMW
// sees every op before it — two INCRs of one key in one batch serialize
// exactly as if they had committed apart. Caller holds db.rmwMu.
func (db *DB) resolve(ops []BatchOp) []BatchOp {
	out := make([]BatchOp, 0, len(ops))
	for _, op := range ops {
		if op.RMW == nil {
			out = append(out, op)
			continue
		}
		value, err := db.rmwValue(op, out)
		if op.RMW.Err = err; err == nil {
			out = append(out, PutOp(op.Key, value))
		}
	}
	return out
}

// rmwValue computes the value an RMW op stores.
func (db *DB) rmwValue(op BatchOp, pending []BatchOp) ([]byte, error) {
	cur, found, err := db.overlayGet(op.Key, pending)
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

// overlayGet reads key as the pending ops of the batch, applied in
// order, overlay it on the engine: the newest pending op for key wins,
// a TTL entry judged by the engine's clock like any other read. found is
// false when the key is absent (deleted, expired, or never written).
func (db *DB) overlayGet(key []byte, pending []BatchOp) (value []byte, found bool, err error) {
	for i := len(pending) - 1; i >= 0; i-- {
		op := pending[i]
		if !bytes.Equal(op.Key, key) {
			continue
		}
		return db.visible(op.Key, op.Kind, op.Value)
	}
	value, err = db.Get(key)
	if errors.Is(err, ErrNotFound) {
		return nil, false, nil
	}
	return value, err == nil, err
}
