package core

import (
	"bytes"
	"errors"
	"fmt"

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
// then take the same steps under db.mu: backpressure, sequence numbers,
// WAL append (and fsync), commit hook, memtable insert, counters, seq
// waiters, and a memtable freeze when the buffer is full.
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
		// Outside db.mu: append separated values to the log and store
		// pointers instead. A write acknowledged as durable needs the
		// values its WAL record points into durable too; one vlog sync
		// covers the batch.
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
		if separated && (sync || db.opts.WALSync) {
			if err := db.vlog.Sync(); err != nil {
				return 0, err
			}
		}
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.waitWriteLocked(); err != nil {
		return 0, err
	}
	if replicated {
		prev := db.seq
		if firstSeq+kv.SeqNum(len(ops))-1 <= prev {
			return 0, nil // duplicate delivery
		}
		if firstSeq > prev+1 {
			return 0, fmt.Errorf("%w: batch starts at %d, engine at %d", ErrReplicaGap, firstSeq, prev)
		}
	} else {
		firstSeq = db.seq + 1
	}
	if db.wal != nil {
		if rec == nil {
			rec = encodeBatch(firstSeq, stored)
		}
		if err := db.wal.AddRecord(rec); err != nil {
			return 0, err
		}
		db.opts.Stats.WALRecords.Add(1)
		if db.opts.WALSync {
			db.opts.Stats.WALSyncs.Add(1) // AddRecord synced internally
		} else if sync {
			if err := db.wal.Sync(); err != nil {
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
	skip := int(db.seq + 1 - firstSeq)
	n := len(stored) - skip
	db.opts.Stats.BytesWritten.Add(db.insertLocked(firstSeq+kv.SeqNum(skip), stored[skip:]))
	if !replicated {
		db.opts.Stats.WriteOps.Add(int64(n))
	}
	db.notifySeqLocked()

	if db.mem.ApproxSize() >= db.opts.MemtableBytes {
		return n, db.freezeMemLocked()
	}
	return n, nil
}

// insertLocked adds ops to the active memtable as entries firstSeq,
// firstSeq+1, … and advances the watermark over them. It is the only
// caller of mem.Add: commit's last data step, and all of what WAL replay
// does with a recovered record. Caller holds db.mu or is in Open.
func (db *DB) insertLocked(firstSeq kv.SeqNum, ops []BatchOp) (nbytes int64) {
	for i, op := range ops {
		db.mem.Add(kv.Entry{Key: kv.MakeInternalKey(op.Key, firstSeq+kv.SeqNum(i), op.Kind), Value: op.Value})
		nbytes += int64(len(op.Key) + len(op.Value))
	}
	db.seq = max(db.seq, firstSeq+kv.SeqNum(len(ops))-1)
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
