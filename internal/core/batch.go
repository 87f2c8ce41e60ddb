package core

import (
	"encoding/binary"
	"errors"

	"lsmkv/internal/kv"
)

// WAL record encoding: one record per write batch.
//
//	uvarint firstSeq
//	uvarint entry count
//	per entry: kind byte | length-prefixed key | length-prefixed value
//
// Entry i carries sequence number firstSeq+i.

var errBadBatch = errors.New("core: corrupt WAL batch")

// BatchOp is one operation in an atomically committed write batch. Kind
// must be kv.KindSet, kv.KindSetTTL, or kv.KindDelete; Value is ignored
// for deletes. For KindSetTTL the Value must already carry the expiry
// prefix (kv.AppendExpiryValue).
type BatchOp struct {
	Kind  kv.Kind
	Key   []byte
	Value []byte
	// RMW, when non-nil, makes the op a read-modify-write (IncrOp, CASOp)
	// that the commit resolves against the key's current value.
	RMW *RMW
	// ifPointer, set by value-log GC on every op of a batch of its own, makes
	// the op conditional on Key still holding this encoded value-log
	// pointer; the commit clears Value when the condition fails.
	ifPointer []byte
}

// RMW is the read-modify-write half of an IncrOp or CASOp: the request,
// and the outcome the commit writes back. The commit resolves RMW ops in
// slice order, each against the earlier ops of its batch overlaid on the
// engine, and commits the survivors as plain sets. An op whose resolution
// fails (Err) is left out of the batch without failing the others.
type RMW struct {
	// Incr selects INCR (add Delta to the 8-byte little-endian counter at
	// Key, absent = 0) over CAS (store the op's Value if the current value
	// equals Expected; a nil Expected asserts the key absent).
	Incr     bool
	Delta    int64
	Expected []byte

	// Result is the counter after a successful INCR. Err is the
	// resolution failure: ErrNotCounter, ErrCASMismatch, or a read error.
	Result int64
	Err    error
}

// PutOp builds a set operation.
func PutOp(key, value []byte) BatchOp {
	return BatchOp{Kind: kv.KindSet, Key: key, Value: value}
}

// PutTTLOp builds a set operation whose entry expires at the given unix
// nanosecond timestamp.
func PutTTLOp(key, value []byte, expiryUnixNano int64) BatchOp {
	return BatchOp{Kind: kv.KindSetTTL, Key: key, Value: kv.AppendExpiryValue(nil, expiryUnixNano, value)}
}

// DeleteOp builds a tombstone operation.
func DeleteOp(key []byte) BatchOp {
	return BatchOp{Kind: kv.KindDelete, Key: key}
}

// IncrOp builds an atomic counter increment; read the outcome from the
// op's RMW once the batch has been applied.
func IncrOp(key []byte, delta int64) BatchOp {
	return BatchOp{Kind: kv.KindSet, Key: key, RMW: &RMW{Incr: true, Delta: delta}}
}

// CASOp builds a compare-and-swap of key to newValue; a nil expected
// asserts the key absent.
func CASOp(key, expected, newValue []byte) BatchOp {
	return BatchOp{Kind: kv.KindSet, Key: key, Value: newValue, RMW: &RMW{Expected: expected}}
}

// ApplyBatch applies ops atomically: one WAL record covers the whole
// batch, and when sync is true a single fsync makes every op durable
// before the call returns. It is Submit and Wait, so concurrent batches
// and Puts share a commit group, and its log append and fsync.
//
// Ops are applied in slice order (later ops win on duplicate keys). An
// empty batch is a no-op.
func (db *DB) ApplyBatch(ops []BatchOp, sync bool) error {
	if len(ops) == 0 {
		return nil
	}
	_, err := db.Submit(ops, sync).Wait()
	return err
}

func encodeBatch(firstSeq kv.SeqNum, ops []BatchOp) []byte {
	out := binary.AppendUvarint(nil, uint64(firstSeq))
	out = binary.AppendUvarint(out, uint64(len(ops)))
	for _, op := range ops {
		out = append(out, byte(op.Kind))
		out = kv.AppendLengthPrefixed(out, op.Key)
		out = kv.AppendLengthPrefixed(out, op.Value)
	}
	return out
}

// decodeBatch parses one record; the returned ops alias data.
func decodeBatch(data []byte) (firstSeq kv.SeqNum, ops []BatchOp, err error) {
	first, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, errBadBatch
	}
	data = data[w:]
	count, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, errBadBatch
	}
	data = data[w:]
	// An entry is at least 3 bytes, so the frame bounds the allocation
	// whatever the count claims.
	ops = make([]BatchOp, 0, min(count, uint64(len(data)/3)))
	for i := uint64(0); i < count; i++ {
		if len(data) < 1 {
			return 0, nil, errBadBatch
		}
		op := BatchOp{Kind: kv.Kind(data[0])}
		data = data[1:]
		var ok bool
		if op.Key, data, ok = kv.DecodeLengthPrefixed(data); !ok {
			return 0, nil, errBadBatch
		}
		if op.Value, data, ok = kv.DecodeLengthPrefixed(data); !ok {
			return 0, nil, errBadBatch
		}
		ops = append(ops, op)
	}
	if len(data) != 0 {
		return 0, nil, errBadBatch
	}
	return kv.SeqNum(first), ops, nil
}
