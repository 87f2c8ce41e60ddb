package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync/atomic"
)

// oracle is the benchmark's own record of what the store must hold. It
// never asks the engine: a key's state is the version its one writer
// last issued and the version last acknowledged. Loaded keys start at
// version 1, absent keys at 0.
type oracle struct {
	sz sizing
	// acked[i] is the newest version of key i whose write was
	// acknowledged; issued[i] the newest one sent. Only key i's owner
	// stores to them, readers load.
	acked  []atomic.Uint32
	issued []atomic.Uint32
	// live counts keys that must exist: the loaded ones and every absent
	// key whose first write was acknowledged. writes counts every write
	// the store accepted: the load's and every acknowledged one since.
	live, writes atomic.Int64
	// filler is the seed-derived tail every value carries after its
	// header, so a torn or misplaced value cannot pass as valid.
	filler [valueLen - valueHeader]byte
}

// valueHeader is key index (8 bytes) then version (4), little endian.
const valueHeader = 12

func newOracle(sz sizing, seed int64) *oracle {
	o := &oracle{
		sz:     sz,
		acked:  make([]atomic.Uint32, sz.keyspace()),
		issued: make([]atomic.Uint32, sz.keyspace()),
	}
	rand.New(rand.NewSource(seed)).Read(o.filler[:])
	for i := int64(0); i < sz.keyspace(); i += 2 {
		o.acked[i].Store(1)
		o.issued[i].Store(1)
	}
	o.live.Store(sz.n)
	o.writes.Store(sz.n)
	return o
}

// appendKey renders index i exactly as workload.Key does ("user" and
// twelve digits) without the allocation.
func appendKey(dst []byte, i int64) []byte {
	var d [12]byte
	for p := len(d) - 1; p >= 0; p-- {
		d[p] = byte('0' + i%10)
		i /= 10
	}
	return append(append(dst, "user"...), d[:]...)
}

// parseKey is appendKey's inverse; ok is false for anything else.
func parseKey(k []byte) (idx int64, ok bool) {
	if len(k) != keyLen || string(k[:4]) != "user" {
		return 0, false
	}
	for _, c := range k[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int64(c-'0')
	}
	return idx, true
}

// appendValue renders version ver of key idx.
func (o *oracle) appendValue(dst []byte, idx int64, ver uint32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(idx))
	dst = binary.LittleEndian.AppendUint32(dst, ver)
	return append(dst, o.filler[:]...)
}

// version returns the version a stored value carries, or false when the
// bytes are not a value of key idx.
func (o *oracle) version(idx int64, val []byte) (uint32, bool) {
	if len(val) != valueLen ||
		binary.LittleEndian.Uint64(val) != uint64(idx) ||
		!bytes.Equal(val[valueHeader:], o.filler[:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(val[8:]), true
}

// checkRead judges one read of key idx. floor is acked[idx] as loaded
// before the read was sent: the answer may be no older than that and no
// newer than what the owner has issued by now. On the read-only
// workloads this is exactly present or absent.
func (o *oracle) checkRead(idx int64, floor uint32, val []byte, found bool) bool {
	if !found {
		return floor == 0
	}
	ver, ok := o.version(idx, val)
	return ok && ver >= max(floor, 1) && ver <= o.issued[idx].Load()
}

// acknowledge records that version ver of key idx, sent by its owner,
// was acknowledged.
func (o *oracle) acknowledge(idx int64, ver uint32) {
	o.writes.Add(1)
	if o.acked[idx].Swap(ver) == 0 {
		o.live.Add(1)
	}
}
