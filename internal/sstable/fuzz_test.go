package sstable

import (
	"bytes"
	"testing"

	"lsmkv/internal/filter"
	"lsmkv/internal/kv"
)

// FuzzDecodeBlock: arbitrary bytes must never panic the block decoder;
// valid blocks must round trip. (Seed corpus only under `go test`; run
// `go test -fuzz=FuzzDecodeBlock ./internal/sstable` to explore.)
func FuzzDecodeBlock(f *testing.F) {
	bb := newBlockBuilder(4, true)
	for i := 0; i < 20; i++ {
		bb.add(kv.MakeInternalKey([]byte{byte('a' + i)}, kv.SeqNum(i+1), kv.KindSet), []byte("v"))
	}
	valid := bb.finish()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(valid[:len(valid)/2])
	mut := append([]byte(nil), valid...)
	mut[3] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		blk := new(block)
		if decodeBlockInto(blk, data) != nil {
			return // rejected input: fine
		}
		// Accepted input must iterate without panicking and in order.
		it := &blockIter{b: blk}
		var prev kv.InternalKey
		n := 0
		for ok := it.First(); ok && n < 100000; ok = it.Next() {
			if n > 0 && kv.CompareInternal(prev, it.Key()) > 0 {
				// Only CRC-valid blocks reach here, so disorder means the
				// builder produced it — which the engine never does; for
				// fuzz inputs that merely pass CRC by construction this
				// cannot happen (CRC covers all bytes).
				t.Fatalf("accepted block iterates out of order")
			}
			prev = it.Key().Clone()
			n++
		}
	})
}

// FuzzOpenReader: arbitrary bytes must never panic the table opener.
func FuzzOpenReader(f *testing.F) {
	mf := &memFile{}
	w := NewWriter(mf, WriterOptions{BlockSize: 256})
	for i := 0; i < 50; i++ {
		w.Add(kv.MakeInternalKey([]byte{byte('a' + i%26), byte('0' + i/26)}, kv.SeqNum(i+1), kv.KindSet), []byte("v"))
	}
	w.Finish()
	valid := mf.buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add([]byte{})
	f.Add(valid[:40])
	mut := append([]byte(nil), valid...)
	mut[len(mut)-5] ^= 0x10
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(bytes.NewReader(data), int64(len(data)), ReaderOptions{})
		if err != nil {
			return
		}
		// A reader that opened must serve a lookup without panicking.
		r.Get([]byte("a0"), filter.HashKey([]byte("a0")), kv.MaxSeqNum)
	})
}
