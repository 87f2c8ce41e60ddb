package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
)

// TestTableIterCloseTwice: a second Close of a pooled table iterator,
// before any other NewIterator, does nothing — in particular it does not
// hand the iterator to the pool again, where two later NewIterator calls
// would share it. (After a reissue a stale Close would reach the new
// owner; holders drop the iterator at Close, which TestScansRaceCompactions
// exercises.)
func TestTableIterCloseTwice(t *testing.T) {
	r := buildTable(t, WriterOptions{BlockSize: 256}, ReaderOptions{}, 500, 2)
	it := r.NewIterator()
	if !it.First() || !it.Next() {
		t.Fatal("empty table")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	a, b := r.NewIterator(), r.NewIterator()
	if a == b {
		t.Fatal("a twice-closed iterator was pooled twice: two NewIterator calls share it")
	}
	// Both walk the whole table on their own, interleaved.
	na, nb := 0, 0
	for okA, okB := a.First(), b.First(); okA || okB; {
		if okA {
			na++
			okA = a.Next()
		}
		if okB {
			if want := fmt.Sprintf("key%08d", nb*2); string(b.Key().UserKey) != want {
				t.Fatalf("entry %d: %q, want %q", nb, b.Key().UserKey, want)
			}
			nb++
			okB = b.Next()
		}
	}
	if na != 500 || nb != 500 {
		t.Fatalf("interleaved walks saw %d and %d entries, want 500", na, nb)
	}
	a.Close()
	b.Close()
}

// TestTableIterErrorSurvivesClose: Close reports the error the iterator
// ended on, before the iterator goes back to the pool.
func TestTableIterErrorSurvivesClose(t *testing.T) {
	f := &memFile{}
	w := NewWriter(f, WriterOptions{BlockSize: 4096})
	for i := 0; i < 100; i++ {
		w.Add(kv.MakeInternalKey([]byte(fmt.Sprintf("key%04d", i)), kv.SeqNum(i+1), kv.KindSet), []byte("value"))
	}
	w.Finish()
	f.buf.Bytes()[10] ^= 0x01
	r, err := OpenReader(f, int64(f.buf.Len()), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	it := r.NewIterator()
	if it.First() {
		t.Fatal("iterated a corrupt block")
	}
	if err := it.Close(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Close: %v, want ErrChecksum", err)
	}
}

// admitAll is a map-backed BlockCache that copies and admits every Offer.
type admitAll struct{ data map[uint64][]byte }

func (c *admitAll) Get(_, o uint64) ([]byte, bool) { b, ok := c.data[o]; return b, ok }
func (c *admitAll) Insert(_, o uint64, b []byte)   { c.data[o] = b }
func (c *admitAll) Offer(_, o uint64, b []byte) bool {
	c.data[o] = append([]byte(nil), b...)
	return true
}

// TestChecksumOnFileReadsOnly: a block read from the file is checksummed,
// and one that fails reaches neither the caller nor the cache, however
// often it is read or prefetched; a block served from the cache is not
// checksummed again, since the cache holds only bytes that passed.
func TestChecksumOnFileReadsOnly(t *testing.T) {
	f := &memFile{}
	w := NewWriter(f, WriterOptions{BlockSize: 512})
	for i := 0; i < 400; i++ {
		w.Add(kv.MakeInternalKey([]byte(fmt.Sprintf("key%04d", i)), kv.SeqNum(i+1), kv.KindSet), []byte("value"))
	}
	w.Finish()
	f.buf.Bytes()[10] ^= 0x01 // inside the first data block
	c := &admitAll{data: map[uint64][]byte{}}
	stats := &iostat.Stats{}
	r, err := OpenReader(f, int64(f.buf.Len()), ReaderOptions{Cache: c, Stats: stats, FileNum: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(key string) ([]byte, error) {
		v, _, found, err := r.Get([]byte(key), filter.HashKey([]byte(key)), kv.MaxSeqNum)
		if err == nil && !found {
			err = fmt.Errorf("%s not found", key)
		}
		return v, err
	}
	first := r.index.Entry(0).Handle.Offset
	for i := 0; i < 3; i++ {
		if _, err := get("key0000"); !errors.Is(err, ErrChecksum) {
			t.Fatalf("read %d of the corrupt block: %v, want ErrChecksum", i, err)
		}
		if err := r.PrefetchBlock(0); !errors.Is(err, ErrChecksum) {
			t.Fatalf("prefetch %d of the corrupt block: %v, want ErrChecksum", i, err)
		}
		if _, ok := c.data[first]; ok {
			t.Fatal("a block that failed its checksum entered the cache")
		}
	}

	// A good block is verified on its miss, admitted, then served from the
	// cache without a file read; damage to the cached copy's checksum goes
	// unseen, because a hit is not checksummed.
	last := fmt.Sprintf("key%04d", 399)
	if _, err := get(last); err != nil {
		t.Fatal(err)
	}
	off := r.index.Entry(r.index.Len() - 1).Handle.Offset
	cached, ok := c.data[off]
	if !ok {
		t.Fatal("a verified block was not admitted")
	}
	crc := binary.LittleEndian.Uint32(cached[len(cached)-4:])
	binary.LittleEndian.PutUint32(cached[len(cached)-4:], ^crc)
	reads := stats.Snapshot().BlockReads
	if v, err := get(last); err != nil || string(v) != "value" {
		t.Fatalf("cache hit: %q, %v", v, err)
	}
	if stats.Snapshot().BlockReads != reads {
		t.Fatal("the second read of a cached block went to the file")
	}
}

// TestWriterAddAllocs: once its buffers have grown over a first block,
// a table writer adds an entry without allocating; only a block flush
// (fences, the sealed block) may.
func TestWriterAddAllocs(t *testing.T) {
	w := NewWriter(io.Discard, WriterOptions{BlockSize: 64 << 10, BlockHashIndex: true})
	key, value := make([]byte, 12), make([]byte, 100)
	seq := kv.SeqNum(0)
	add := func() {
		seq++
		binary.BigEndian.PutUint64(key[4:], uint64(seq))
		if err := w.Add(kv.MakeInternalKey(key, seq, kv.KindSet), value); err != nil {
			t.Fatal(err)
		}
	}
	for w.props.NumBlocks < 2 {
		add()
	}
	blocks := w.props.NumBlocks
	if allocs := testing.AllocsPerRun(200, add); allocs != 0 {
		t.Errorf("Writer.Add: %.2f allocs/entry, want 0", allocs)
	}
	if w.props.NumBlocks != blocks {
		t.Fatal("a block flushed inside the measured adds; lower their count")
	}
}
