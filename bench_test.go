package lsmkv

// The engine's testing.B benchmarks (`make bench`). The tutorial's
// claim-shaped experiments E1–E19 are not here: each is defined once, in
// internal/bench, and run with `lsmbench -e En`.

import (
	"math/rand"
	"testing"

	"lsmkv/internal/workload"
)

const (
	benchKeys  = 20_000
	benchValue = 64
)

// benchDB loads a database with scrambled sequential keys.
func benchDB(b *testing.B, opts *Options) *DB {
	b.Helper()
	opts.MemtableBytes = 64 << 10
	db, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for i := int64(0); i < benchKeys; i++ {
		k := workload.ScrambleKey(i, benchKeys)
		if err := db.Put(workload.Key(k), workload.Value(k, benchValue)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkDBGet times point lookups on a settled tree, with the
// engine's counters and latency histograms recorded as always.
func BenchmarkDBGet(b *testing.B) {
	b.Run("get", func(b *testing.B) {
		db := benchDB(b, Default())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := workload.ScrambleKey(int64(i)%benchKeys, benchKeys)
			if _, err := db.Get(workload.Key(k)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The append-style read reuses the caller's buffer: with a warm
	// block cache this is the zero-allocation path TestGetAllocs gates
	// (run with -benchmem to see allocs/op).
	b.Run("get-append", func(b *testing.B) {
		db := benchDB(b, Default())
		var dst []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := workload.ScrambleKey(int64(i)%benchKeys, benchKeys)
			v, err := db.GetAppend(workload.Key(k), dst[:0])
			if err != nil {
				b.Fatal(err)
			}
			dst = v
		}
	})
	// Batched point reads at the engine level, batch 64, Zipfian-hot.
	b.Run("multiget-64", func(b *testing.B) {
		db := benchDB(b, Default())
		gen := workload.NewKeyGen(workload.Zipfian, benchKeys, 0.99, 11)
		keys := make([][]byte, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range keys {
				keys[j] = workload.Key(gen.Next() % benchKeys)
			}
			if _, err := db.MultiGet(keys); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Batched point reads in mget-cold's shape, batch 32, reported per
	// key: the store is many times a full block cache, every key of a
	// batch lies in a block of its own, and most blocks miss.
	b.Run("multiget-32-cold", func(b *testing.B) {
		opts := Default()
		opts.MemtableBytes = 1 << 20
		opts.BlockSize = 1024
		opts.CacheBytes = 128 << 10
		db, err := Open(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		// A 1 KiB block holds fewer than stride/2 keys, so keys stride
		// apart, and the fill keys halfway between, are in different blocks.
		const stride, nBlocks, batch = 64, 1200, 32
		for i := int64(0); i < stride*nBlocks; i++ {
			if err := db.Put(workload.Key(i), workload.Value(i, 32)); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
		for blk := int64(0); blk < nBlocks; blk++ { // fill the cache
			if _, err := db.Get(workload.Key(blk*stride + stride/2)); err != nil {
				b.Fatal(err)
			}
		}
		keys := make([][]byte, nBlocks)
		for i, blk := range rand.New(rand.NewSource(5)).Perm(nBlocks) {
			keys[i] = workload.Key(int64(blk) * stride)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := i * batch % (nBlocks - batch)
			if _, err := db.MultiGet(keys[at : at+batch]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	})
}
