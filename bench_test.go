package lsmkv

// The engine's testing.B benchmarks (`make bench`). The tutorial's
// claim-shaped experiments E1–E19 are not here: each is defined once, in
// internal/bench, and run with `lsmbench -e En`.

import (
	"fmt"
	"math/rand"
	"testing"

	"lsmkv/internal/workload"
)

const (
	benchKeys  = 20_000
	benchValue = 64
)

// benchShape is the Levels() of the first tree benchDB settled in this
// process; every later one must match it.
var benchShape string

// benchDB loads scrambled sequential keys into a settled tree the way the
// repo's benchmark loads its store: one compaction worker, batches of
// 128, and a Flush plus Compact before each memtable's worth of keys can
// fill the memtable, so no flush or compaction ever races the load and
// the tree comes out the same on every run. The benchmark fails if it
// does not.
func benchDB(b *testing.B, opts *Options) *DB {
	b.Helper()
	opts.MemtableBytes = 64 << 10
	opts.CompactionConcurrency = 1
	db, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	settle := func() {
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	// memEntry is what the memtable charges for one entry: key, trailer,
	// value, tower estimate.
	const batch, memEntry = 128, 16 + 8 + benchValue + 48
	ops := make([]BatchOp, 0, batch)
	pending := 0
	for i := int64(0); i < benchKeys; i++ {
		k := workload.ScrambleKey(i, benchKeys)
		ops = append(ops, PutOp(workload.Key(k), workload.Value(k, benchValue)))
		if len(ops) < batch && i != benchKeys-1 {
			continue
		}
		if err := db.ApplyBatch(ops, false); err != nil {
			b.Fatal(err)
		}
		pending += len(ops) * memEntry
		ops = ops[:0]
		if pending+batch*memEntry > int(opts.MemtableBytes) {
			pending = 0
			settle()
		}
	}
	settle()
	shape := fmt.Sprint(db.Levels())
	if benchShape == "" {
		benchShape = shape
	} else if shape != benchShape {
		b.Fatalf("the loaded tree is %s, an earlier load's was %s", shape, benchShape)
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

// BenchmarkDBScan times a Scan that stops after 50 keys, from a random
// start, on benchDB's settled tree, with the block cache warm (the tree
// fits in it) and cold (no cache: every block a scan touches is read from
// the file). ScrambleKey leaves gaps, so a scan is bounded by its count,
// not by a key range.
func BenchmarkDBScan(b *testing.B) {
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			opts := Default()
			if cold {
				opts.DisableCache()
			}
			db := benchDB(b, opts)
			rng := rand.New(rand.NewSource(7))
			scan := func() {
				lo := rng.Int63n(benchKeys - 1000)
				n := 0
				err := db.Scan(workload.Key(lo), nil, func(_, _ []byte) bool { n++; return n < 50 })
				if err != nil || n != 50 {
					b.Fatalf("scan from %d: %d keys, %v", lo, n, err)
				}
			}
			if !cold {
				for i := 0; i < benchKeys/50; i++ {
					scan() // warm the cache
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan()
			}
		})
	}
}
