package lsmkv

import (
	"testing"

	"lsmkv/internal/workload"
)

// Allocation-regression gates for the read hot path. These are tests,
// not benchmarks, so a regression fails CI instead of drifting quietly
// in a recorded run. The ceilings are explicit and deliberately
// tight:
//
//   - GetAppend on a memtable-resident key: 0 allocs/op. The search key
//     is encoded into pooled scratch and the caller's dst is reused.
//   - GetAppend on a flushed key served from the block cache: 0
//     allocs/op. The cached block decodes into the pooled batch's probe;
//     restart arrays, iterator key buffers, and the search key all come
//     from the pool.
//   - GetAppend with no cache: the block is read into the pooled
//     scratch; the ceiling of 6 allows the read syscall path.
//   - GetAppend and MultiGet on a miss against a full cache
//     (TestColdReadAllocs): the block is read into the same pooled
//     scratch and only offered to the cache, which declines one-touch
//     traffic — 0 allocs/op, and for MultiGet nothing on top of its
//     result slice and value arena.
//   - MultiGet: one batch walk, whose result is two allocations
//     whatever the batch size — the aligned result slice and the one
//     arena every value is copied into.
//
// testing.AllocsPerRun averages over runs with GOMAXPROCS pinned to 1;
// each section warms the path first so pool fills don't count against
// the steady state.
func TestGetAllocs(t *testing.T) {
	opts := Default()
	opts.MemtableBytes = 1 << 20
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	hot := []byte("alloc-hot-key")
	if err := db.Put(hot, []byte("alloc-hot-value")); err != nil {
		t.Fatal(err)
	}

	var dst []byte
	lookup := func() {
		v, err := db.GetAppend(hot, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = v
	}

	t.Run("memtable", func(t *testing.T) {
		for i := 0; i < 16; i++ {
			lookup() // warm the scratch pools
		}
		if allocs := testing.AllocsPerRun(200, lookup); allocs > 0 {
			t.Errorf("memtable-resident GetAppend: %.2f allocs/op, ceiling 0", allocs)
		}
	})

	// Flush everything so the hot key is served from a sorted run, then
	// warm the block cache.
	const nKeys = 2000
	for i := int64(0); i < nKeys; i++ {
		k := workload.ScrambleKey(i, nKeys)
		if err := db.Put(workload.Key(k), workload.Value(k, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	t.Run("cache-hit", func(t *testing.T) {
		for i := 0; i < 16; i++ {
			lookup() // load the block into cache, warm the pools
		}
		if allocs := testing.AllocsPerRun(200, lookup); allocs > 0 {
			t.Errorf("cache-hit GetAppend: %.2f allocs/op, ceiling 0", allocs)
		}
	})

	t.Run("cache-miss", func(t *testing.T) {
		// A cache-free DB: every lookup reads and decodes its block
		// fresh. With no cache to take ownership, the raw block buffer
		// is pool-reused too; the ceiling allows the read syscall path.
		cold := Default().DisableCache()
		cold.MemtableBytes = 1 << 20
		db2, err := Open(t.TempDir(), cold)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if err := db2.Put(hot, []byte("alloc-hot-value")); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < nKeys; i++ {
			k := workload.ScrambleKey(i, nKeys)
			if err := db2.Put(workload.Key(k), workload.Value(k, 32)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db2.Compact(); err != nil {
			t.Fatal(err)
		}
		var dst2 []byte
		coldLookup := func() {
			v, err := db2.GetAppend(hot, dst2[:0])
			if err != nil {
				t.Fatal(err)
			}
			dst2 = v
		}
		for i := 0; i < 16; i++ {
			coldLookup()
		}
		if allocs := testing.AllocsPerRun(200, coldLookup); allocs > 6 {
			t.Errorf("cache-miss GetAppend: %.2f allocs/op, ceiling 6", allocs)
		}
	})
}

// TestMultiGetAllocs bounds the batch read path: at batch 64 over a
// Zipfian-hot key set (all present, cache-warm), MultiGet allocates the
// aligned result slice and the one arena the values share — a constant
// per batch, not a cost per key. The batch's scratch (key order, per-key
// outcomes, the table probe, the values before they are copied out) is
// pooled.
func TestMultiGetAllocs(t *testing.T) {
	opts := Default()
	opts.MemtableBytes = 1 << 20
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const nKeys = 2000
	for i := int64(0); i < nKeys; i++ {
		if err := db.Put(workload.Key(i), workload.Value(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	const batch = 64
	gen := workload.NewKeyGen(workload.Zipfian, nKeys, 0.99, 7)
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = workload.Key(gen.Next())
	}
	mget := func() {
		vals, err := db.MultiGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v == nil {
				t.Fatalf("key %q absent in alloc run", keys[i])
			}
		}
	}
	for i := 0; i < 8; i++ {
		mget() // warm cache and pools
	}
	if raceEnabled {
		return // the pools the ceiling rests on leak by design under -race
	}
	const ceiling = 2
	if allocs := testing.AllocsPerRun(50, mget); allocs > ceiling {
		t.Errorf("MultiGet batch %d: %.1f allocs/batch, ceiling %d (result slice + arena)",
			batch, allocs, ceiling)
	}
}

// TestColdReadAllocs gates the miss path against a full block cache: the
// store is many times the cache and every measured lookup lands in a
// block no lookup touched before, so each one misses, reads its block and
// has it declined by admission. That costs no allocation: a GetAppend
// into the caller's dst makes none, and a MultiGet makes its result slice
// and its value arena, as it does on hits.
func TestColdReadAllocs(t *testing.T) {
	opts := Default()
	opts.MemtableBytes = 1 << 20
	opts.BlockSize = 1024
	opts.CacheBytes = 128 << 10 // 7 blocks in each of the cache's 16 shards
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Keys ascend with i and a 1 KiB block holds fewer than stride/2 of
	// them, so keys stride apart — and the fill keys halfway between —
	// are all in different blocks.
	const stride, nBlocks = 64, 1200
	for i := int64(0); i < stride*nBlocks; i++ {
		if err := db.Put(workload.Key(i), workload.Value(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < nBlocks; b++ { // fill the cache
		if _, err := db.Get(workload.Key(b*stride + stride/2)); err != nil {
			t.Fatal(err)
		}
	}

	cold := make([][]byte, nBlocks) // one key in each untouched block
	for b := range cold {
		cold[b] = workload.Key(int64(b) * stride)
	}
	var dst []byte
	get := func() {
		v, err := db.GetAppend(cold[0], dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst, cold = v, cold[1:]
	}
	const batch = 32
	mget := func() {
		if _, err := db.MultiGet(cold[:batch]); err != nil {
			t.Fatal(err)
		}
		cold = cold[batch:]
	}
	for i := 0; i < 16; i++ {
		get() // warm the scratch pools
	}
	mget()

	before := db.Stats()
	getAllocs := testing.AllocsPerRun(200, get)
	mgetAllocs := testing.AllocsPerRun(20, mget)
	d := db.Stats().Sub(before)
	if d.BlockCacheHits != 0 || d.BlockCacheAdmits != 0 || d.BlockCacheRejects != d.BlockCacheMisses || d.BlockCacheMisses < 201+21*batch {
		t.Fatalf("lookups were not all cold misses declined by a full cache: %d hits, %d misses, %d admitted, %d declined",
			d.BlockCacheHits, d.BlockCacheMisses, d.BlockCacheAdmits, d.BlockCacheRejects)
	}
	if raceEnabled {
		return // the pools the ceilings rest on leak by design under -race
	}
	if getAllocs > 0 {
		t.Errorf("cold GetAppend, full cache: %.2f allocs/op, ceiling 0", getAllocs)
	}
	if mgetAllocs > 2 {
		t.Errorf("cold MultiGet of %d, full cache: %.1f allocs/op, ceiling 2 (result slice + arena)",
			batch, mgetAllocs)
	}
}

// TestWriteAllocs bounds the write path the same way: a single Put and a
// 32-op ApplyBatch into a WAL-backed memtable large enough that no flush
// lands inside the measured runs. The ceilings are what the engine's one
// commit function costs: the WAL record grown by append (a Put's fits in
// 4 allocations, a 32-op batch's in 10), and the caller's ops handed to
// the memtable as they are, not copied into a second slice first (which
// made the batch 11).
func TestWriteAllocs(t *testing.T) {
	opts := Default()
	opts.MemtableBytes = 64 << 20
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	key, value := []byte("alloc-write-key"), make([]byte, 64)
	put := func() {
		if err := db.Put(key, value); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]BatchOp, 32)
	for i := range ops {
		ops[i] = PutOp(workload.Key(int64(i)), value)
	}
	batch := func() {
		if err := db.ApplyBatch(ops, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		put()
		batch()
	}
	if allocs := testing.AllocsPerRun(200, put); allocs > 4 {
		t.Errorf("Put: %.2f allocs/op, ceiling 4", allocs)
	}
	if allocs := testing.AllocsPerRun(200, batch); allocs > 10 {
		t.Errorf("32-op ApplyBatch: %.2f allocs/op, ceiling 10", allocs)
	}
}

// TestScanAllocs bounds the range-read path: a 50-key Scan over flushed,
// cache-warm data. fn owns its slices, but the copies are cut from 8 KiB
// chunks (one here), and the table iterators come from a pool with their
// read buffers, so what is left is built once per scan: the shard
// scanner and its heap, the engine scanner, its inputs, run iterators
// and merge heap (one allocation each), the memtable iterator, the
// bounds' copy, the last key's buffer and the copy chunk.
func TestScanAllocs(t *testing.T) {
	opts := Default()
	opts.MemtableBytes = 1 << 20
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const nKeys = 2000
	for i := int64(0); i < nKeys; i++ {
		if err := db.Put(workload.Key(i), workload.Value(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	lo, hi := workload.Key(1000), workload.Key(1049)
	scan := func() {
		n := 0
		if err := db.Scan(lo, hi, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 50 {
			t.Fatalf("scan saw %d keys, want 50", n)
		}
	}
	for i := 0; i < 8; i++ {
		scan() // warm the cache and the iterator pool
	}
	// Under -race sync.Pool drops a quarter of what it is handed back, so
	// about one scan in four builds its table iterator anew (5 more
	// allocations): 11 or 12 measured over 60 runs, ceiling 14. A scan
	// with no iterator pool at all makes 16.
	ceiling := 11.0
	if raceEnabled {
		ceiling = 14
	}
	if allocs := testing.AllocsPerRun(100, scan); allocs > ceiling {
		t.Errorf("50-key Scan: %.1f allocs, ceiling %.0f", allocs, ceiling)
	}
}
