package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lsmkv"
	"lsmkv/internal/cache"
	"lsmkv/internal/fence"
	"lsmkv/internal/filter"
	"lsmkv/internal/kv"
	"lsmkv/internal/learned"
	"lsmkv/internal/memtable"
	"lsmkv/internal/server"
	"lsmkv/internal/sstable"
	"lsmkv/internal/vfs"
	"lsmkv/internal/wal"
)

// probeRounds is how many times each probe repeats its timed loop; the
// probe reports the median round.
const probeRounds = 5

// prober sets the metrics the probes measure. scale shrinks every
// probe's iteration count: the smoke test sets it so that the probes'
// code runs without taking their time.
type prober struct {
	*metricSet
	scale float64
}

// timeOp times probeRounds rounds of n calls of fn (scaled) and returns
// the median round's nanoseconds per call.
func (p prober) timeOp(n int, fn func(i int)) float64 {
	n = max(int(float64(n)*p.scale), 1)
	var rounds [probeRounds]float64
	for r := range rounds {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds[r] = float64(time.Since(start)) / float64(n)
	}
	sort.Float64s(rounds[:])
	return rounds[probeRounds/2]
}

// sink keeps the compiler from discarding a probe's result.
var sink int

// probeLayers times calls into each layer's public functions, on
// structures built from the store's own keys and values, and on the
// open store itself. Together with the depth-traced replay these are
// the per-hop costs below the engine: the benchmark wraps no interface
// to get nested spans (see README.md "Tracing").
func probeLayers(p prober, db *lsmkv.DB, dir string, sz sizing, or *oracle, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	const nKeys = 8192
	hotKeys := make([][]byte, sz.hot)
	for i := range hotKeys {
		hotKeys[i] = appendKey(nil, 2*int64(i))
	}
	// coldKeys are uniform over the store; they alternate loaded and
	// absent like a mget-cold batch.
	coldKeys := make([][]byte, nKeys)
	for i := range coldKeys {
		coldKeys[i] = appendKey(nil, 2*rng.Int63n(sz.n)+int64(i&1))
	}
	val := or.appendValue(nil, 0, 1)

	probeCodec(p, hotKeys[0], val)
	p.set("shard.route_ns", p.timeOp(200_000, func(i int) { sink += db.ShardOf(coldKeys[i%nKeys]) }))
	p.set("kv.encode_ns", func() float64 {
		var buf []byte
		return p.timeOp(200_000, func(i int) {
			buf = kv.MakeInternalKey(coldKeys[i%nKeys], kv.SeqNum(i), kv.KindSet).Encode(buf[:0])
		})
	}())
	if err := probeEngine(p, db, filepath.Join(dir, "probe-db"), sz, hotKeys, coldKeys, val); err != nil {
		return fmt.Errorf("engine probes: %w", err)
	}
	probeMemtable(p, coldKeys, val)
	if err := probeWAL(p, filepath.Join(dir, "probe.wal"), val); err != nil {
		return fmt.Errorf("wal probes: %w", err)
	}
	if err := probeSSTable(p, filepath.Join(dir, "probe.sst"), or, rng); err != nil {
		return fmt.Errorf("sstable probes: %w", err)
	}
	probeIndexes(p, rng)
	probeCache(p)
	return nil
}

func probeCodec(p prober, key, val []byte) {
	var buf []byte
	req := &server.Request{ID: 7, Op: server.OpGet, Key: key}
	p.set("server.codec_req_ns", p.timeOp(200_000, func(int) {
		buf = server.AppendRequest(buf[:0], req)
		r, _ := server.DecodeRequest(buf)
		sink += len(r.Key)
	}))
	resp := &server.Response{ID: 7, Status: server.StatusOK, Value: val}
	p.set("server.codec_resp_ns", p.timeOp(200_000, func(int) {
		buf = server.AppendResponse(buf[:0], resp)
		r, _ := server.DecodeResponse(buf, false)
		sink += len(r.Value)
	}))
	vals := make([][]byte, mgetKeys)
	for i := range vals {
		if i&1 == 0 {
			vals[i] = val
		}
	}
	p.set("server.mget_codec_ns_per_key", p.timeOp(20_000, func(int) {
		buf = server.AppendMultiGetValues(buf[:0], vals)
		v, _ := server.DecodeMultiGetValues(buf)
		sink += len(v)
	})/mgetKeys)
}

// probeEngine times the engine's own calls with no wire in front: reads
// on the open store, writes on a scratch store beside it.
func probeEngine(p prober, db *lsmkv.DB, scratch string, sz sizing, hotKeys, coldKeys [][]byte, val []byte) error {
	var buf []byte
	var failed error
	get := func(keys [][]byte) func(int) {
		return func(i int) {
			v, err := db.GetAppend(keys[i%len(keys)], buf[:0])
			if err == nil {
				buf = v
			} else if !errors.Is(err, lsmkv.ErrNotFound) {
				failed = err
			}
		}
	}
	p.timeOp(len(hotKeys), get(hotKeys)) // fill the cache with the hot range
	p.set("core.get_hot_ns", p.timeOp(50_000, get(hotKeys)))
	p.set("core.get_cold_ns", p.timeOp(20_000, get(coldKeys)))

	var before, after runtime.MemStats
	const allocOps = 20_000
	getCold := get(coldKeys)
	runtime.ReadMemStats(&before)
	for i := 0; i < allocOps; i++ {
		getCold(i)
	}
	runtime.ReadMemStats(&after)
	p.set("core.allocs_per_get_cold", float64(after.Mallocs-before.Mallocs)/allocOps)

	p.set("core.mget32_ns_per_key", p.timeOp(1000, func(i int) {
		at := i * mgetKeys % (len(coldKeys) - mgetKeys)
		vals, err := db.MultiGet(coldKeys[at : at+mgetKeys])
		if err != nil {
			failed = err
		}
		sink += len(vals)
	})/mgetKeys)
	p.set("core.scan50_ns", p.timeOp(1000, func(i int) {
		lo := int64(i) * 7919 % (sz.keyspace() - scanSpan)
		err := db.Scan(appendKey(nil, lo), appendKey(nil, lo+scanSpan-1), func(k, _ []byte) bool {
			sink += len(k)
			return true
		})
		if err != nil {
			failed = err
		}
	}))
	if failed != nil {
		return failed
	}

	sdb, err := lsmkv.Open(scratch, serveOptions(sz))
	if err != nil {
		return err
	}
	defer sdb.Close()
	var op [1]lsmkv.BatchOp
	put := func(sync bool) func(int) {
		return func(i int) {
			op[0] = lsmkv.PutOp(coldKeys[i%len(coldKeys)], val)
			if err := sdb.ApplyBatch(op[:], sync); err != nil {
				failed = err
			}
		}
	}
	p.set("core.put_nosync_ns", p.timeOp(5000, put(false)))
	p.set("core.put_sync_ns", p.timeOp(100, put(true)))
	return failed
}

func probeMemtable(p prober, keys [][]byte, val []byte) {
	var mt *memtable.Memtable
	p.set("memtable.add_ns", p.timeOp(len(keys), func(i int) {
		if i == 0 {
			mt = memtable.New()
		}
		mt.Add(kv.Entry{Key: kv.MakeInternalKey(keys[i], kv.SeqNum(i+1), kv.KindSet), Value: val})
	}))
	p.set("memtable.get_ns", p.timeOp(len(keys), func(i int) {
		v, _, _ := mt.Get(keys[i], kv.MaxSeqNum)
		sink += len(v)
	}))
}

func probeWAL(p prober, path string, val []byte) error {
	w, err := wal.Create(vfs.OS{}, path, wal.Options{})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer w.Close()
	// One record is what a single PUT logs: key, value and a few bytes
	// of batch framing.
	payload := append(make([]byte, 0, entryBytes+8), val...)
	payload = payload[:entryBytes+8]
	var failed error
	records := 0
	p.set("wal.append_ns", p.timeOp(20_000, func(int) {
		if err := w.AddRecord(payload); err != nil {
			failed = err
		}
		records++
	}))
	p.set("wal.bytes_per_op", float64(w.Size())/float64(records))
	p.set("wal.sync_ns", p.timeOp(100, func(int) {
		if err := w.AddRecord(payload); err != nil {
			failed = err
		}
		if err := w.Sync(); err != nil {
			failed = err
		}
	}))
	return failed
}

// probeSSTable builds one table the way a flush does (4 KiB blocks,
// Bloom filter at 10 bits a key, binary fences) and reads it back with
// and without a block cache.
func probeSSTable(p prober, path string, or *oracle, rng *rand.Rand) error {
	const entries = 20_000
	keys := make([][]byte, entries)
	vals := make([][]byte, entries)
	for i := range keys {
		keys[i] = appendKey(nil, 2*int64(i))
		vals[i] = or.appendValue(nil, 2*int64(i), 1)
	}
	wopts := sstable.WriterOptions{
		Filter:          filter.Policy{Kind: filter.KindBloom, BitsPerKey: 10},
		ExpectedEntries: entries,
	}
	var size uint64
	var failed error
	defer os.Remove(path)
	p.set("sstable.build_ns_per_entry", p.timeOp(1, func(int) {
		f, err := os.Create(path)
		if err != nil {
			failed = err
			return
		}
		defer f.Close()
		w := sstable.NewWriter(f, wopts)
		for i := range keys {
			if err := w.Add(kv.MakeInternalKey(keys[i], kv.SeqNum(i+1), kv.KindSet), vals[i]); err != nil {
				failed = err
			}
		}
		if _, size, err = w.Finish(); err != nil {
			failed = err
		}
	})/entries)
	if failed != nil {
		return failed
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	order := rng.Perm(entries)
	get := func(r *sstable.Reader) func(int) {
		return func(i int) {
			k := keys[order[i%entries]]
			v, _, found, err := r.Get(k, filter.HashKey(k), kv.MaxSeqNum)
			if err != nil || !found {
				failed = fmt.Errorf("sstable get %q: found=%v err=%v", k, found, err)
			}
			sink += len(v)
		}
	}
	uncached, err := sstable.OpenReader(f, int64(size), sstable.ReaderOptions{FileNum: 1})
	if err != nil {
		return err
	}
	p.set("sstable.get_uncached_ns", p.timeOp(entries, get(uncached)))
	cached, err := sstable.OpenReader(f, int64(size), sstable.ReaderOptions{
		FileNum: 1, Cache: cache.New(int64(2*size), cache.LRU),
	})
	if err != nil {
		return err
	}
	p.timeOp(entries, get(cached)) // fill the cache
	p.set("sstable.get_cached_ns", p.timeOp(entries, get(cached)))
	p.set("sstable.iter_ns_per_entry", p.timeOp(1, func(int) {
		it := uncached.NewIterator()
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		if err := it.Error(); err != nil || n != entries {
			failed = fmt.Errorf("sstable iterate: %d entries, err=%v", n, err)
		}
		it.Close()
	})/entries)
	return failed
}

// probeIndexes times the structures that locate a key inside a run: the
// Bloom filter that screens it, the fence pointers that find its block,
// and the two learned models (reference only: the shipped default is
// binary-searched fences).
func probeIndexes(p prober, rng *rand.Rand) {
	const members = 100_000
	b := filter.Policy{Kind: filter.KindBloom, BitsPerKey: 10}.NewBuilder(members)
	hashes := make([]filter.KeyHash, 2*members)
	for i := range hashes {
		hashes[i] = filter.HashKey(appendKey(nil, int64(i)))
		if i&1 == 0 {
			b.AddHash(hashes[i])
		}
	}
	data, err := b.Finish()
	if err != nil {
		panic(err) // a Bloom builder has no failing input
	}
	bloom, err := filter.NewReader(data)
	if err != nil {
		panic(err)
	}
	p.set("filter.probe_ns", p.timeOp(len(hashes), func(i int) {
		if bloom.MayContainHash(hashes[i]) {
			sink++
		}
	}))
	falsePositives := 0
	for i := 1; i < len(hashes); i += 2 {
		if bloom.MayContainHash(hashes[i]) {
			falsePositives++
		}
	}
	p.set("filter.fpr", float64(falsePositives)/members)

	// One fence per 4 KiB block of 15 entries, as in a run of the store.
	const blocks = 8192
	var fb fence.Builder
	xs := make([]uint64, blocks)
	for i := range xs {
		first := int64(i) * 30
		xs[i] = uint64(first)
		fb.Add(appendKey(nil, first), fence.BlockHandle{Offset: uint64(i) * 4096, Length: 4096})
	}
	fences := fb.Build()
	lookups := make([][]byte, blocks)
	lookupXs := make([]uint64, blocks)
	for i := range lookups {
		idx := rng.Int63n(blocks * 30)
		lookups[i], lookupXs[i] = appendKey(nil, idx), uint64(idx)
	}
	p.set("fence.find_ns", p.timeOp(200_000, func(i int) { sink += fences.Find(lookups[i%blocks]) }))
	// The models learn the numeric key index: the first eight bytes of
	// these keys, which is what a table's model is trained on, are the
	// same for every key.
	plr := learned.BuildPLR(xs, 4)
	p.set("learned.plr_predict_ns", p.timeOp(200_000, func(i int) {
		pos, _, _ := plr.Predict(lookupXs[i%blocks])
		sink += pos
	}))
	rs := learned.BuildRadixSpline(xs, 4, 12)
	p.set("learned.rs_predict_ns", p.timeOp(200_000, func(i int) {
		pos, _, _ := rs.Predict(lookupXs[i%blocks])
		sink += pos
	}))
}

func probeCache(p prober) {
	const resident = 256
	block := make([]byte, 4096)
	c := cache.New(2*resident*int64(len(block)), cache.LRU)
	for i := 0; i < resident; i++ {
		c.Insert(1, uint64(i)*4096, block)
	}
	p.set("cache.get_hit_ns", p.timeOp(200_000, func(i int) {
		b, _ := c.Get(1, uint64(i%resident)*4096)
		sink += len(b)
	}))
	// Every insert is a new block into a full cache, so each one evicts.
	next := uint64(resident)
	p.set("cache.insert_evict_ns", p.timeOp(100_000, func(int) {
		c.Insert(2, next*4096, block)
		next++
	}))
}
