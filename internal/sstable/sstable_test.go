package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/rangefilter"
)

// memFile is an in-memory io.ReaderAt/io.Writer for table tests.
type memFile struct{ buf bytes.Buffer }

func (m *memFile) Write(p []byte) (int, error) { return m.buf.Write(p) }

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	data := m.buf.Bytes()
	if off >= int64(len(data)) {
		return 0, fmt.Errorf("read past end")
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, fmt.Errorf("short read")
	}
	return n, nil
}

// buildTable writes n versioned keys "key%08d" (i*stride) with per-key
// versions and returns an opened reader.
func buildTable(t testing.TB, opts WriterOptions, ropts ReaderOptions, n, stride int) *Reader {
	t.Helper()
	f := &memFile{}
	w := NewWriter(f, opts)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key%08d", i*stride))
		ik := kv.MakeInternalKey(key, kv.SeqNum(i+1), kv.KindSet)
		if err := w.Add(ik, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	_, size, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if size != uint64(f.buf.Len()) {
		t.Fatalf("Finish reported size %d, wrote %d", size, f.buf.Len())
	}
	r, err := OpenReader(f, int64(f.buf.Len()), ropts)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	return r
}

func variantOptions() map[string]WriterOptions {
	base := filter.Policy{Kind: filter.KindBloom, BitsPerKey: 10}
	return map[string]WriterOptions{
		"plain":       {BlockSize: 512},
		"bloom":       {BlockSize: 512, Filter: base},
		"partitioned": {BlockSize: 512, Filter: base, FilterPartitioned: true},
		"hashindex":   {BlockSize: 512, Filter: base, BlockHashIndex: true},
		"learned-plr": {BlockSize: 512, Filter: base, Learned: LearnedPLR},
		"learned-rs":  {BlockSize: 512, Filter: base, Learned: LearnedRadixSpline},
		"rangefilter": {BlockSize: 512, Filter: base,
			RangeFilter: rangefilter.Policy{Kind: rangefilter.KindSuRF, SuRFMode: rangefilter.SuRFReal, SuRFSuffixBytes: 2}},
		"everything": {BlockSize: 512, Filter: base, FilterPartitioned: true, BlockHashIndex: true,
			Learned:     LearnedPLR,
			RangeFilter: rangefilter.Policy{Kind: rangefilter.KindSuRF, SuRFMode: rangefilter.SuRFReal, SuRFSuffixBytes: 2}},
	}
}

func readerOptionsFor(name string) ReaderOptions {
	return ReaderOptions{UseLearnedIndex: true, UseBlockHashIndex: true}
}

func TestTableGetAllVariants(t *testing.T) {
	const n, stride = 2000, 3
	for name, opts := range variantOptions() {
		t.Run(name, func(t *testing.T) {
			r := buildTable(t, opts, readerOptionsFor(name), n, stride)
			// Every present key is found with the right value.
			for i := 0; i < n; i += 7 {
				key := []byte(fmt.Sprintf("key%08d", i*stride))
				v, kind, found, err := r.Get(key, filter.HashKey(key), kv.MaxSeqNum)
				if err != nil {
					t.Fatalf("Get(%s): %v", key, err)
				}
				if !found || kind != kv.KindSet {
					t.Fatalf("Get(%s): found=%v kind=%v", key, found, kind)
				}
				if want := fmt.Sprintf("value-%d", i); string(v) != want {
					t.Fatalf("Get(%s): value %q want %q", key, v, want)
				}
			}
			// Absent keys (between strides) are not found.
			for i := 0; i < n; i += 13 {
				key := []byte(fmt.Sprintf("key%08d", i*stride+1))
				_, _, found, err := r.Get(key, filter.HashKey(key), kv.MaxSeqNum)
				if err != nil {
					t.Fatalf("Get absent: %v", err)
				}
				if found {
					t.Fatalf("Get(%s): found absent key", key)
				}
			}
		})
	}
}

// TestProbeWalksAscendingKeys: one Probe given a table's keys in
// ascending order — present and absent, repeated, below the first key and
// past the last — answers each as a lookup of its own does, and loads
// each block at most once, repeated keys included, in every variant
// (fences, learned models, hash indexes, partitioned filters).
func TestProbeWalksAscendingKeys(t *testing.T) {
	const n, stride = 2000, 3
	for name, opts := range variantOptions() {
		t.Run(name, func(t *testing.T) {
			r := buildTable(t, opts, readerOptionsFor(name), n, stride)
			distinct := [][]byte{[]byte("a")}
			for i := 0; i < n*stride; i++ {
				distinct = append(distinct, []byte(fmt.Sprintf("key%08d", i)))
			}
			distinct = append(distinct, []byte("zzz"))
			// Repeats: every 97th key, and every block's first key — the
			// one whose walk starts a block early, in case newer versions
			// of it end that block.
			firsts := map[string]bool{}
			for b := range r.NumBlocks() {
				firsts[string(r.index.Entry(b).FirstKey)] = true
			}
			var repeated [][]byte
			for i, key := range distinct {
				if repeated = append(repeated, key); i%97 == 0 || firsts[string(key)] {
					repeated = append(repeated, key)
				}
			}
			walk := func(keys [][]byte) (tally iostat.Tally) {
				p := NewProbe()
				defer p.Release()
				for _, key := range keys {
					kh := filter.HashKey(key)
					v, kind, found, err := p.Get(r, key, kh, kv.MaxSeqNum, nil, &tally, nil)
					wv, wkind, wfound, werr := r.Get(key, kh, kv.MaxSeqNum)
					if err != nil || werr != nil {
						t.Fatalf("%s: probe err %v, lookup err %v", key, err, werr)
					}
					if found != wfound || kind != wkind || !bytes.Equal(v, wv) {
						t.Fatalf("%s: probe (%q, %v, %v), lookup (%q, %v, %v)", key, v, kind, found, wv, wkind, wfound)
					}
				}
				return tally
			}
			reads := walk(distinct).BlockReads
			if reads > int64(r.NumBlocks()) {
				t.Errorf("%d block reads walking %d blocks in key order", reads, r.NumBlocks())
			}
			if again := walk(repeated).BlockReads; again != reads {
				t.Errorf("%d block reads with keys repeated, %d without", again, reads)
			}
			if name == "plain" && reads != int64(r.NumBlocks()) {
				t.Errorf("plain: %d block reads, want each of %d blocks once", reads, r.NumBlocks())
			}
		})
	}
}

func TestTableIteratorFullScan(t *testing.T) {
	const n = 3000
	for name, opts := range variantOptions() {
		t.Run(name, func(t *testing.T) {
			r := buildTable(t, opts, readerOptionsFor(name), n, 2)
			it := r.NewIterator()
			defer it.Close()
			count := 0
			var prev kv.InternalKey
			for ok := it.First(); ok; ok = it.Next() {
				if count > 0 && kv.CompareInternal(prev, it.Key()) >= 0 {
					t.Fatalf("out of order at %d", count)
				}
				prev = it.Key().Clone()
				count++
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
			if count != n {
				t.Fatalf("scanned %d entries want %d", count, n)
			}
		})
	}
}

func TestTableIteratorSeekGE(t *testing.T) {
	const n, stride = 1000, 10
	r := buildTable(t, WriterOptions{BlockSize: 256}, ReaderOptions{}, n, stride)
	it := r.NewIterator()
	defer it.Close()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		x := rng.Intn(n*stride + 100)
		target := kv.MakeSearchKey([]byte(fmt.Sprintf("key%08d", x)), kv.MaxSeqNum)
		ok := it.SeekGE(target)
		// Expected: first key with i*stride >= x.
		wantIdx := (x + stride - 1) / stride
		if wantIdx >= n {
			if ok {
				t.Fatalf("SeekGE(%d) found %s, want exhausted", x, it.Key())
			}
			continue
		}
		if !ok {
			t.Fatalf("SeekGE(%d) exhausted, want key%08d", x, wantIdx*stride)
		}
		want := fmt.Sprintf("key%08d", wantIdx*stride)
		if string(it.Key().UserKey) != want {
			t.Fatalf("SeekGE(%d) landed on %s want %s", x, it.Key().UserKey, want)
		}
	}
}

func TestTableMultiVersionKeys(t *testing.T) {
	// One user key with many versions spanning multiple blocks, plus
	// neighbors: the lookup must return the newest visible version for
	// every snapshot even when versions straddle block boundaries.
	f := &memFile{}
	w := NewWriter(f, WriterOptions{BlockSize: 128}) // tiny blocks force straddling
	add := func(key string, seq kv.SeqNum, kind kv.Kind, val string) {
		if err := w.Add(kv.MakeInternalKey([]byte(key), seq, kind), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	add("aaa", 5, kv.KindSet, "a5")
	const versions = 100
	for s := versions; s >= 1; s-- { // internal order: high seq first
		add("hot", kv.SeqNum(s), kv.KindSet, fmt.Sprintf("hot%d", s))
	}
	add("zzz", 7, kv.KindSet, "z7")
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f, int64(f.buf.Len()), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBlocks() < 5 {
		t.Fatalf("expected many blocks, got %d", r.NumBlocks())
	}
	for _, snap := range []kv.SeqNum{1, 2, 50, 99, 100, 200} {
		want := snap
		if want > versions {
			want = versions
		}
		v, _, found, err := r.Get([]byte("hot"), filter.HashKey([]byte("hot")), snap)
		if err != nil || !found {
			t.Fatalf("snap %d: found=%v err=%v", snap, found, err)
		}
		if string(v) != fmt.Sprintf("hot%d", want) {
			t.Fatalf("snap %d: got %q want hot%d", snap, v, want)
		}
	}
	// Snapshot 0 sees nothing.
	if _, _, found, _ := r.Get([]byte("hot"), filter.HashKey([]byte("hot")), 0); found {
		t.Error("snapshot 0 must not see any version")
	}
	// Neighbors still resolve.
	v, _, found, _ := r.Get([]byte("aaa"), filter.HashKey([]byte("aaa")), kv.MaxSeqNum)
	if !found || string(v) != "a5" {
		t.Errorf("aaa: %q %v", v, found)
	}
	v, _, found, _ = r.Get([]byte("zzz"), filter.HashKey([]byte("zzz")), kv.MaxSeqNum)
	if !found || string(v) != "z7" {
		t.Errorf("zzz: %q %v", v, found)
	}
}

func TestTableTombstones(t *testing.T) {
	f := &memFile{}
	w := NewWriter(f, WriterOptions{BlockSize: 512})
	w.Add(kv.MakeInternalKey([]byte("k"), 9, kv.KindDelete), nil)
	w.Add(kv.MakeInternalKey([]byte("k"), 5, kv.KindSet), []byte("v5"))
	props, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if props.NumTombstones != 1 {
		t.Errorf("NumTombstones=%d want 1", props.NumTombstones)
	}
	r, err := OpenReader(f, int64(f.buf.Len()), ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, kind, found, _ := r.Get([]byte("k"), filter.HashKey([]byte("k")), kv.MaxSeqNum)
	if !found || kind != kv.KindDelete {
		t.Errorf("expected tombstone at snapshot max, got kind=%v found=%v", kind, found)
	}
	v, kind, found, _ := r.Get([]byte("k"), filter.HashKey([]byte("k")), 5)
	if !found || kind != kv.KindSet || string(v) != "v5" {
		t.Errorf("snapshot 5 must see v5, got %q kind=%v found=%v", v, kind, found)
	}
}

func TestTableProperties(t *testing.T) {
	r := buildTable(t, WriterOptions{BlockSize: 512}, ReaderOptions{}, 500, 2)
	p := r.Properties()
	if p.NumEntries != 500 {
		t.Errorf("NumEntries=%d", p.NumEntries)
	}
	if string(p.SmallestUser) != "key00000000" {
		t.Errorf("SmallestUser=%q", p.SmallestUser)
	}
	if string(p.LargestUser) != fmt.Sprintf("key%08d", 499*2) {
		t.Errorf("LargestUser=%q", p.LargestUser)
	}
	if p.SmallestSeq != 1 || p.LargestSeq != 500 {
		t.Errorf("seq bounds [%d,%d]", p.SmallestSeq, p.LargestSeq)
	}
	if p.NumBlocks == 0 || int(p.NumBlocks) != r.NumBlocks() {
		t.Errorf("NumBlocks=%d reader says %d", p.NumBlocks, r.NumBlocks())
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	w := NewWriter(&memFile{}, WriterOptions{})
	if err := w.Add(kv.MakeInternalKey([]byte("b"), 1, kv.KindSet), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(kv.MakeInternalKey([]byte("a"), 2, kv.KindSet), nil); err == nil {
		t.Error("smaller user key must be rejected")
	}
	// Same user key with higher seq sorts earlier — also out of order.
	w2 := NewWriter(&memFile{}, WriterOptions{})
	w2.Add(kv.MakeInternalKey([]byte("k"), 1, kv.KindSet), nil)
	if err := w2.Add(kv.MakeInternalKey([]byte("k"), 9, kv.KindSet), nil); err == nil {
		t.Error("newer version after older must be rejected")
	}
}

func TestOpenReaderRejectsCorrupt(t *testing.T) {
	f := &memFile{}
	w := NewWriter(f, WriterOptions{BlockSize: 256})
	for i := 0; i < 100; i++ {
		w.Add(kv.MakeInternalKey([]byte(fmt.Sprintf("key%04d", i)), kv.SeqNum(i+1), kv.KindSet), []byte("v"))
	}
	w.Finish()
	good := append([]byte(nil), f.buf.Bytes()...)

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if _, err := OpenReader(&memFile{buf: *bytes.NewBuffer(bad)}, int64(len(bad)), ReaderOptions{}); err == nil {
		t.Error("corrupt magic must fail")
	}
	// Too short.
	if _, err := OpenReader(&memFile{buf: *bytes.NewBuffer(good[:10])}, 10, ReaderOptions{}); err == nil {
		t.Error("truncated table must fail")
	}
}

func TestBlockChecksumDetectsBitRot(t *testing.T) {
	f := &memFile{}
	w := NewWriter(f, WriterOptions{BlockSize: 4096})
	for i := 0; i < 100; i++ {
		w.Add(kv.MakeInternalKey([]byte(fmt.Sprintf("key%04d", i)), kv.SeqNum(i+1), kv.KindSet), []byte("value"))
	}
	w.Finish()
	data := f.buf.Bytes()
	data[10] ^= 0x01 // flip a bit inside the first data block
	r, err := OpenReader(f, int64(len(data)), ReaderOptions{})
	if err != nil {
		t.Fatal(err) // footer/index are intact
	}
	_, _, _, err = r.Get([]byte("key0000"), filter.HashKey([]byte("key0000")), kv.MaxSeqNum)
	if err == nil {
		t.Error("bit rot in a data block must surface as an error")
	}
}

func TestStatsAccounting(t *testing.T) {
	stats := &iostat.Stats{}
	opts := WriterOptions{BlockSize: 512, Filter: filter.Policy{Kind: filter.KindBloom, BitsPerKey: 10}}
	r := buildTable(t, opts, ReaderOptions{Stats: stats}, 1000, 2)

	// A present-key Get must read at least one block.
	key := []byte(fmt.Sprintf("key%08d", 500*2))
	r.Get(key, filter.HashKey(key), kv.MaxSeqNum)
	s := stats.Snapshot()
	if s.BlockReads == 0 || s.BytesRead == 0 {
		t.Errorf("expected block reads recorded: %+v", s)
	}

	// Absent keys screened by MayContain never touch storage. The screen
	// counts into the caller's tally, which reaches Stats when flushed.
	before := stats.Snapshot()
	screened := 0
	var tally iostat.Tally
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("nope%08d", i))
		if !r.MayContain(filter.HashKey(key), &tally, nil) {
			screened++
		}
	}
	tally.FlushTo(stats)
	after := stats.Snapshot()
	if screened < 450 {
		t.Errorf("bloom screened only %d/500 absent keys", screened)
	}
	if after.BlockReads != before.BlockReads {
		t.Error("MayContain must not read blocks")
	}
	if after.FilterProbes-before.FilterProbes != 500 {
		t.Errorf("FilterProbes delta %d want 500", after.FilterProbes-before.FilterProbes)
	}
}

func TestPartitionedFilterSkipsBlocks(t *testing.T) {
	stats := &iostat.Stats{}
	opts := WriterOptions{
		BlockSize:         512,
		Filter:            filter.Policy{Kind: filter.KindBloom, BitsPerKey: 10},
		FilterPartitioned: true,
	}
	r := buildTable(t, opts, ReaderOptions{Stats: stats}, 2000, 2)
	before := stats.Snapshot()
	misses := 0
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("key%08d", i*2+1)) // absent, inside key range
		_, _, found, err := r.Get(key, filter.HashKey(key), kv.MaxSeqNum)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			misses++
		}
	}
	after := stats.Snapshot()
	if misses != 300 {
		t.Fatalf("absent keys found: %d/300 missing", misses)
	}
	// Partitioned filters should have stopped nearly all block reads.
	reads := after.BlockReads - before.BlockReads
	if reads > 30 {
		t.Errorf("%d block reads for 300 filtered absent-key lookups", reads)
	}
	if after.FilterNegatives == before.FilterNegatives {
		t.Error("no partitioned-filter negatives recorded")
	}
}

func TestRangeFilterBlockRoundTrip(t *testing.T) {
	opts := WriterOptions{
		BlockSize:   512,
		RangeFilter: rangefilter.Policy{Kind: rangefilter.KindSuRF, SuRFMode: rangefilter.SuRFReal, SuRFSuffixBytes: 2},
	}
	r := buildTable(t, opts, ReaderOptions{}, 1000, 10)
	// Range covering existing keys answers maybe.
	if !r.MayContainRange([]byte("key00000100"), []byte("key00000200")) {
		t.Error("populated range filtered out")
	}
	// Range past the last key (key00009990) is empty.
	if r.MayContainRange([]byte("key00009991"), []byte("key00009995")) {
		t.Error("empty tail range not filtered (SuRF should prune this)")
	}
}

func TestApproxIndexMemoryPositive(t *testing.T) {
	for name, opts := range variantOptions() {
		r := buildTable(t, opts, readerOptionsFor(name), 500, 2)
		if r.ApproxIndexMemory() <= 0 {
			t.Errorf("%s: ApproxIndexMemory not positive", name)
		}
	}
}

func TestPrefetchBlockWarmsCache(t *testing.T) {
	c := &countingCache{data: map[string][]byte{}}
	stats := &iostat.Stats{}
	r := buildTable(t, WriterOptions{BlockSize: 512},
		ReaderOptions{Cache: c, Stats: stats, FileNum: 7}, 1000, 2)
	for i := 0; i < r.NumBlocks(); i++ {
		if err := r.PrefetchBlock(i); err != nil {
			t.Fatal(err)
		}
	}
	before := stats.Snapshot()
	// Every offer was declined and every block inserted anyway: prefetch
	// books what became resident as admitted.
	if before.BlockCacheAdmits != int64(r.NumBlocks()) || before.BlockCacheRejects != 0 {
		t.Errorf("prefetch of %d blocks: %d admits, %d rejects", r.NumBlocks(), before.BlockCacheAdmits, before.BlockCacheRejects)
	}
	key := []byte(fmt.Sprintf("key%08d", 100*2))
	_, _, found, err := r.Get(key, filter.HashKey(key), kv.MaxSeqNum)
	if err != nil || !found {
		t.Fatalf("Get after prefetch: %v %v", found, err)
	}
	after := stats.Snapshot()
	if after.BlockReads != before.BlockReads {
		t.Error("Get after full prefetch must be served from cache")
	}
	if after.BlockCacheHits == before.BlockCacheHits {
		t.Error("expected a cache hit")
	}
}

// countingCache is a trivial map-backed BlockCache for tests. It declines
// every Offer, so only an unconditional Insert populates it.
type countingCache struct {
	data map[string][]byte
}

func (c *countingCache) key(f, o uint64) string { return fmt.Sprintf("%d/%d", f, o) }

func (c *countingCache) Get(f, o uint64) ([]byte, bool) {
	b, ok := c.data[c.key(f, o)]
	return b, ok
}

func (c *countingCache) Insert(f, o uint64, b []byte) { c.data[c.key(f, o)] = b }

func (c *countingCache) Offer(f, o uint64, b []byte) bool { return false }

func BenchmarkTableGet(b *testing.B) {
	r := buildTable(b, WriterOptions{BlockSize: 4096, Filter: filter.Policy{Kind: filter.KindBloom, BitsPerKey: 10}},
		ReaderOptions{}, 100000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key%08d", (i%100000)*2))
		r.Get(key, filter.HashKey(key), kv.MaxSeqNum)
	}
}

func BenchmarkTableScan(b *testing.B) {
	r := buildTable(b, WriterOptions{BlockSize: 4096}, ReaderOptions{}, 100000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := r.NewIterator()
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			n++
		}
		it.Close()
		if n != 100000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

// TestBlockOrdinalForOffset: the start offset of every block maps back to
// its ordinal, and an offset where no block starts maps to -1.
func TestBlockOrdinalForOffset(t *testing.T) {
	r := buildTable(t, WriterOptions{BlockSize: 512}, ReaderOptions{}, 2000, 2)
	if r.NumBlocks() < 10 {
		t.Fatalf("only %d blocks", r.NumBlocks())
	}
	for i := 0; i < r.NumBlocks(); i++ {
		h := r.index.Entry(i).Handle
		if got := r.BlockOrdinalForOffset(h.Offset); got != i {
			t.Fatalf("offset %d of block %d maps to %d", h.Offset, i, got)
		}
		if got := r.BlockOrdinalForOffset(h.Offset + 1); got != -1 {
			t.Fatalf("offset %d inside block %d maps to %d, want -1", h.Offset+1, i, got)
		}
	}
	if got := r.BlockOrdinalForOffset(uint64(r.size)); got != -1 {
		t.Fatalf("offset past the data blocks maps to %d, want -1", got)
	}
}
