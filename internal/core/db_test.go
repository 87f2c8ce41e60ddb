package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lsmkv/internal/compaction"
	"lsmkv/internal/filter"
	"lsmkv/internal/rangefilter"
	"lsmkv/internal/sstable"
)

// smallOpts returns options tuned so a few thousand writes exercise
// flushes and multi-level compactions.
func smallOpts(dir string) Options {
	return Options{
		Dir: dir, L0CompactionTrigger: 2, BaseBytes: 32 << 10,
		Design: Design{
			MemtableBytes: 16 << 10, SizeRatio: 4, MaxLevels: 5,
			BlockSize: 1024, Filter: filter.KindBloom, BitsPerKey: 10, CacheBytes: 256 << 10,
		},
	}
}

func openDB(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
func val(i int) []byte {
	return []byte(fmt.Sprintf("value-%d-%s", i, string(bytes.Repeat([]byte{'x'}, 32))))
}

func TestBasicPutGet(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	if err := db.Put(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get(key(1))
	if err != nil || !bytes.Equal(got, val(1)) {
		t.Fatalf("Get: %q, %v", got, err)
	}
	if _, err := db.Get(key(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v", err)
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	db.Put(key(1), []byte("v1"))
	db.Put(key(1), []byte("v2"))
	got, _ := db.Get(key(1))
	if string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}
	db.Delete(key(1))
	if _, err := db.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key visible: %v", err)
	}
	// Re-insert after delete.
	db.Put(key(1), []byte("v3"))
	got, _ = db.Get(key(1))
	if string(got) != "v3" {
		t.Fatalf("reinsert after delete: %q", got)
	}
}

// TestDifferentialAgainstMap is the core correctness test: random
// put/delete/get/scan traffic compared entry-for-entry with a model map,
// across flushes and compactions, for several design points.
func TestDifferentialAgainstMap(t *testing.T) {
	designs := map[string]func(o *Options){
		"leveled": func(o *Options) {},
		"tiered": func(o *Options) {
			o.HybridK, o.HybridZ = 3, 3
		},
		"lazy": func(o *Options) {
			o.HybridK, o.HybridZ = 3, 1
		},
		"partial-minoverlap": func(o *Options) {
			o.PartialCompaction = true
			o.FilePicking = compaction.PickMinOverlap
		},
		"everything-on": func(o *Options) {
			o.PartitionedFilters = true
			o.BlockHashIndex = true
			o.LearnedIndex = sstable.LearnedPLR
			o.MonkeyFilters = true
			o.RangeFilter = rangefilter.KindSuRF
		},
		"two-level-buffer": func(o *Options) { o.TwoLevelMemtable = true },
		"no-wal":           func(o *Options) { o.DisableWAL = true },
		"vlog": func(o *Options) {
			o.ValueSeparation = true
			o.ValueThreshold = 32
		},
	}
	for name, tweak := range designs {
		t.Run(name, func(t *testing.T) {
			opts := smallOpts(t.TempDir())
			tweak(&opts)
			db := openDB(t, opts)
			defer db.Close()

			model := map[string]string{}
			rng := rand.New(rand.NewSource(42))
			const ops = 6000
			const keySpace = 700
			for i := 0; i < ops; i++ {
				k := key(rng.Intn(keySpace))
				switch rng.Intn(10) {
				case 0: // delete
					if err := db.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(model, string(k))
				default:
					v := val(i)
					if err := db.Put(k, v); err != nil {
						t.Fatal(err)
					}
					model[string(k)] = string(v)
				}
				if i%997 == 0 {
					// Random spot-check mid-stream.
					probe := key(rng.Intn(keySpace))
					got, err := db.Get(probe)
					want, ok := model[string(probe)]
					if ok && (err != nil || string(got) != want) {
						t.Fatalf("op %d: Get(%s)=%q,%v want %q", i, probe, got, err, want)
					}
					if !ok && !errors.Is(err, ErrNotFound) {
						t.Fatalf("op %d: Get(%s) expected ErrNotFound, got %q,%v", i, probe, got, err)
					}
				}
			}
			if err := db.WaitIdle(); err != nil {
				t.Fatal(err)
			}

			// Full verification of every key.
			for i := 0; i < keySpace; i++ {
				k := key(i)
				got, err := db.Get(k)
				want, ok := model[string(k)]
				if ok {
					if err != nil || string(got) != want {
						t.Fatalf("final Get(%s)=%q,%v want %q", k, got, err, want)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("final Get(%s): want ErrNotFound, got %q,%v", k, got, err)
				}
			}

			// Full scan matches the model.
			got := map[string]string{}
			err := db.Scan(key(0), key(keySpace), func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(model) {
				t.Fatalf("scan returned %d keys, model has %d", len(got), len(model))
			}
			for k, v := range model {
				if got[k] != v {
					t.Fatalf("scan mismatch at %s: %q want %q", k, got[k], v)
				}
			}
		})
	}
}

func TestScanRangeBounds(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put(key(i*2), val(i)) // even keys only
	}
	db.Flush()
	var got []string
	err := db.Scan(key(10), key(20), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{string(key(10)), string(key(12)), string(key(14)), string(key(16)), string(key(18)), string(key(20))}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Early termination.
	count := 0
	db.Scan(key(0), key(1000), func(k, v []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop did not work: %d", count)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	db.Put(key(1), []byte("old"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Put(key(1), []byte("new"))
	db.Delete(key(2)) // key 2 never existed; snapshot should still miss it
	db.Put(key(3), []byte("post-snap"))

	got, err := snap.Get(key(1))
	if err != nil || string(got) != "old" {
		t.Fatalf("snapshot sees %q, %v", got, err)
	}
	if _, err := snap.Get(key(3)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot sees post-snapshot key: %v", err)
	}
	// Live reads see the new state.
	got, _ = db.Get(key(1))
	if string(got) != "new" {
		t.Fatalf("live read got %q", got)
	}
	// Snapshot survives flush + compaction.
	for i := 10; i < 2000; i++ {
		db.Put(key(i), val(i))
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	got, err = snap.Get(key(1))
	if err != nil || string(got) != "old" {
		t.Fatalf("snapshot after compaction sees %q, %v", got, err)
	}
	// Snapshot scan sees the old world.
	n := 0
	snap.Scan(key(0), key(100000), func(k, v []byte) bool { n++; return true })
	if n != 1 {
		t.Fatalf("snapshot scan saw %d keys want 1", n)
	}
}

func TestCrashRecoveryViaWAL(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(dir)
	db := openDB(t, opts)
	for i := 0; i < 100; i++ {
		db.Put(key(i), val(i))
	}
	// Simulate crash: do NOT close; drop the handle after stopping
	// background work the hard way. We at least stop new writes.
	db.commitMu.Lock()
	db.wal.Sync()
	db.commitMu.Unlock()
	// Abandon db (its goroutine will be left; acceptable in tests) and
	// reopen from disk state.
	db2 := openDB(t, opts)
	defer db2.Close()
	for i := 0; i < 100; i++ {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("after recovery Get(%d)=%q,%v", i, got, err)
		}
	}
}

func TestReopenPreservesData(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(dir)
	db := openDB(t, opts)
	const n = 3000
	for i := 0; i < n; i++ {
		db.Put(key(i), val(i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, opts)
	defer db2.Close()
	for i := 0; i < n; i += 17 {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, val(i)) {
			t.Fatalf("after reopen Get(%d)=%q,%v", i, got, err)
		}
	}
	// And the tree shape persisted (data reached storage levels).
	if totalRuns(db2) == 0 {
		t.Error("no runs after reopen")
	}
}

func TestCompactionsReduceRuns(t *testing.T) {
	opts := smallOpts(t.TempDir())
	db := openDB(t, opts)
	defer db.Close()
	for i := 0; i < 8000; i++ {
		db.Put(key(i%1000), val(i))
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	// Leveled shape: every level at most 1 run.
	for _, li := range db.Levels() {
		budget := 1
		if li.Level == 0 {
			budget = opts.L0CompactionTrigger
		}
		if li.Runs > budget {
			t.Errorf("level %d has %d runs (budget %d)", li.Level, li.Runs, budget)
		}
	}
	if db.Stats().Compactions == 0 {
		t.Error("no compactions ran")
	}
}

func TestTieredKeepsMoreRuns(t *testing.T) {
	// A single converged snapshot is noisy (a final merge can collapse
	// everything); average the run count sampled across the workload.
	// Each sample drains maintenance first so it reads the shape the
	// policy converges to, not the background goroutine's scheduling.
	avgRuns := func(k, z int) float64 {
		opts := smallOpts(t.TempDir())
		opts.HybridK, opts.HybridZ = k, z
		db := openDB(t, opts)
		defer db.Close()
		total, samples := 0, 0
		for i := 0; i < 6000; i++ {
			db.Put(key(i%2000), val(i))
			if i%100 == 99 {
				if err := db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
				total += totalRuns(db)
				samples++
			}
		}
		db.WaitIdle()
		return float64(total) / float64(samples)
	}
	leveled := avgRuns(1, 1)
	tiered := avgRuns(3, 3)
	if tiered <= leveled {
		t.Errorf("tiered avg runs (%.2f) not above leveled (%.2f)", tiered, leveled)
	}
}

func TestWriteAmpLeveledVsTiered(t *testing.T) {
	amp := func(k, z int) float64 {
		opts := smallOpts(t.TempDir())
		opts.HybridK, opts.HybridZ = k, z
		db := openDB(t, opts)
		defer db.Close()
		for i := 0; i < 12000; i++ {
			db.Put(key(i%3000), val(i))
		}
		db.WaitIdle()
		return db.Stats().WriteAmplification()
	}
	leveled := amp(1, 1)
	tiered := amp(3, 3)
	if tiered >= leveled {
		t.Errorf("tiered write amp (%.2f) not below leveled (%.2f)", tiered, leveled)
	}
}

func TestBloomFiltersCutZeroResultIO(t *testing.T) {
	run := func(kind filter.FilterKind) (blockReads int64) {
		opts := smallOpts(t.TempDir())
		opts.Filter, opts.filterDisabled = kind, kind == filter.KindNone
		opts.DisableCache() // isolate filter effect from caching
		db := openDB(t, opts)
		defer db.Close()
		for i := 0; i < 4000; i++ {
			db.Put(key(i), val(i))
		}
		db.WaitIdle()
		before := db.Stats()
		for i := 0; i < 1000; i++ {
			// Absent keys interleaved inside the populated key range so
			// fence pointers cannot screen them without filters.
			db.Get([]byte(fmt.Sprintf("key%08dx", i)))
		}
		return db.Stats().Sub(before).BlockReads
	}
	withFilter := run(filter.KindBloom)
	withoutFilter := run(filter.KindNone)
	if withFilter >= withoutFilter {
		t.Errorf("bloom did not cut zero-result I/O: with=%d without=%d", withFilter, withoutFilter)
	}
	if withFilter > 100 {
		t.Errorf("with bloom, 1000 absent lookups did %d block reads", withFilter)
	}
}

func TestValueSeparationRoundTrip(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.ValueSeparation = true
	opts.ValueThreshold = 100
	db := openDB(t, opts)
	defer db.Close()
	big := bytes.Repeat([]byte("B"), 2048)
	small := []byte("small")
	db.Put([]byte("big"), big)
	db.Put([]byte("small"), small)
	db.Flush()
	got, err := db.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big value: %v (len %d)", err, len(got))
	}
	got, err = db.Get([]byte("small"))
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("small value: %v", err)
	}
	if db.Stats().VlogReads == 0 {
		t.Error("big value read did not touch the value log")
	}
	// Scan resolves pointers too.
	found := false
	db.Scan([]byte("a"), []byte("z"), func(k, v []byte) bool {
		if string(k) == "big" {
			found = bytes.Equal(v, big)
		}
		return true
	})
	if !found {
		t.Error("scan did not resolve separated value")
	}
}

func TestValueLogGCReclaims(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.ValueSeparation = true
	opts.ValueThreshold = 100
	opts.VlogSegmentBytes = 16 << 10
	db := openDB(t, opts)
	defer db.Close()
	payload := bytes.Repeat([]byte("v"), 1024)
	// Overwrite a small key set many times: most vlog entries become dead.
	for i := 0; i < 200; i++ {
		db.Put(key(i%10), payload)
	}
	db.Flush()
	sizeBefore := db.vlog.SizeBytes()
	for i := 0; i < 10; i++ {
		if _, err := db.RunValueLogGC(); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	if db.vlog.SizeBytes() >= sizeBefore {
		t.Errorf("GC did not reclaim: before=%d after=%d", sizeBefore, db.vlog.SizeBytes())
	}
	// All live keys still resolve.
	for i := 0; i < 10; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("key %d after GC: %v", i, err)
		}
	}
}

func TestMonkeyAllocationSkewsBitsToSmallLevels(t *testing.T) {
	// Monkey's defining mechanism: at a fixed total budget, shallower
	// (smaller) levels receive more filter bits per key than the deepest
	// (largest) level. Measure built tables' actual filter memory. (The
	// resulting drop in expected false-positive probes is verified
	// analytically in the filter package and end-to-end in bench E3.)
	opts := smallOpts(t.TempDir())
	opts.BitsPerKey = 6
	opts.MonkeyFilters = true
	db := openDB(t, opts)
	defer db.Close()
	for i := 0; i < 20000; i++ {
		db.Put(key(i), val(i))
	}
	db.WaitIdle()

	type levelFilter struct {
		keys  uint64
		bytes int
	}
	db.mu.Lock()
	v := db.current
	v.ref()
	db.mu.Unlock()
	defer v.unref()
	var per []levelFilter
	for _, level := range v.levels {
		lf := levelFilter{}
		for _, r := range level {
			for _, th := range r.tables {
				lf.keys += th.meta.Entries
				lf.bytes += th.reader.FilterMemory()
			}
		}
		per = append(per, lf)
	}
	// Find the deepest populated level and the shallowest populated one
	// above it with a meaningfully smaller key count.
	deepest := -1
	for i, lf := range per {
		if lf.keys > 0 {
			deepest = i
		}
	}
	if deepest < 1 {
		t.Skip("tree did not grow multiple levels; enlarge the workload")
	}
	deepBits := float64(per[deepest].bytes) * 8 / float64(per[deepest].keys)
	foundSmaller := false
	for i := 0; i < deepest; i++ {
		if per[i].keys == 0 || per[i].keys*4 > per[deepest].keys {
			continue
		}
		foundSmaller = true
		smallBits := float64(per[i].bytes) * 8 / float64(per[i].keys)
		if smallBits <= deepBits {
			t.Errorf("level %d (%d keys) got %.2f bits/key, not above deepest level %d (%d keys, %.2f bits/key)",
				i, per[i].keys, smallBits, deepest, per[deepest].keys, deepBits)
		}
	}
	if !foundSmaller {
		t.Skip("no shallow level with <1/4 of deepest keys at convergence")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
}

func TestClosedDBErrors(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	db.Put(key(1), val(1))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(key(2), val(2)); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close: %v", err)
	}
	if _, err := db.Get(key(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close: %v", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	done := make(chan error, 3)
	go func() {
		for i := 0; i < 4000; i++ {
			if err := db.Put(key(i%500), val(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < 2000; i++ {
				_, err := db.Get(key(i % 500))
				if err != nil && !errors.Is(err, ErrNotFound) {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestLevelsAndDebugString(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put(key(i), val(i))
	}
	db.WaitIdle()
	if db.IndexMemory() <= 0 {
		t.Error("IndexMemory not positive after flushes")
	}
	if totalRuns(db) == 0 {
		t.Error("Levels empty after flushes")
	}
}

// totalRuns is the sorted-run count across every level of db.
func totalRuns(db *DB) int {
	n := 0
	for _, li := range db.Levels() {
		n += li.Runs
	}
	return n
}
