package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lsmkv/internal/filter"
	"lsmkv/internal/manifest"
	"lsmkv/internal/rangefilter"
)

func TestHybridKZLayout(t *testing.T) {
	// K=3, Z=1 (lazy leveling): during load inner levels hold multiple
	// runs while the deepest populated level converges to one.
	opts := smallOpts(t.TempDir())
	opts.HybridK, opts.HybridZ = 3, 1
	db := openDB(t, opts)
	defer db.Close()
	sawMultiRunInner := false
	for i := 0; i < 8000; i++ {
		db.Put(key(i), val(i))
		if i%200 == 0 {
			levels := db.Levels()
			last := 0
			for _, li := range levels {
				if li.Runs > 0 {
					last = li.Level
				}
			}
			for _, li := range levels {
				if li.Level > 0 && li.Level < last && li.Runs > 1 {
					sawMultiRunInner = true
				}
			}
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if !sawMultiRunInner {
		t.Error("lazy leveling never held multiple runs in an inner level")
	}
	// After convergence, the deepest populated level has exactly 1 run.
	levels := db.Levels()
	last := 0
	for _, li := range levels {
		if li.Runs > 0 {
			last = li.Level
		}
	}
	if levels[last].Runs != 1 {
		t.Errorf("lazy leveling last level has %d runs, want 1", levels[last].Runs)
	}
}

func TestL0StallBoundsRunCount(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.L0StopTrigger = 4
	db := openDB(t, opts)
	defer db.Close()
	maxL0 := 0
	for i := 0; i < 8000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			db.mu.Lock()
			if n := db.l0RunsLocked(); n > maxL0 {
				maxL0 = n
			}
			db.mu.Unlock()
		}
	}
	// The stall bounds L0: it can exceed the trigger transiently (flushes
	// land while a compaction runs) but must stay near it.
	if maxL0 > opts.L0StopTrigger+2 {
		t.Errorf("L0 reached %d runs despite stop trigger %d", maxL0, opts.L0StopTrigger)
	}
}

func TestPrefetchRestoresCacheAfterCompaction(t *testing.T) {
	run := func(prefetch bool) float64 {
		opts := smallOpts(t.TempDir())
		opts.CacheBytes = 1 << 20
		opts.PrefetchAfterCompaction = prefetch
		db := openDB(t, opts)
		defer db.Close()
		for i := 0; i < 4000; i++ {
			db.Put(key(i), val(i))
		}
		db.WaitIdle()
		// Warm the cache over the whole key space.
		for round := 0; round < 3; round++ {
			for i := 0; i < 4000; i += 4 {
				db.Get(key(i))
			}
		}
		// Overwrite to force compactions that invalidate cached blocks.
		for i := 0; i < 4000; i++ {
			db.Put(key(i), val(i+1))
		}
		db.WaitIdle()
		// Measure hit rate immediately after the compaction burst.
		before := db.Stats()
		for i := 0; i < 4000; i += 4 {
			db.Get(key(i))
		}
		return db.Stats().Sub(before).CacheHitRate()
	}
	cold := run(false)
	warm := run(true)
	if warm < cold {
		t.Errorf("prefetch hit rate %.3f below no-prefetch %.3f", warm, cold)
	}
}

// TestCompactionElsewhereKeepsHotSetCached: compactions over key ranges
// the hot set does not live in read every input block once, and that
// one-touch traffic must not push the hot set's blocks out of a full
// cache. The hot set sits in the last level before the other ranges are
// written, so no compaction rewrites (and so legitimately invalidates)
// its files; the traces check that premise.
func TestCompactionElsewhereKeepsHotSetCached(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.MaxLevels = 3
	opts.BaseBytes = 16 << 10
	db := openDB(t, opts)
	defer db.Close()

	// The hot range, then a spacer range above it that flushes the hot
	// range's leftovers out of the upper levels.
	const hotKeys, spacerFrom, coldFrom = 1500, 10_000, 100_000
	for i := 0; i < hotKeys; i++ {
		db.Put(key(i), val(i))
	}
	for i := spacerFrom; i < spacerFrom+3000; i++ {
		db.Put(key(i), val(i))
	}
	db.Flush()
	db.WaitIdle()

	readHot := func() (hitRate float64, files []string) {
		before := db.Stats()
		for i := 0; i < hotKeys/2; i += 5 {
			_, tr, err := db.GetTraced(key(i))
			if err != nil {
				t.Fatalf("hot key %d: %v", i, err)
			}
			files = append(files, tr.Source)
		}
		return db.Stats().Sub(before).CacheHitRate(), files
	}
	readHot()
	readHot() // a declined first miss is admitted on its second
	before, filesBefore := readHot()

	// Ten times the cache of other keys, in scattered order so that every
	// merge into the last level reads most of what is already there.
	const coldKeys = 16_000
	for i := 0; i < coldKeys; i++ {
		k := coldFrom + i*7919%coldKeys
		db.Put(key(k), val(k))
	}
	db.Flush()
	db.WaitIdle()
	if db.Stats().CompactionBytesRead < 10*opts.CacheBytes {
		t.Fatalf("compactions read %d bytes, want over ten times the %d-byte cache", db.Stats().CompactionBytesRead, opts.CacheBytes)
	}

	after, filesAfter := readHot()
	if fmt.Sprint(filesBefore) != fmt.Sprint(filesAfter) {
		t.Fatalf("set-up: a compaction rewrote the hot set's files\nbefore %v\nafter  %v", filesBefore, filesAfter)
	}
	if before < 0.99 || after < before {
		t.Errorf("hot set hit rate %.3f before the compactions, %.3f after: their input blocks evicted it", before, after)
	}
}

func TestVlogSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(dir)
	opts.ValueSeparation = true
	opts.ValueThreshold = 64
	big := bytes.Repeat([]byte("x"), 512)
	db := openDB(t, opts)
	for i := 0; i < 200; i++ {
		db.Put(key(i), big)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDB(t, opts)
	defer db2.Close()
	for i := 0; i < 200; i += 13 {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("key %d after reopen: err=%v len=%d", i, err, len(got))
		}
	}
}

func TestScanDuringHeavyWrites(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put(key(i), val(i))
	}
	done := make(chan error, 1)
	go func() {
		for i := 2000; i < 6000; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Scans must stay consistent (sorted, no duplicates) while flushes and
	// compactions churn underneath.
	for round := 0; round < 10; round++ {
		var prev string
		err := db.Scan(key(0), key(10000), func(k, v []byte) bool {
			if prev != "" && string(k) <= prev {
				t.Errorf("scan disorder: %q after %q", k, prev)
				return false
			}
			prev = string(k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRangeFilterScreensScans(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.RangeFilter = rangefilter.KindSuRF
	opts.DisableCache()
	db := openDB(t, opts)
	defer db.Close()
	// Sparse keys: every 16th index.
	for i := 0; i < 2000; i++ {
		db.Put(key(i*16), val(i))
	}
	db.WaitIdle()
	before := db.Stats()
	hits := 0
	for i := 0; i < 500; i++ {
		// Empty ranges strictly between stored keys.
		lo, hi := key(i*16+3), key(i*16+9)
		db.Scan(lo, hi, func(k, v []byte) bool { hits++; return true })
	}
	d := db.Stats().Sub(before)
	if hits != 0 {
		t.Fatalf("empty ranges returned %d keys", hits)
	}
	if d.RangeFilterNegatives == 0 {
		t.Error("range filter never screened a run")
	}
	if d.BlockReads > 100 {
		t.Errorf("%d block reads for 500 screened empty scans", d.BlockReads)
	}
}

func TestManifestCorruptionSurfacesAtOpen(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, smallOpts(dir))
	for i := 0; i < 3000; i++ {
		db.Put(key(i), val(i))
	}
	db.Close()
	if err := os.WriteFile(manifest.Path(dir), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(smallOpts(dir)); err == nil {
		t.Error("corrupt manifest must fail Open")
	}
}

func TestMissingTableFileSurfacesAtOpen(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, smallOpts(dir))
	for i := 0; i < 3000; i++ {
		db.Put(key(i), val(i))
	}
	db.Close()
	// Delete one .sst file referenced by the manifest.
	entries, _ := os.ReadDir(dir)
	removed := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sst") {
			os.Remove(filepath.Join(dir, e.Name()))
			removed = true
			break
		}
	}
	if !removed {
		t.Skip("no table files on disk")
	}
	if _, err := Open(smallOpts(dir)); err == nil {
		t.Error("missing table file must fail Open")
	}
}

func TestSnapshotPreventsTombstoneGC(t *testing.T) {
	opts := smallOpts(t.TempDir())
	db := openDB(t, opts)
	defer db.Close()
	db.Put(key(1), []byte("v"))
	snap := db.NewSnapshot()
	db.Delete(key(1))
	// Churn hard enough to push everything to the bottom level.
	for i := 100; i < 6000; i++ {
		db.Put(key(i), val(i))
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	// The snapshot still sees the old value.
	got, err := snap.Get(key(1))
	if err != nil || string(got) != "v" {
		t.Fatalf("snapshot lost pre-delete version: %q %v", got, err)
	}
	snap.Release()
	// Live reads see the delete.
	if _, err := db.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("live read after delete: %v", err)
	}
}

func TestTombstonesPurgedAtBottom(t *testing.T) {
	opts := smallOpts(t.TempDir())
	db := openDB(t, opts)
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put(key(i), val(i))
	}
	for i := 0; i < 2000; i += 2 {
		db.Delete(key(i))
	}
	// Keep writing so compactions run the deletes down the tree.
	for i := 2000; i < 8000; i++ {
		db.Put(key(i), val(i))
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	var tombs uint64
	for _, li := range db.Levels() {
		tombs += li.Tombstones
	}
	// Not all tombstones can be purged (some still shadow upper-level
	// data), but a converged leveled tree should have dropped most of the
	// 1000 written.
	if tombs > 500 {
		t.Errorf("%d tombstones survive convergence; bottom-level purging broken?", tombs)
	}
	// And the deletes themselves hold.
	for i := 0; i < 2000; i += 200 {
		if _, err := db.Get(key(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d visible: %v", i, err)
		}
	}
}

func TestBackgroundErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(dir)
	db := openDB(t, opts)
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put(key(i), val(i))
	}
	db.Flush()
	// Make the directory unwritable so the next flush fails.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Getuid() == 0 {
		t.Skip("running as root: chmod does not block writes")
	}
	for i := 0; i < 5000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			return // the background failure surfaced to the writer
		}
	}
	t.Error("background write failure never surfaced")
}

func TestFilterKindsEndToEnd(t *testing.T) {
	for _, kind := range []filter.FilterKind{
		filter.KindBloom, filter.KindBlockedBloom, filter.KindCuckoo, filter.KindRibbon,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOpts(t.TempDir())
			opts.Filter = kind
			opts.DisableCache()
			db := openDB(t, opts)
			defer db.Close()
			for i := 0; i < 3000; i++ {
				db.Put(key(i), val(i))
			}
			db.WaitIdle()
			for i := 0; i < 3000; i += 97 {
				got, err := db.Get(key(i))
				if err != nil || !bytes.Equal(got, val(i)) {
					t.Fatalf("%v: Get(%d) = %v", kind, i, err)
				}
			}
			before := db.Stats()
			for i := 0; i < 1000; i++ {
				db.Get([]byte(fmt.Sprintf("key%08dq", i)))
			}
			d := db.Stats().Sub(before)
			if d.BlockReads > 200 {
				t.Errorf("%v: %d block reads for 1000 absent lookups", kind, d.BlockReads)
			}
		})
	}
}
