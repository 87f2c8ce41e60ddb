package lsmkv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lsmkv/internal/iostat"
	"lsmkv/internal/workload"
)

// TestMultiGetZipfianBatches drives MultiGet with workload-generated
// Zipfian batches — hot keys repeat within a single batch, the way a
// real cache-unfriendly read mix produces them — and holds the batch
// path to the sequential oracle: every batch must return exactly what
// N individual Gets return, across memtable, flushed runs, and absent
// keys. The traced variant must report a per-key read-path trace whose
// filter and cache decisions are populated for keys that went to disk.
func TestMultiGetZipfianBatches(t *testing.T) {
	opts := Default()
	opts.MemtableBytes = 32 << 10 // force flushes: reads span real runs
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const nKeys = 4000
	for i := int64(0); i < nKeys; i++ {
		k := workload.ScrambleKey(i, nKeys)
		if err := db.Put(workload.Key(k), workload.Value(k, 48)); err != nil {
			t.Fatal(err)
		}
	}

	gen := workload.NewKeyGen(workload.Zipfian, nKeys, 0.99, 42)
	const batches, batchSize = 20, 64
	for b := 0; b < batches; b++ {
		keys := make([][]byte, 0, batchSize)
		for len(keys) < batchSize {
			id := gen.Next()
			if len(keys)%8 == 7 {
				// Every eighth slot asks for a key that was never written.
				keys = append(keys, []byte(fmt.Sprintf("absent-%06d", id)))
				continue
			}
			keys = append(keys, workload.Key(id))
		}

		vals, err := db.MultiGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(keys) {
			t.Fatalf("batch %d: %d values for %d keys", b, len(vals), len(keys))
		}
		// Oracle: the same keys, one sequential Get each.
		for i, k := range keys {
			want, err := db.Get(k)
			switch {
			case errors.Is(err, ErrNotFound):
				if vals[i] != nil {
					t.Fatalf("batch %d key %q: MultiGet %q, Get says absent", b, k, vals[i])
				}
			case err != nil:
				t.Fatal(err)
			default:
				if vals[i] == nil {
					t.Fatalf("batch %d key %q: MultiGet says absent, Get %q", b, k, want)
				}
				if !bytes.Equal(vals[i], want) {
					t.Fatalf("batch %d key %q: MultiGet %q != Get %q", b, k, vals[i], want)
				}
			}
		}
	}

	// The traced batch: one trace per key, populated even for misses,
	// with per-run filter verdicts and cache accounting for disk probes.
	hot := workload.Key(gen.Next())
	keys := [][]byte{hot, []byte("absent-trace"), hot, workload.Key(0)}
	vals, traces, err := db.MultiGetTraced(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(keys) || len(traces) != len(keys) {
		t.Fatalf("traced batch: %d values, %d traces for %d keys", len(vals), len(traces), len(keys))
	}
	probedARun := false
	for i, tr := range traces {
		if tr == nil {
			t.Fatalf("key %d (%q): nil trace", i, keys[i])
		}
		if vals[i] != nil && tr.Source == "" {
			t.Fatalf("key %q found but trace names no source:\n%s", keys[i], tr.String())
		}
		for _, r := range tr.Runs {
			if r.Decision == "" {
				t.Fatalf("key %q: run (L%d r%d) probed without a decision:\n%s",
					keys[i], r.Level, r.Run, tr.String())
			}
			if r.Filter != "" {
				probedARun = true
			}
		}
	}
	// The hot key repeats in the batch: both probes must agree.
	if !bytes.Equal(vals[0], vals[2]) {
		t.Fatalf("repeated hot key disagreed within one batch: %q vs %q", vals[0], vals[2])
	}
	if vals[1] != nil {
		t.Fatalf("absent key in traced batch came back %q", vals[1])
	}
	if !probedARun {
		t.Fatal("no trace recorded a filter verdict: reads never reached a sorted run")
	}
}

// TestCacheSizeNeverChangesAnswers: a design choice moves cost, never the
// answer. One seeded history of puts, overwrites, deletes, flushes and
// compactions is replayed into three stores that differ only in the block
// cache — none, one far smaller than the data (so reads run the admission
// and eviction paths and scans walk blocks in their own buffer), one that
// holds everything — and every Get, MultiGet and Scan must return the
// same bytes from all three, twice over (the second pass meets whatever
// the first left in the cache).
func TestCacheSizeNeverChangesAnswers(t *testing.T) {
	const nKeys, nOps = 3000, 8000
	transcript := func(name string, set func(*Options)) (string, iostat.Snapshot) {
		opts := Default()
		opts.MemtableBytes = 32 << 10
		opts.BlockSize = 1024
		set(opts)
		db, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		rng := rand.New(rand.NewSource(22))
		for op := 0; op < nOps; op++ {
			k := rng.Int63n(nKeys)
			switch r := rng.Intn(100); {
			case r < 72:
				must(db.Put(workload.Key(k), workload.Value(k+int64(op), 40+rng.Intn(200))))
			case r < 99:
				must(db.Delete(workload.Key(k)))
			default:
				if must(db.Flush()); rng.Intn(4) == 0 {
					must(db.Compact())
				}
			}
		}
		must(db.Flush())

		var out bytes.Buffer
		for pass := 0; pass < 2; pass++ {
			for k := int64(0); k < nKeys+10; k++ {
				v, err := db.Get(workload.Key(k))
				if err != nil && !errors.Is(err, ErrNotFound) {
					must(err)
				}
				fmt.Fprintf(&out, "get %d %v %q\n", k, err, v)
			}
			for b := 0; b < 40; b++ {
				keys := make([][]byte, 32)
				for i := range keys {
					keys[i] = workload.Key(rng.Int63n(nKeys + 10))
				}
				vals, err := db.MultiGet(keys)
				must(err)
				fmt.Fprintf(&out, "mget %q %q\n", keys, vals)
			}
			for s := 0; s < 20; s++ {
				lo := rng.Int63n(nKeys)
				fmt.Fprintf(&out, "scan %d:", lo)
				must(db.Scan(workload.Key(lo), workload.Key(lo+int64(rng.Intn(300))), func(k, v []byte) bool {
					fmt.Fprintf(&out, " %q=%q", k, v)
					return true
				}))
				out.WriteByte('\n')
			}
		}
		return out.String(), db.Stats()
	}

	want, _ := transcript("no cache", func(o *Options) { o.DisableCache() })
	for name, cacheBytes := range map[string]int64{"tiny cache": 48 << 10, "large cache": 64 << 20} {
		got, st := transcript(name, func(o *Options) { o.CacheBytes = cacheBytes })
		if tiny := cacheBytes < 1<<20; st.BlockCacheHits == 0 || st.BlockCacheAdmits == 0 || tiny != (st.BlockCacheRejects > 0) {
			t.Errorf("%s: %d hits, %d admitted, %d declined: not the cache paths this store was meant to run",
				name, st.BlockCacheHits, st.BlockCacheAdmits, st.BlockCacheRejects)
		}
		if got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range wl {
				if i >= len(gl) || gl[i] != wl[i] {
					t.Fatalf("%s: answer %d differs from the cache-less store's\n got %.200s\nwant %.200s", name, i, gl[min(i, len(gl)-1)], wl[i])
				}
			}
			t.Fatalf("%s: %d answers, the cache-less store gave %d", name, len(gl), len(wl))
		}
	}
}
