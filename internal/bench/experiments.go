package bench

import (
	"errors"
	"fmt"
	"time"

	"lsmkv"
	"lsmkv/internal/iostat"
	"lsmkv/internal/workload"
)

// engineConfig centralizes the scale-dependent sizing shared by the
// engine-level experiments: small memtables so modest key counts build
// real multi-level trees.
type engineConfig struct {
	keys      int64
	valueSize int
	memtable  int64
	probes    int
	// loadRotation offsets the scrambled insert order so repeated trials
	// build different (but same-content) trees.
	loadRotation int64
}

func config(scale Scale) engineConfig {
	cfg := engineConfig{
		keys:      50_000 * int64(scale.factor()),
		valueSize: 64,
		memtable:  32 << 10,
		probes:    5_000 * scale.factor(),
	}
	if scale == tiny {
		cfg.keys, cfg.probes = 2_000, 200
	}
	return cfg
}

// window is how long a timed phase runs: the experiment's own duration
// at Small and Full, a thirtieth of Small's under test.
func (s Scale) window(small, full time.Duration) time.Duration {
	switch s {
	case Full:
		return full
	case tiny:
		return small / 30
	}
	return small
}

// fill puts n entries, the i-th under key keyOf(i).
func (cfg engineConfig) fill(db *lsmkv.DB, n int64, keyOf func(i int64) int64) error {
	for i := int64(0); i < n; i++ {
		k := keyOf(i)
		if err := db.Put(workload.Key(k), workload.Value(k, cfg.valueSize)); err != nil {
			return err
		}
	}
	return nil
}

// scrambled spreads indexes over [0, n), so consecutive puts land all
// over the key space.
func scrambled(n int64) func(i int64) int64 {
	return func(i int64) int64 { return workload.ScrambleKey(i, n) }
}

// load puts cfg.keys entries and drains maintenance. It returns the
// average run count observed during the load (the steady-state read
// cost).
func (cfg engineConfig) load(db *lsmkv.DB) (avgRuns float64, err error) {
	runTotal, samples := 0, 0
	for i := int64(0); i < cfg.keys; i++ {
		// Scrambled insert order: every flushed run spans the key space,
		// so runs overlap and the layout's run count is what point
		// lookups actually probe (as with the papers' random inserts).
		k := workload.ScrambleKey((i+cfg.loadRotation)%cfg.keys, cfg.keys)
		if err := db.Put(workload.Key(k), workload.Value(k, cfg.valueSize)); err != nil {
			return 0, err
		}
		if i%500 == 499 {
			runTotal += db.TotalRuns()
			samples++
		}
	}
	if err := db.Compact(); err != nil {
		return 0, err
	}
	return float64(runTotal) / float64(max(samples, 1)), nil
}

// absent returns a key that falls inside the populated range but is
// never inserted (odd suffix); present returns one that load inserted.
func (cfg engineConfig) absent(i int) []byte {
	return []byte(fmt.Sprintf("user%012dx", int64(i)%cfg.keys))
}

func (cfg engineConfig) present(i int) []byte {
	return workload.Key(workload.ScrambleKey(int64(i), cfg.keys))
}

// get is one point lookup. A key that is not there is an answer; any
// other failure is an error, so a read that failed is never counted as
// a read that was cheap.
func get(db *lsmkv.DB, key []byte) error {
	if _, err := db.Get(key); err != nil && !errors.Is(err, lsmkv.ErrNotFound) {
		return err
	}
	return nil
}

// lookupIOs runs n point lookups and returns the block reads per lookup
// and the counter deltas.
func lookupIOs(db *lsmkv.DB, keys func(i int) []byte, n int) (readsPerOp float64, d iostat.Snapshot, err error) {
	before := db.Stats()
	for i := 0; i < n; i++ {
		if err := get(db, keys(i)); err != nil {
			return 0, d, err
		}
	}
	d = db.Stats().Sub(before)
	return float64(d.BlockReads) / float64(n), d, nil
}

// scanIOs runs n range scans, the i-th over bounds(i) and cut off after
// limit entries (0: none), and returns the counter deltas.
func scanIOs(db *lsmkv.DB, bounds func(i int) (lo, hi []byte), limit, n int) (d iostat.Snapshot, err error) {
	before := db.Stats()
	for i := 0; i < n; i++ {
		lo, hi := bounds(i)
		seen := 0
		if err := db.Scan(lo, hi, func(_, _ []byte) bool {
			seen++
			return seen != limit
		}); err != nil {
			return d, err
		}
	}
	return db.Stats().Sub(before), nil
}

// lookupCosts measures both lookup kinds on a loaded tree: runs screened
// and blocks read per zero-result lookup, blocks read per lookup of a
// present key.
func (cfg engineConfig) lookupCosts(db *lsmkv.DB) (screened, zero, point float64, err error) {
	zero, dz, err := lookupIOs(db, cfg.absent, cfg.probes)
	if err != nil {
		return 0, 0, 0, err
	}
	point, _, err = lookupIOs(db, cfg.present, cfg.probes)
	return float64(dz.FilterProbes) / float64(cfg.probes), zero, point, err
}

// E1: sweep size ratio T under leveling and tiering; report write amp and
// lookup I/O — the tradeoff curve of Module I.
func E1(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	t := NewTable("layout", "T", "write-amp", "runs avg", "screened runs/op", "zero reads/op", "point reads/op")
	for _, layout := range []lsmkv.Layout{lsmkv.Leveled, lsmkv.Tiered} {
		for _, ratio := range []int{2, 4, 6, 8, 10} {
			opts := &lsmkv.Options{Layout: layout, SizeRatio: ratio}
			opts.DisableCache() // isolate structural I/O from caching
			err := cfg.cell(opts, func(db *lsmkv.DB) error {
				avgRuns, err := cfg.load(db)
				if err != nil {
					return err
				}
				wa := db.Stats().WriteAmplification()
				screened, zero, point, err := cfg.lookupCosts(db)
				if err != nil {
					return err
				}
				t.Row(string(layout), ratio, wa, avgRuns, screened, zero, point)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return []*Table{t}, nil
}

// E2: the three canonical layouts at one T, reporting both sides of the
// tradeoff plus ingest throughput.
func E2(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	t := NewTable("layout", "ingest Kops/s", "write-amp", "runs avg", "screened runs/op", "point reads/op", "range reads/op")
	for _, layout := range []lsmkv.Layout{lsmkv.Leveled, lsmkv.LazyLeveled, lsmkv.Tiered} {
		opts := &lsmkv.Options{Layout: layout, SizeRatio: 6}
		opts.DisableCache()
		err := cfg.cell(opts, func(db *lsmkv.DB) error {
			start := time.Now()
			avgRuns, err := cfg.load(db)
			if err != nil {
				return err
			}
			ingest := float64(cfg.keys) / time.Since(start).Seconds() / 1000
			wa := db.Stats().WriteAmplification()
			screened, _, point, err := cfg.lookupCosts(db)
			if err != nil {
				return err
			}
			scans := cfg.probes / 50
			d, err := scanIOs(db, func(i int) (lo, hi []byte) {
				k := workload.ScrambleKey(int64(i), cfg.keys)
				return workload.Key(k), workload.Key(k + 100)
			}, 100, scans)
			if err != nil {
				return err
			}
			t.Row(string(layout), ingest, wa, avgRuns, screened, point,
				float64(d.BlockReads)/float64(scans))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}

// E3: bits/key sweep, uniform vs Monkey allocation, zero-result lookups.
// Each cell averages several independently-loaded trees: converged tree
// shapes vary run to run, and at tight budgets that variance is on the
// order of the uniform-vs-Monkey gap itself.
func E3(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	const trials = 3
	t := NewTable("allocation", "bits/key", "zero reads/op", "measured FPR", "filter MiB")
	for _, monkey := range []bool{false, true} {
		name := "uniform"
		if monkey {
			name = "monkey"
		}
		for _, bits := range []float64{2, 4, 6, 8, 10, 14} {
			var zeroSum, fprSum, memSum float64
			for trial := 0; trial < trials; trial++ {
				opts := &lsmkv.Options{SizeRatio: 4, BitsPerKey: bits, MonkeyFilters: monkey}
				opts.DisableCache()
				trialCfg := cfg
				trialCfg.loadRotation = int64(trial) * 7919 // vary flush boundaries
				err := cfg.cell(opts, func(db *lsmkv.DB) error {
					if _, err := trialCfg.load(db); err != nil {
						return err
					}
					zero, d, err := lookupIOs(db, cfg.absent, cfg.probes)
					if err != nil {
						return err
					}
					if pos := d.FilterProbes; pos > 0 {
						fprSum += float64(d.FilterFalsePositives) / float64(pos)
					}
					zeroSum += zero
					memSum += float64(db.IndexMemory()) / (1 << 20)
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
			t.Row(name, bits, zeroSum/trials, fprSum/trials, memSum/trials)
		}
	}
	return []*Table{t}, nil
}

// E4: range filters against empty ranges of several widths.
func E4(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	// Sparse key space: keys at stride 64 leave empty gaps for ranges.
	const stride = 64
	t := NewTable("filter", "range width", "reads/scan (empty)", "skipped runs %", "filter MiB")
	for _, f := range []struct {
		name string
		kind lsmkv.RangeFilterKind
	}{
		{"none", lsmkv.RangeFilterNone},
		{"prefix", lsmkv.RangeFilterPrefix},
		{"rosetta", lsmkv.RangeFilterRosetta},
		{"snarf", lsmkv.RangeFilterSNARF},
		{"surf", lsmkv.RangeFilterSuRF},
	} {
		opts := &lsmkv.Options{
			SizeRatio:   4,
			RangeFilter: f.kind,
			// 15 of the 16 key bytes: each prefix bucket spans 10 key
			// values, finer than the stride, so empty buckets exist.
			PrefixLength: 15,
		}
		opts.DisableCache()
		err := cfg.cell(opts, func(db *lsmkv.DB) error {
			if err := cfg.fill(db, cfg.keys, func(i int64) int64 { return i * stride }); err != nil {
				return err
			}
			if err := db.Compact(); err != nil {
				return err
			}
			for _, width := range []int64{2, 8, 24} {
				scans := cfg.probes / 10
				d, err := scanIOs(db, func(i int) (lo, hi []byte) {
					// Empty range centered inside a stride gap, away from
					// the stored keys at the gap's edges.
					base := workload.ScrambleKey(int64(i), cfg.keys-1)*stride + stride/4
					return workload.Key(base), workload.Key(base + width - 1)
				}, 0, scans)
				if err != nil {
					return err
				}
				skipped := 0.0
				if d.RangeFilterProbes > 0 {
					skipped = 100 * float64(d.RangeFilterNegatives) / float64(d.RangeFilterProbes)
				}
				t.Row(f.name, width, float64(d.BlockReads)/float64(scans), skipped,
					float64(db.IndexMemory())/(1<<20))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}

// E5: cache size sweep with a Zipfian read workload, then a compaction
// burst, with and without Leaper-style prefetch.
func E5(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	t := NewTable("cache KiB", "prefetch", "hit rate warm", "hit rate post-compaction", "reads/op post")
	for _, cacheKiB := range []int64{64, 256, 1024} {
		for _, prefetch := range []bool{false, true} {
			opts := &lsmkv.Options{
				SizeRatio:               4,
				CacheBytes:              cacheKiB << 10,
				PrefetchAfterCompaction: prefetch,
			}
			err := cfg.cell(opts, func(db *lsmkv.DB) error {
				if _, err := cfg.load(db); err != nil {
					return err
				}
				zipf := workload.NewKeyGen(workload.Zipfian, cfg.keys, 0.99, 7)
				hot := func(int) []byte {
					return workload.Key(workload.ScrambleKey(zipf.Next(), cfg.keys))
				}
				if _, _, err := lookupIOs(db, hot, cfg.probes); err != nil { // warm the cache
					return err
				}
				_, warm, err := lookupIOs(db, hot, cfg.probes)
				if err != nil {
					return err
				}
				// Compaction burst: overwrite a quarter of the keyspace —
				// enough churn that compactions rewrite (and would otherwise
				// invalidate) the hot files, short enough that the cascade
				// ends with the bottom-level merge whose prefetch matters.
				if err := cfg.fill(db, cfg.keys/4, scrambled(cfg.keys)); err != nil {
					return err
				}
				if err := db.Compact(); err != nil {
					return err
				}
				// The invalidation cost is a transient: measure the first
				// post-compaction burst before re-warming hides it.
				reads, post, err := lookupIOs(db, hot, cfg.probes/10)
				if err != nil {
					return err
				}
				t.Row(cacheKiB, prefetch, warm.CacheHitRate(), post.CacheHitRate(), reads)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return []*Table{t}, nil
}

// E7: fixed memory budget split between buffer and filters, measured
// end-to-end on a mixed workload.
func E7(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	totalBytes := int64(512 << 10)
	t := NewTable("buffer %", "buffer KiB", "filter bits/key", "mixed ops/s", "zero reads/op")
	for _, bufPct := range []int{10, 25, 50, 75, 90} {
		bufBytes := totalBytes * int64(bufPct) / 100
		filterBits := float64(totalBytes-bufBytes) * 8 / float64(cfg.keys)
		opts := &lsmkv.Options{SizeRatio: 4, BitsPerKey: filterBits, MemtableBytes: bufBytes}
		opts.DisableCache()
		err := cfg.cell(opts, func(db *lsmkv.DB) error {
			start := time.Now()
			for i := int64(0); i < cfg.keys; i++ {
				if err := db.Put(workload.Key(i), workload.Value(i, cfg.valueSize)); err != nil {
					return err
				}
				if i%4 == 3 { // 25% interleaved zero-result reads
					if err := get(db, cfg.absent(int(i))); err != nil {
						return err
					}
				}
			}
			opsPerSec := float64(cfg.keys+cfg.keys/4) / time.Since(start).Seconds()
			if err := db.Compact(); err != nil {
				return err
			}
			zero, _, err := lookupIOs(db, cfg.absent, cfg.probes)
			if err != nil {
				return err
			}
			t.Row(bufPct, bufBytes>>10, filterBits, opsPerSec, zero)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}

// E8: value sizes with and without key-value separation.
func E8(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	t := NewTable("value B", "vlog", "ingest MiB/s", "write-amp (tree)", "point reads/op", "vlog hops/op")
	for _, valSize := range []int{64, 256, 1024, 4096} {
		for _, sep := range []bool{false, true} {
			opts := &lsmkv.Options{SizeRatio: 4, ValueSeparation: sep, ValueThreshold: 128}
			opts.DisableCache()
			// Keep total bytes comparable across value sizes.
			keys := max(cfg.keys/int64(1+valSize/256), 2000)
			err := cfg.cell(opts, func(db *lsmkv.DB) error {
				start := time.Now()
				// Overwrite-heavy: each key written 3 times so compaction has
				// duplicate versions to collapse (where vlog wins).
				for round := int64(0); round < 3; round++ {
					for i := int64(0); i < keys; i++ {
						if err := db.Put(workload.Key(i), workload.Value(i+round, valSize)); err != nil {
							return err
						}
					}
				}
				if err := db.Compact(); err != nil {
					return err
				}
				ingestMiB := float64(3*keys*int64(valSize)) / (1 << 20) / time.Since(start).Seconds()
				wa := db.Stats().WriteAmplification()
				probes := cfg.probes / 2
				reads, d, err := lookupIOs(db, func(i int) []byte {
					return workload.Key(workload.ScrambleKey(int64(i), keys))
				}, probes)
				if err != nil {
					return err
				}
				t.Row(valSize, sep, ingestMiB, wa, reads, float64(d.VlogReads)/float64(probes))
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return []*Table{t}, nil
}

// E9: partial-compaction file-picking policies under an overwrite-heavy
// load with deletes.
func E9(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	t := NewTable("picker", "write-amp", "compactions", "compaction MiB", "live tombstones")
	for _, p := range []struct {
		name string
		pick lsmkv.FilePicking
	}{
		{"min-overlap", lsmkv.PickMinOverlap},
		{"most-tombstones", lsmkv.PickMostTombstones},
		{"oldest", lsmkv.PickOldest},
		{"round-robin", lsmkv.PickRoundRobin},
	} {
		opts := &lsmkv.Options{SizeRatio: 4, PartialCompaction: true, FilePicking: p.pick}
		opts.DisableCache()
		err := cfg.cell(opts, func(db *lsmkv.DB) error {
			rng := workload.NewKeyGen(workload.Zipfian, cfg.keys, 0.8, 11)
			for i := int64(0); i < cfg.keys*2; i++ {
				k := workload.ScrambleKey(rng.Next(), cfg.keys)
				var err error
				if i%10 == 9 {
					err = db.Delete(workload.Key(k))
				} else {
					err = db.Put(workload.Key(k), workload.Value(k, cfg.valueSize))
				}
				if err != nil {
					return err
				}
			}
			if err := db.Compact(); err != nil {
				return err
			}
			s := db.Stats()
			var tombs uint64
			for _, li := range db.Levels() {
				tombs += li.Tombstones
			}
			t.Row(p.name, s.WriteAmplification(), s.Compactions,
				float64(s.CompactionBytesWritten)/(1<<20), tombs)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
