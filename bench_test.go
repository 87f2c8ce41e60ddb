package lsmkv

// One testing.B benchmark per experiment in DESIGN.md's index (E1–E12).
// `go test -bench=. -benchmem` regenerates the per-operation numbers; the
// richer multi-row tables behind each experiment come from cmd/lsmbench,
// which sweeps parameters and prints claim-shaped tables. Custom metrics
// (write-amp, reads/op) are attached via b.ReportMetric so the benchmark
// output carries the units the tutorial's claims are stated in.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lsmkv/internal/cost"
	"lsmkv/internal/filter"
	"lsmkv/internal/learned"
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

// BenchmarkE1ReadWriteTradeoff: ingestion under leveling vs tiering across
// size ratios, reporting write amplification alongside ns/op.
func BenchmarkE1ReadWriteTradeoff(b *testing.B) {
	for _, layout := range []Layout{Leveled, Tiered} {
		for _, ratio := range []int{4, 10} {
			b.Run(fmt.Sprintf("%s/T=%d", layout, ratio), func(b *testing.B) {
				opts := &Options{Layout: layout, SizeRatio: ratio, MemtableBytes: 64 << 10}
				opts.DisableCache()
				db, err := Open(b.TempDir(), opts)
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := workload.ScrambleKey(int64(i), benchKeys)
					if err := db.Put(workload.Key(k), workload.Value(k, benchValue)); err != nil {
						b.Fatal(err)
					}
				}
				db.Compact()
				b.ReportMetric(db.Stats().WriteAmplification(), "write-amp")
			})
		}
	}
}

// BenchmarkE2Layouts: point lookups against the three canonical layouts.
func BenchmarkE2Layouts(b *testing.B) {
	for _, layout := range []Layout{Leveled, LazyLeveled, Tiered} {
		b.Run(string(layout), func(b *testing.B) {
			opts := &Options{Layout: layout, SizeRatio: 6}
			opts.DisableCache()
			db := benchDB(b, opts)
			before := db.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Get(workload.Key(workload.ScrambleKey(int64(i)%benchKeys, benchKeys)))
			}
			b.StopTimer()
			d := db.Stats().Sub(before)
			b.ReportMetric(float64(d.BlockReads)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkE3BloomMonkey: zero-result lookups under uniform vs Monkey
// filter allocation at a tight budget.
func BenchmarkE3BloomMonkey(b *testing.B) {
	for _, monkey := range []bool{false, true} {
		name := "uniform"
		if monkey {
			name = "monkey"
		}
		b.Run(name, func(b *testing.B) {
			opts := &Options{SizeRatio: 4, BitsPerKey: 5, MonkeyFilters: monkey}
			opts.DisableCache()
			db := benchDB(b, opts)
			before := db.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Get([]byte(fmt.Sprintf("user%012dx", i%benchKeys)))
			}
			b.StopTimer()
			d := db.Stats().Sub(before)
			b.ReportMetric(float64(d.BlockReads)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkE4RangeFilters: empty-range scans per range-filter structure.
func BenchmarkE4RangeFilters(b *testing.B) {
	for _, kind := range []struct {
		name string
		k    RangeFilterKind
	}{
		{"none", RangeFilterNone},
		{"prefix", RangeFilterPrefix},
		{"surf", RangeFilterSuRF},
		{"rosetta", RangeFilterRosetta},
		{"snarf", RangeFilterSNARF},
	} {
		b.Run(kind.name, func(b *testing.B) {
			const stride = 64
			opts := &Options{SizeRatio: 4, RangeFilter: kind.k, PrefixLength: 15, MemtableBytes: 64 << 10}
			opts.DisableCache()
			db, err := Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := int64(0); i < benchKeys; i++ {
				if err := db.Put(workload.Key(i*stride), workload.Value(i, benchValue)); err != nil {
					b.Fatal(err)
				}
			}
			db.Compact()
			before := db.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := workload.ScrambleKey(int64(i), benchKeys-1)*stride + stride/4
				db.Scan(workload.Key(base), workload.Key(base+7), func(k, v []byte) bool { return true })
			}
			b.StopTimer()
			d := db.Stats().Sub(before)
			b.ReportMetric(float64(d.BlockReads)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkE5CacheInvalidation: Zipfian reads at several cache sizes.
func BenchmarkE5CacheInvalidation(b *testing.B) {
	for _, cacheKiB := range []int64{0, 256, 1024} {
		b.Run(fmt.Sprintf("cache=%dKiB", cacheKiB), func(b *testing.B) {
			opts := &Options{SizeRatio: 4, CacheBytes: cacheKiB << 10}
			if cacheKiB == 0 {
				opts.DisableCache()
			}
			db := benchDB(b, opts)
			zipf := workload.NewKeyGen(workload.Zipfian, benchKeys, 0.99, 7)
			before := db.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Get(workload.Key(workload.ScrambleKey(zipf.Next(), benchKeys)))
			}
			b.StopTimer()
			d := db.Stats().Sub(before)
			b.ReportMetric(float64(d.BlockReads)/float64(b.N), "reads/op")
			b.ReportMetric(d.CacheHitRate(), "hit-rate")
		})
	}
}

// BenchmarkE6LearnedIndex: fence binary search vs learned models, plus
// the end-to-end effect on table lookups.
func BenchmarkE6LearnedIndex(b *testing.B) {
	n := 200_000
	xs := make([]uint64, n)
	rng := rand.New(rand.NewSource(13))
	v := uint64(0)
	for i := range xs {
		v += uint64(1 + rng.Intn(200))
		xs[i] = v
	}
	b.Run("binary-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := xs[i%n]
			sort.Search(n, func(j int) bool { return xs[j] >= x })
		}
	})
	b.Run("plr", func(b *testing.B) {
		m := learned.BuildPLR(xs, 16)
		b.ReportMetric(float64(m.ApproxMemory()), "model-bytes")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := xs[i%n]
			_, lo, hi := m.Predict(x)
			lo += sort.Search(hi-lo+1, func(j int) bool { return xs[lo+j] >= x })
		}
	})
	b.Run("radixspline", func(b *testing.B) {
		m := learned.BuildRadixSpline(xs, 16, 14)
		b.ReportMetric(float64(m.ApproxMemory()), "model-bytes")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := xs[i%n]
			_, lo, hi := m.Predict(x)
			lo += sort.Search(hi-lo+1, func(j int) bool { return xs[lo+j] >= x })
		}
	})
}

// BenchmarkE7MemoryAllocation: mixed workload at two buffer/filter splits
// of one memory budget.
func BenchmarkE7MemoryAllocation(b *testing.B) {
	total := int64(256 << 10)
	for _, bufPct := range []int{20, 80} {
		b.Run(fmt.Sprintf("buffer=%d%%", bufPct), func(b *testing.B) {
			bufBytes := total * int64(bufPct) / 100
			bits := float64(total-bufBytes) * 8 / benchKeys
			opts := &Options{SizeRatio: 4, BitsPerKey: bits, MemtableBytes: bufBytes}
			opts.DisableCache()
			db, err := Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := workload.ScrambleKey(int64(i)%benchKeys, benchKeys)
				if i%4 == 3 {
					db.Get([]byte(fmt.Sprintf("user%012dx", k)))
				} else if err := db.Put(workload.Key(k), workload.Value(k, benchValue)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8KVSeparation: large-value ingestion with and without the
// value log.
func BenchmarkE8KVSeparation(b *testing.B) {
	for _, sep := range []bool{false, true} {
		name := "inline"
		if sep {
			name = "vlog"
		}
		b.Run(name, func(b *testing.B) {
			opts := &Options{SizeRatio: 4, ValueSeparation: sep, ValueThreshold: 128, MemtableBytes: 64 << 10}
			opts.DisableCache()
			db, err := Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			payload := workload.Value(1, 2048)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Put(workload.Key(int64(i%2000)), payload); err != nil {
					b.Fatal(err)
				}
			}
			db.Compact()
			b.ReportMetric(db.Stats().WriteAmplification(), "write-amp")
		})
	}
}

// BenchmarkE9FilePicking: overwrite-heavy ingestion under each partial-
// compaction picking policy.
func BenchmarkE9FilePicking(b *testing.B) {
	for _, p := range []struct {
		name string
		pick FilePicking
	}{
		{"round-robin", PickRoundRobin},
		{"min-overlap", PickMinOverlap},
		{"most-tombstones", PickMostTombstones},
	} {
		b.Run(p.name, func(b *testing.B) {
			opts := &Options{SizeRatio: 4, PartialCompaction: true, FilePicking: p.pick, MemtableBytes: 64 << 10}
			opts.DisableCache()
			db, err := Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			rng := workload.NewKeyGen(workload.Zipfian, benchKeys, 0.8, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := workload.ScrambleKey(rng.Next(), benchKeys)
				var err error
				if i%10 == 9 {
					err = db.Delete(workload.Key(k))
				} else {
					err = db.Put(workload.Key(k), workload.Value(k, benchValue))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			db.Compact()
			b.ReportMetric(db.Stats().WriteAmplification(), "write-amp")
		})
	}
}

// BenchmarkE10RobustTuning: the analytical robust-tuning optimization.
func BenchmarkE10RobustTuning(b *testing.B) {
	sys := cost.System{
		N: 50e6, EntryBytes: 128, PageBytes: 4096,
		BufferBytes: 32 << 20, FilterBitsPerKey: 10, MonkeyAllocation: true,
	}
	expected := cost.Workload{Writes: 0.85, PointLookups: 0.10, ZeroLookups: 0.05}
	space := cost.CandidateSpace{MinT: 2, MaxT: 16, FullHybrid: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := cost.TuneRobust(sys, expected, 0.7, space)
		if r.RobustWorst > r.NominalWorst {
			b.Fatal("robust tuning regressed")
		}
	}
}

// BenchmarkE11FilterZoo: membership probes per filter implementation.
func BenchmarkE11FilterZoo(b *testing.B) {
	const n = 100_000
	for _, kind := range []filter.FilterKind{
		filter.KindBloom, filter.KindBlockedBloom, filter.KindCuckoo, filter.KindRibbon,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			p := filter.Policy{Kind: kind, BitsPerKey: 10}
			bu := p.NewBuilder(n)
			for i := 0; i < n; i++ {
				bu.AddHash(filter.HashKey(workload.Key(int64(i))))
			}
			data, err := bu.Finish()
			if err != nil {
				b.Fatal(err)
			}
			r, err := filter.NewReader(data)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(data))*8/n, "bits/key")
			probes := make([]filter.KeyHash, 4096)
			for i := range probes {
				probes[i] = filter.HashKey([]byte(fmt.Sprintf("ghost%012d", i)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MayContainHash(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkE12SharedHashing: 7-filter lookups with one shared digest vs
// rehashing per filter.
func BenchmarkE12SharedHashing(b *testing.B) {
	const levels = 7
	const n = 20_000
	p := filter.Policy{Kind: filter.KindBloom, BitsPerKey: 10}
	readers := make([]filter.Reader, levels)
	for l := 0; l < levels; l++ {
		bu := p.NewBuilder(n)
		for i := 0; i < n; i++ {
			bu.AddHash(filter.HashKey(workload.Key(int64(l*n + i))))
		}
		data, _ := bu.Finish()
		readers[l], _ = filter.NewReader(data)
	}
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("lookup%032d", i))
	}
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kh := filter.HashKey(keys[i%len(keys)])
			for l := 0; l < levels; l++ {
				readers[l].MayContainHash(kh)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for l := 0; l < levels; l++ {
				kh := filter.HashKey(keys[i%len(keys)])
				readers[l].MayContainHash(kh)
			}
		}
	})
}

// BenchmarkDBGet guards the observability fast path: with TrackLatency
// off (the default) a point lookup must cost two nil checks, and no clock
// read, over the uninstrumented read path, so the off/on sub-benchmarks
// should be within noise of each other (the histogram update is ~two atomic adds).
func BenchmarkDBGet(b *testing.B) {
	for _, mode := range []struct {
		name  string
		track bool
	}{
		{"observability-off", false},
		{"observability-on", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := Default()
			opts.TrackLatency = mode.track
			db := benchDB(b, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := workload.ScrambleKey(int64(i)%benchKeys, benchKeys)
				if _, err := db.Get(workload.Key(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
}
