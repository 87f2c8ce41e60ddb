package bench

import (
	"slices"
	"sync/atomic"
	"time"

	"lsmkv"
	"lsmkv/internal/workload"
)

// E13: compaction throttling and foreground-latency stability (Module
// III-B: SILK, Luo & Carey's throttling). Unthrottled compactions
// monopolize the machine in bursts, so read latency observed by clients
// during ingest has a heavy tail; pacing compaction output flattens it at
// some ingest cost. Writer-side stalls, by contrast, get *worse* with
// throttling (maintenance falls behind) — both sides are reported.
func E13(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	duration := scale.window(3*time.Second, 10*time.Second)
	t := NewTable("compaction rate", "ingest Kops/s", "read p50 us", "read p99 us", "read p99.9 us", "write p99.9 us")
	for _, c := range []struct {
		name string
		rate int64
	}{
		{"unthrottled", 0},
		{"16 MiB/s", 16 << 20},
		{"4 MiB/s", 4 << 20},
	} {
		opts := &lsmkv.Options{SizeRatio: 4, CompactionMaxBytesPerSec: c.rate, CacheBytes: 256 << 10}
		err := cfg.cell(opts, func(db *lsmkv.DB) error {
			// Preload so reads have something to find.
			if err := cfg.fill(db, cfg.keys/4, scrambled(cfg.keys)); err != nil {
				return err
			}
			if err := db.Compact(); err != nil {
				return err
			}

			// Background ingest churns compactions; the foreground reader
			// measures client-visible latency.
			var stop atomic.Bool
			var writeLat []time.Duration
			var writer group
			writer.Go(func() error {
				for i := int64(0); !stop.Load(); i++ {
					k := workload.ScrambleKey(i%cfg.keys, cfg.keys)
					t0 := time.Now()
					if err := db.Put(workload.Key(k), workload.Value(k, cfg.valueSize)); err != nil {
						return err
					}
					writeLat = append(writeLat, time.Since(t0))
				}
				return nil
			})
			var readLat []time.Duration
			var readErr error
			deadline := time.Now().Add(duration)
			rng := workload.NewKeyGen(workload.Zipfian, cfg.keys, 0.9, 5)
			for readErr == nil && time.Now().Before(deadline) {
				k := workload.ScrambleKey(rng.Next(), cfg.keys)
				t0 := time.Now()
				readErr = get(db, workload.Key(k))
				readLat = append(readLat, time.Since(t0))
			}
			stop.Store(true)
			if err := writer.Wait(); err != nil {
				return err
			}
			if readErr != nil {
				return readErr
			}
			slices.Sort(readLat)
			slices.Sort(writeLat)
			t.Row(c.name,
				float64(len(writeLat))/duration.Seconds()/1000,
				percentileUs(readLat, 0.50), percentileUs(readLat, 0.99), percentileUs(readLat, 0.999),
				percentileUs(writeLat, 0.999),
			)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
