package bench

import (
	"time"

	"lsmkv"
)

// E15: keyspace sharding and aggregate write throughput. A single engine
// serializes every writer behind one WAL, one memtable, and one L0: under
// a saturating multi-writer ingest its L0 climbs into the slowdown band
// and every writer pays the backpressure delay. Splitting the keyspace
// into N shards divides the ingest N ways — each shard's L0 grows at 1/N
// the rate while keeping its own compaction claim space and bandwidth
// budget — so the backpressure band disengages and the aggregate
// throughput climbs. The same saturating workload runs at every shard
// count; the only variable is Options.Shards.
func E15(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	t := NewTable("shards", "ingest Kops/s", "put p99 us", "put p999 us",
		"stall ms", "slowdown ms")
	for _, shards := range []int{1, 2, 4, 8} {
		opts := &lsmkv.Options{
			Layout:     lsmkv.LazyLeveled,
			SizeRatio:  6,
			CacheBytes: 256 << 10,
			Shards:     shards,
			// The same per-engine compaction budget and backpressure
			// triggers as E14's stall study: a saturating ingest pins a
			// single engine inside the slowdown band. Sharding divides the
			// ingest across engines that each keep this budget — the
			// structural win under test (per-shard L0 and claim space),
			// not a tuning trick.
			CompactionMaxBytesPerSec:       2 << 20,
			L0SlowdownTrigger:              5,
			L0StopTrigger:                  8,
			SlowdownMaxDelay:               5 * time.Millisecond,
			PendingCompactionSlowdownBytes: 1 << 30,
		}
		err := cfg.cell(opts, func(db *lsmkv.DB) error {
			// Saturating: eight writers, no pacing — throughput is
			// whatever the engine's backpressure admits.
			lat, elapsed, err := cfg.ingest(db, 8, 0)
			if err != nil {
				return err
			}
			s := db.Stats()
			t.Row(shards,
				float64(len(lat))/elapsed.Seconds()/1000,
				percentileUs(lat, 0.99), percentileUs(lat, 0.999),
				float64(s.WriteStallNs)/1e6,
				float64(s.WriteSlowdownNs)/1e6,
			)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{t}, nil
}
