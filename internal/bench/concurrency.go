package bench

import (
	"slices"
	"sync"
	"time"

	"lsmkv"
	"lsmkv/internal/workload"
)

// group runs an experiment's goroutines: Wait returns once all of them
// have, with the first error any reported.
type group struct {
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

func (g *group) Go(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

func (g *group) Wait() error {
	g.wg.Wait()
	return g.err
}

// percentileUs returns the p-quantile of sorted latencies, in
// microseconds.
func percentileUs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(float64(len(sorted)-1)*p)].Microseconds())
}

// ingest writes cfg.keys entries from parallel writers over disjoint
// slices of a scrambled key space — every flushed run spans the whole
// space, so each flush adds real compaction work at every level — each
// writer sleeping pace between puts. It returns the sorted put
// latencies and the wall time.
func (cfg engineConfig) ingest(db *lsmkv.DB, writers int, pace time.Duration) ([]time.Duration, time.Duration, error) {
	per := cfg.keys / int64(writers)
	lats := make([][]time.Duration, writers)
	var g group
	start := time.Now()
	for w := 0; w < writers; w++ {
		g.Go(func() error {
			l := make([]time.Duration, 0, per)
			for i := int64(w) * per; i < int64(w+1)*per; i++ {
				k := workload.ScrambleKey(i, cfg.keys)
				t0 := time.Now()
				if err := db.Put(workload.Key(k), workload.Value(k, cfg.valueSize)); err != nil {
					return err
				}
				l = append(l, time.Since(t0))
				if pace > 0 {
					time.Sleep(pace)
				}
			}
			lats[w] = l
			return nil
		})
	}
	err := g.Wait()
	elapsed := time.Since(start)
	all := slices.Concat(lats...)
	slices.Sort(all)
	return all, elapsed, err
}

// E14: concurrent compaction workers and write stalls, and group commit.
// With one
// background worker, a long deep-level merge serializes behind the
// L0->L1 work that actually relieves write pressure, so level 0 climbs
// to the stop trigger and writers block (the PR's tentpole claim). A
// worker pool lets L0 drain while deep merges run, which shows up as
// less total stall time and a shorter Put tail. Both configurations run
// the same multi-writer ingest with the same backpressure settings; the
// only variable is CompactionConcurrency. The second table is the write
// path's own concurrency: N goroutines Put with SyncWAL, unpaced, and
// the engine's commit queue folds the writes that arrive during one
// fsync into the next group, so fsyncs/op falls as N grows.
func E14(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	// Enough data that bottom-level merges dwarf the limiter's one-second
	// burst credit: a lone worker is then pinned for seconds at a time,
	// which is the regime the worker pool exists for.
	cfg.keys *= 4
	t := NewTable("workers", "ingest Kops/s", "put p99 us", "put p999 us",
		"stall ms", "stalls", "slowdown ms")
	for _, workers := range []int{1, 4} {
		opts := &lsmkv.Options{
			Layout:                lsmkv.LazyLeveled,
			SizeRatio:             6,
			CacheBytes:            256 << 10,
			CompactionConcurrency: workers,
			// Both configs share the same compaction bandwidth budget
			// (modeling a disk-bound deployment), so the variable is
			// scheduling, not raw speed: with one worker every L0 relief
			// queues behind whatever deep merge is in flight; with a pool
			// the L0->L1 merge interleaves with the deep merge's paced
			// writes.
			CompactionMaxBytesPerSec: 2 << 20,
			// Tight triggers so a few seconds of ingest is enough to
			// climb the backpressure ladder at bench scale. The slowdown
			// trigger sits one above the compaction trigger (default 4):
			// a healthy pool parks L0 *at* the compaction trigger, and a
			// band that started there would tax both configurations alike.
			L0SlowdownTrigger: 5,
			L0StopTrigger:     8,
			// A generous per-write delay makes the slowdown band itself
			// carry the tail signal: the band engages exactly when L0
			// relief is starved, which is the condition under test. Debt
			// slowdown is pushed out of range — deep-level debt is the
			// thing the pool is *allowed* to accumulate while it keeps
			// writers unblocked, so throttling on it here would just
			// re-couple the two configurations.
			SlowdownMaxDelay:               5 * time.Millisecond,
			PendingCompactionSlowdownBytes: 1 << 30,
		}
		err := cfg.cell(opts, func(db *lsmkv.DB) error {
			// Pace ingest to the middle regime: demand that fits the
			// total compaction budget but overruns a lone worker while it
			// is stuck in a deep merge. Stalls then measure scheduling,
			// not raw throughput. (Timer granularity inflates the sleep
			// to ~1ms; the pace is set empirically, not by the nominal
			// duration.)
			lat, elapsed, err := cfg.ingest(db, 4, 200*time.Microsecond)
			if err != nil {
				return err
			}
			s := db.Stats()
			t.Row(workers,
				float64(len(lat))/elapsed.Seconds()/1000,
				percentileUs(lat, 0.99), percentileUs(lat, 0.999),
				float64(s.WriteStallNs)/1e6, s.WriteStalls,
				float64(s.WriteSlowdownNs)/1e6,
			)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	g, err := groupCommit(config(scale))
	if err != nil {
		return nil, err
	}
	return []*Table{t, g}, nil
}

// groupCommit measures embedded synced Puts at 1, 8 and 64 goroutines:
// throughput, and the fsyncs and commit groups behind it. The memtable
// is big enough that no flush runs, so the WAL fsync is the whole cost
// being shared.
func groupCommit(cfg engineConfig) (*Table, error) {
	cfg.keys = min(cfg.keys, 8_000)
	t := NewTable("writers", "Kops/s", "fsyncs/op", "mean group", "put p50 us", "put p99 us")
	for _, writers := range []int{1, 8, 64} {
		opts := &lsmkv.Options{SyncWAL: true, MemtableBytes: 8 << 20}
		err := cfg.cell(opts, func(db *lsmkv.DB) error {
			before := db.Stats()
			lat, elapsed, err := cfg.ingest(db, writers, 0)
			if err != nil {
				return err
			}
			d := db.Stats().Sub(before)
			t.Row(writers,
				float64(len(lat))/elapsed.Seconds()/1000,
				float64(d.WALSyncs)/float64(len(lat)),
				float64(d.BatchedOps)/float64(max(d.BatchCommits, 1)),
				percentileUs(lat, 0.5), percentileUs(lat, 0.99),
			)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
