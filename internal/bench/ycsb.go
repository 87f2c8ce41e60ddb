package bench

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"lsmkv"
	"lsmkv/internal/core"
	"lsmkv/internal/workload"
)

// E19: the YCSB core mixes over one engine configuration, plus a TTL
// reclamation demo. The mixes rank by read share and skew — C (read-only)
// fastest, then B, D, A, F — because every update the mix adds is WAL +
// memtable work stealing time from reads, and F pays a full read before
// each write. The TTL half shows the lifecycle the docs promise: a
// doomed cohort serves before its deadline, reads as absent the instant
// the (injected) clock passes it, and the bytes come back only when the
// next bottommost compaction runs — visible as a footprint shrink and a
// non-zero ExpiredDrops counter.
func E19(scale Scale) ([]*Table, error) {
	mixes, err := ycsbMixes(scale)
	if err != nil {
		return nil, err
	}
	var ttl *Table
	err = withDir(func(dir string) (err error) {
		ttl, err = ttlDemo(dir, scale)
		return err
	})
	if err != nil {
		return nil, err
	}
	return []*Table{mixes, ttl}, nil
}

// ycsbMix names one benchmark row: a canonical mix and the key
// distribution YCSB pairs it with.
type ycsbMix struct {
	name string
	mix  workload.Mix
	dist workload.KeyDist
	// rmw: updates are read-modify-write pairs (YCSB F), so each update
	// pays a Get before its Put.
	rmw bool
}

func ycsbMixes(scale Scale) (*Table, error) {
	cfg := config(scale)
	opsPerMix := int64(cfg.probes) * 4
	mixes := []ycsbMix{
		{"A (update-heavy)", workload.MixA, workload.Zipfian, false},
		{"B (read-mostly)", workload.MixB, workload.Zipfian, false},
		{"C (read-only)", workload.MixC, workload.Zipfian, false},
		{"D (read-latest)", workload.MixD, workload.Latest, false},
		{"F (read-modify-write)", workload.MixF, workload.Zipfian, true},
	}
	t := NewTable("mix", "dist", "Kops/s", "read p99 us", "write p99 us")
	t.Caption = fmt.Sprintf("YCSB core mixes, %d preloaded keys, %d ops each, zipfian theta 0.99:\n",
		cfg.keys, opsPerMix)
	for i, m := range mixes {
		err := cfg.cell(&lsmkv.Options{CacheBytes: 256 << 10}, func(db *lsmkv.DB) error {
			if _, err := cfg.load(db); err != nil {
				return err
			}
			return runMix(t, db, m, cfg, opsPerMix, int64(101+i))
		})
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", m.name, err)
		}
	}
	return t, nil
}

// runMix drives ops operations of mix m against the loaded db and adds
// the mix's row to t.
func runMix(t *Table, db *lsmkv.DB, m ycsbMix, cfg engineConfig, ops int64, seed int64) error {
	gen := workload.NewGenerator(m.mix, m.dist, cfg.keys, 0.99, seed)
	reads := make([]time.Duration, 0, ops)
	writes := make([]time.Duration, 0, ops)
	start := time.Now()
	for i := int64(0); i < ops; i++ {
		op := gen.Next()
		k := workload.Key(op.Key)
		switch op.Kind {
		case workload.OpRead:
			t0 := time.Now()
			if err := get(db, k); err != nil {
				return err
			}
			reads = append(reads, time.Since(t0))
		case workload.OpUpdate:
			t0 := time.Now()
			if m.rmw {
				if err := get(db, k); err != nil {
					return err
				}
			}
			if err := db.Put(k, workload.Value(op.Key, cfg.valueSize)); err != nil {
				return err
			}
			writes = append(writes, time.Since(t0))
		case workload.OpInsert:
			t0 := time.Now()
			if err := db.Put(k, workload.Value(op.Key, cfg.valueSize)); err != nil {
				return err
			}
			writes = append(writes, time.Since(t0))
		}
	}
	kops := float64(ops) / time.Since(start).Seconds() / 1e3
	slices.Sort(reads)
	slices.Sort(writes)
	t.Row(m.name, m.dist.String(), kops, percentileUs(reads, 0.99), percentileUs(writes, 0.99))
	return nil
}

// ttlDemo drives the expiring-key lifecycle against internal/core with
// an injected clock (the public facade deliberately does not expose the
// clock; determinism here matters more than surface purity).
func ttlDemo(dir string, scale Scale) (_ *Table, err error) {
	n := 400 * scale.factor()
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	// BaseBytes is sized so the whole demo fits in L1: expired entries are
	// only reclaimed by *bottommost* compaction, and a one-level tree makes
	// every L0 merge bottommost, so the drop is deterministic at any scale.
	opts := core.Options{
		Dir: dir, Clock: now.Load,
		L0CompactionTrigger: 2, BaseBytes: uint64(64<<10) * uint64(scale.factor()),
		Design: core.Design{MemtableBytes: 4 << 10, SizeRatio: 4, MaxLevels: 4, BlockSize: 1024},
	}
	opts.DisableCache()
	db, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	defer closeInto(db, &err)

	key := func(i int) []byte { return []byte(fmt.Sprintf("lease%06d", i)) }
	// Generation 1: plain values, so the expired generation has older
	// versions to shadow (the hard case for reclamation atomicity).
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), []byte("base-value-to-reclaim")); err != nil {
			return nil, err
		}
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	// Generation 2: the doomed cohort, one-second leases. Drain all
	// pre-expiry maintenance before taking the baseline so no merge
	// scheduled under the old clock is still in flight when it advances.
	for i := 0; i < n; i++ {
		if err := db.PutTTL(key(i), []byte("leased-value"), time.Second); err != nil {
			return nil, err
		}
	}
	if err := db.WaitIdle(); err != nil {
		return nil, err
	}
	servedBefore := 0
	for i := 0; i < n; i++ {
		v, err := db.Get(key(i))
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			return nil, err
		}
		if err == nil && string(v) == "leased-value" {
			servedBefore++
		}
	}
	bytesBefore := tableBytes(db)

	// Past the deadline: reads flip to absent immediately, before any
	// compaction has touched the files.
	now.Add(int64(time.Hour))
	absentAfter := 0
	for i := 0; i < n; i++ {
		if _, err := db.Get(key(i)); errors.Is(err, core.ErrNotFound) {
			absentAfter++
		} else if err != nil {
			return nil, err
		}
	}
	// Three sentinel flushes guarantee the L0 trigger (fires at
	// L0Trigger+1 = 3 runs) trips *after* the deadline even if the
	// drained tree left L0 empty. Each sentinel run brackets the lease
	// range so the merge pulls in every L1 file — reclamation requires
	// the output to be bottommost, which it only is when no L1 file
	// stays outside the merge. The merge then reruns under the advanced
	// clock and physically drops expired entries plus the base versions
	// they shadow.
	for s := 0; s < 3; s++ {
		if err := db.Put([]byte(fmt.Sprintf("a-sentinel%d", s)), []byte("x")); err != nil {
			return nil, err
		}
		if err := db.Put([]byte(fmt.Sprintf("zz-sentinel%d", s)), []byte("x")); err != nil {
			return nil, err
		}
		if err := db.Flush(); err != nil {
			return nil, err
		}
	}
	if err := db.WaitIdle(); err != nil {
		return nil, err
	}
	bytesAfter := tableBytes(db)
	drops := db.Stats().ExpiredDrops

	t := NewTable("phase", "served", "absent", "table bytes", "expired drops")
	t.Caption = fmt.Sprintf("TTL reclamation, %d leases of 1s over %d shadowed base versions:\n", n, n)
	t.Row("before expiry", servedBefore, n-servedBefore, bytesBefore, 0)
	t.Row("after expiry + compaction", n-absentAfter, absentAfter, bytesAfter, drops)
	if drops == 0 {
		t.Note = "\nWARNING: compaction dropped no expired entries (claim not demonstrated)"
	}
	if bytesAfter >= bytesBefore {
		t.Note += fmt.Sprintf("\nWARNING: footprint did not shrink (%d -> %d bytes)", bytesBefore, bytesAfter)
	}
	return t, nil
}

func tableBytes(db *core.DB) uint64 {
	var total uint64
	for _, li := range db.Levels() {
		total += li.Bytes
	}
	return total
}
