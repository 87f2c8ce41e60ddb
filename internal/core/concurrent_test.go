package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/crashtest"
	"lsmkv/internal/vfs"
)

// concurrentDBOpts shapes a tree small enough that a few thousand ops
// keep all four compaction workers busy.
func concurrentDBOpts(fs vfs.FS, walSync bool) Options {
	o := crashDBOpts(fs, walSync)
	o.CompactionConcurrency = 4
	return o
}

// checkTreeInvariants asserts the structural invariants concurrent
// compaction must preserve: within every sorted run, files are ordered
// by smallest key and their ranges are disjoint; every file number
// appears in the tree exactly once. A violated invariant here means two
// jobs installed overlapping outputs — exactly what the scheduler's
// claims exist to prevent.
func checkTreeInvariants(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	seen := map[uint64]string{}
	for li, level := range db.current.levels {
		for ri, r := range level {
			for fi, th := range r.tables {
				where := fmt.Sprintf("L%d/run%d/file%d(num %d)", li, ri, fi, th.meta.Num)
				if prev, dup := seen[th.meta.Num]; dup {
					t.Errorf("file %d appears twice: %s and %s", th.meta.Num, prev, where)
				}
				seen[th.meta.Num] = where
				if string(th.meta.Smallest) > string(th.meta.Largest) {
					t.Errorf("%s: smallest %q > largest %q", where, th.meta.Smallest, th.meta.Largest)
				}
				if fi > 0 {
					prev := r.tables[fi-1].meta
					if string(prev.Largest) >= string(th.meta.Smallest) {
						t.Errorf("%s overlaps predecessor: prev largest %q >= smallest %q",
							where, prev.Largest, th.meta.Smallest)
					}
				}
			}
		}
	}
}

// TestConcurrentCompactionSoak hammers a 4-worker engine with parallel
// writers, then verifies every final value, the tree's structural
// invariants, and that a reopen sees the same data. The scheduler
// panics on any overlapping file claim, so merely finishing this test
// asserts zero overlapping-input compactions.
func TestConcurrentCompactionSoak(t *testing.T) {
	fs := vfs.NewFaulty(vfs.NewMem())
	opts := concurrentDBOpts(fs, false)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const opsPerWriter = 600
	var wg sync.WaitGroup
	writeErr := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%d-k%02d", w, rng.Intn(40))
				val := fmt.Sprintf("%s#c%04d#%s", key, i, strings.Repeat("v", rng.Intn(48)))
				if err := db.Put([]byte(key), []byte(val)); err != nil {
					writeErr[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range writeErr {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, db)

	// Final state per key is the writer's last Put on it.
	verify := func(db *DB) {
		t.Helper()
		for w := 0; w < writers; w++ {
			rng := rand.New(rand.NewSource(int64(w)))
			want := map[string]string{}
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%d-k%02d", w, rng.Intn(40))
				want[key] = fmt.Sprintf("%s#c%04d#%s", key, i, strings.Repeat("v", rng.Intn(48)))
			}
			for k, v := range want {
				got, err := db.Get([]byte(k))
				if err != nil {
					t.Fatalf("Get %s: %v", k, err)
				}
				if string(got) != v {
					t.Fatalf("Get %s = %q, want %q", k, got, v)
				}
			}
		}
	}
	verify(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	checkTreeInvariants(t, db)
	verify(db)
}

// TestCrashMidConcurrentCompaction is the engine's durability property under
// the concurrent topology: 4 compaction workers and 4 parallel writers,
// WAL sync on, over disjoint keys, with power lost at a random point —
// typically mid-flush or mid-merge. Every acknowledged write must
// survive; per key, the recovered value may run ahead of the last ack
// (durable but unacknowledged) but never behind it (the oracle's window
// check), and the reopened tree keeps its structural invariants.
func TestCrashMidConcurrentCompaction(t *testing.T) {
	const writers, opsPerWriter = 4, 220
	crashtest.Check(t, crashtest.Case{Seed: 7000, Iters: 5, Tails: crashtest.Torn,
		MinWindow: 100, // the writers' commits, flushes and merges, not an open that failed
		Check:     (*crashtest.History).Window,
		Reopen: func(img vfs.FS) (crashtest.Store, error) {
			db, err := Open(concurrentDBOpts(img, false))
			if err != nil {
				return nil, err
			}
			checkTreeInvariants(t, db)
			return db, nil
		},
		Run: func(e *crashtest.Env) {
			db, err := Open(concurrentDBOpts(e.FS, true))
			if err != nil {
				return
			}
			defer db.Close() // ignore errors: the FS may be frozen
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range opsPerWriter {
						key := fmt.Sprintf("w%d-k%02d", w, i%16)
						put := crashtest.Put(key, fmt.Sprintf("%s#c%04d#%s", key, i, strings.Repeat("p", i%32)))
						op := e.Issue(put)
						if crashtest.Apply(db, put) != nil {
							return
						}
						e.Ack(op)
					}
				}()
			}
			wg.Wait()
		},
	})
}

// TestGraduatedBackpressureCounters starves compaction behind a tiny
// shared rate limit so ingest must climb the whole backpressure ladder:
// the slowdown band first, the hard stop after. Both must be visible in
// the counters, the event log, and the stall histogram.
func TestGraduatedBackpressureCounters(t *testing.T) {
	opts := Options{
		Dir: "db", FS: vfs.NewMem(), L0CompactionTrigger: 2, BaseBytes: 4 << 10,
		Design: Design{
			MemtableBytes: 2 << 10, SizeRatio: 4, MaxLevels: 4, BlockSize: 512,
			L0SlowdownTrigger:        2,
			L0StopTrigger:            4,
			SlowdownMaxDelay:         200 * time.Microsecond,
			CompactionMaxBytesPerSec: 8 << 10, // starve compaction so L0 piles up
		},
	}
	opts.DisableFilters().DisableCache()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	val := strings.Repeat("x", 100)
	for i := 0; i < 400; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}

	s := db.Stats()
	if s.WriteSlowdowns == 0 || s.WriteSlowdownNs == 0 {
		t.Errorf("slowdown band never engaged: %d delays, %dns", s.WriteSlowdowns, s.WriteSlowdownNs)
	}
	if s.WriteStalls == 0 || s.WriteStallNs == 0 {
		t.Errorf("hard stop never engaged: %d stalls, %dns", s.WriteStalls, s.WriteStallNs)
	}
	if _, ok := db.Latencies()["stall"]; !ok {
		t.Error("stall histogram empty despite recorded stalls")
	}
	var sawSlowdown, sawStall bool
	for _, e := range db.Events() {
		switch e.Type {
		case "write-slowdown":
			sawSlowdown = true
		case "write-stall":
			sawStall = true
		}
	}
	if !sawSlowdown || !sawStall {
		t.Errorf("event log missing backpressure events: slowdown=%v stall=%v", sawSlowdown, sawStall)
	}
}

// TestStopTriggerAtCompactionTriggerNoDeadlock: a stop trigger at or
// below the shape's L0 run budget would block writers in a state the
// picker never plans relief for (it fires at L0Trigger+1 runs) — every
// goroutine parks and the engine wedges. Options must clamp the stop
// above the compaction trigger. Regression test for a deadlock found by
// driving the public API with a hand-picked (mis)configuration.
func TestStopTriggerAtCompactionTriggerNoDeadlock(t *testing.T) {
	opts := Options{
		Dir: "db", FS: vfs.NewMem(), L0CompactionTrigger: 4, BaseBytes: 8 << 10,
		Design: Design{
			MemtableBytes: 2 << 10, SizeRatio: 4, MaxLevels: 4, BlockSize: 512,
			// At or below L0CompactionTrigger: without the clamp this wedges.
			L0StopTrigger:            4,
			CompactionMaxBytesPerSec: 64 << 10,
		},
	}
	opts.DisableFilters().DisableCache()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	done := make(chan error, 1)
	go func() {
		val := strings.Repeat("x", 100)
		for i := 0; i < 2000; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key%04d", i%500)), []byte(val)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writer wedged: stop trigger at the compaction trigger deadlocked the engine")
	}
}
