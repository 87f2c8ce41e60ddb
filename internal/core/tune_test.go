package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/compaction"
	"lsmkv/internal/iostat"
	"lsmkv/internal/vfs"
)

func TestRetuneAppliesAndAudits(t *testing.T) {
	db, err := Open(crashDBOpts(vfs.NewMem(), false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	before := db.Tunables()
	if before.SizeRatio != 4 || before.K != 1 || before.Z != 1 {
		t.Fatalf("unexpected starting tunables %+v", before)
	}

	err = db.Retune(Tunables{
		SizeRatio:        6,
		K:                3,
		FilterBitsPerKey: 12,
		SlowdownMaxDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := db.Tunables()
	if after.SizeRatio != 6 || after.K != 3 || after.Z != 1 {
		t.Fatalf("shape not applied: %+v", after)
	}
	if after.FilterBitsPerKey != 12 {
		t.Fatalf("bits/key = %v, want 12", after.FilterBitsPerKey)
	}
	if after.SlowdownMaxDelay != 5*time.Millisecond {
		t.Fatalf("slowdown-max-delay = %v", after.SlowdownMaxDelay)
	}
	// Zero fields kept their values.
	if after.L0StopTrigger != before.L0StopTrigger {
		t.Fatalf("untouched knob changed: %+v -> %+v", before, after)
	}

	var ev *iostat.Event
	for _, e := range db.Events() {
		if e.Type == iostat.EventRetune {
			cp := e
			ev = &cp
		}
	}
	if ev == nil {
		t.Fatal("no retune event recorded")
	}
	for _, tok := range []string{"T 4->6", "K 1->3", "bits/key 10->12"} {
		if !strings.Contains(ev.Detail, tok) {
			t.Fatalf("retune event detail %q missing %q", ev.Detail, tok)
		}
	}
}

func TestRetuneNoopRecordsNothing(t *testing.T) {
	db, err := Open(crashDBOpts(vfs.NewMem(), false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Retune(Tunables{}); err != nil {
		t.Fatal(err)
	}
	cur := db.Tunables()
	if err := db.Retune(cur); err != nil {
		t.Fatal(err)
	}
	for _, e := range db.Events() {
		if e.Type == iostat.EventRetune {
			t.Fatalf("no-op retune recorded an event: %q", e.Detail)
		}
	}
}

func TestRetuneMovesL0CompactionTrigger(t *testing.T) {
	db, err := Open(crashDBOpts(vfs.NewMem(), false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Retune(Tunables{L0CompactionTrigger: 5}); err != nil {
		t.Fatal(err)
	}
	after := db.Tunables()
	if after.L0CompactionTrigger != 5 {
		t.Fatalf("l0 trigger = %d, want 5", after.L0CompactionTrigger)
	}

	// Raising the trigger past the stop trigger drags the stop above it.
	if err := db.Retune(Tunables{L0CompactionTrigger: 20}); err != nil {
		t.Fatal(err)
	}
	after = db.Tunables()
	if after.L0CompactionTrigger != 20 {
		t.Fatalf("l0 trigger = %d, want 20", after.L0CompactionTrigger)
	}
	if after.L0StopTrigger <= 20 {
		t.Fatalf("stop trigger %d not clamped above the compaction trigger", after.L0StopTrigger)
	}
	if after.L0SlowdownTrigger >= after.L0StopTrigger {
		t.Fatalf("slowdown %d not below stop %d", after.L0SlowdownTrigger, after.L0StopTrigger)
	}
}

func TestRetuneClampsBackpressureBand(t *testing.T) {
	db, err := Open(crashDBOpts(vfs.NewMem(), false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// A stop at or below the L0 run budget would wedge writers (the
	// picker plans relief only past L0Trigger); Retune must clamp it
	// above, and keep slowdown strictly below stop.
	if err := db.Retune(Tunables{L0StopTrigger: 1, L0SlowdownTrigger: 9}); err != nil {
		t.Fatal(err)
	}
	got := db.Tunables()
	db.mu.Lock()
	l0 := db.opts.L0CompactionTrigger
	db.mu.Unlock()
	if got.L0StopTrigger <= l0 {
		t.Fatalf("stop %d not clamped above L0Trigger %d", got.L0StopTrigger, l0)
	}
	if got.L0SlowdownTrigger >= got.L0StopTrigger {
		t.Fatalf("slowdown %d not below stop %d", got.L0SlowdownTrigger, got.L0StopTrigger)
	}
}

func TestRetuneFlipsGranularityForTiering(t *testing.T) {
	opts := crashDBOpts(vfs.NewMem(), false)
	opts.PartialCompaction = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Single-file planning requires K=1; moving toward tiering must flip
	// the shape to whole-level rather than fail validation.
	if err := db.Retune(Tunables{K: 3, Z: 3}); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	g := db.opts.shape().Granularity
	db.mu.Unlock()
	if g != compaction.WholeLevel {
		t.Fatalf("granularity = %v, want WholeLevel", g)
	}
}

func TestRetuneIgnoresBitsWithoutFilters(t *testing.T) {
	opts := crashDBOpts(vfs.NewMem(), false)
	opts.DisableFilters()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Retune(Tunables{FilterBitsPerKey: 12}); err != nil {
		t.Fatal(err)
	}
	if got := db.Tunables().FilterBitsPerKey; got != 0 {
		t.Fatalf("bits/key = %v on a filterless engine, want 0", got)
	}
}

func TestRetuneAfterClose(t *testing.T) {
	db, err := Open(crashDBOpts(vfs.NewMem(), false))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Retune(Tunables{SizeRatio: 6}); err != ErrClosed {
		t.Fatalf("Retune after Close = %v, want ErrClosed", err)
	}
}

// TestRetuneRaceWithConcurrentCompactions drives parallel writers and
// readers against a 4-worker engine while a controller goroutine walks
// the shape back and forth across the leveling/tiering continuum and
// jiggles every other live knob — the tuner's access pattern at a far
// higher move rate. Run under -race (make test does), this is the
// consistency argument in Retune's doc comment turned executable; the
// final invariant check and full verification catch any compaction that
// planned against a half-applied shape.
func TestRetuneRaceWithConcurrentCompactions(t *testing.T) {
	opts := concurrentDBOpts(vfs.NewFaulty(vfs.NewMem()), false)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 3
	const opsPerWriter = 400
	var writersWg, ctlWg sync.WaitGroup
	stopTuning := make(chan struct{})

	// The controller: alternate between a tiering-ish and a leveling-ish
	// design while moving filter and backpressure knobs.
	ctlWg.Add(1)
	go func() {
		defer ctlWg.Done()
		designs := []Tunables{
			{SizeRatio: 6, K: 5, Z: 5, FilterBitsPerKey: 8,
				L0SlowdownTrigger: 3, L0StopTrigger: 8, SlowdownMaxDelay: 2 * time.Millisecond},
			{SizeRatio: 4, K: 1, Z: 1, FilterBitsPerKey: 12,
				L0SlowdownTrigger: 6, L0StopTrigger: 10, SlowdownMaxDelay: 500 * time.Microsecond},
			{SizeRatio: 5, K: 4, Z: 1, FilterBitsPerKey: 10,
				PendingCompactionSlowdownBytes: 64 << 20},
		}
		for i := 0; ; i++ {
			select {
			case <-stopTuning:
				return
			default:
			}
			if err := db.Retune(designs[i%len(designs)]); err != nil && err != ErrClosed {
				t.Errorf("retune: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	writeErr := make([]error, writers)
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%d-k%02d", w, rng.Intn(40))
				val := fmt.Sprintf("%s#c%04d#%s", key, i, strings.Repeat("v", rng.Intn(48)))
				if err := db.Put([]byte(key), []byte(val)); err != nil {
					writeErr[w] = err
					return
				}
				if i%7 == 0 {
					// Interleave reads so lookups race the knob moves too.
					db.Get([]byte(key))
				}
			}
		}(w)
	}

	// Wait for the writers (bounded, so a wedge fails loudly instead of
	// hanging the suite), then stop the controller.
	done := make(chan struct{})
	go func() {
		writersWg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("writers wedged during concurrent retuning")
	}
	close(stopTuning)
	ctlWg.Wait()

	for w, err := range writeErr {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, db)

	// Every key still reads its last written value.
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(100 + w)))
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
