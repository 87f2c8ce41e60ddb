package compaction

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/manifest"
)

// schedShape is a leveled shape small enough that synthetic views
// overflow several levels at once.
func schedShape() Shape {
	s := Shape{SizeRatio: 4, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 1000, MaxLevels: 6}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// mkFile builds a file spanning [lo, hi] decimal keys.
func mkFile(num uint64, size uint64, lo, hi int) *manifest.FileMeta {
	return &manifest.FileMeta{
		Num:       num,
		Size:      size,
		Smallest:  []byte(fmt.Sprintf("%08d", lo)),
		Largest:   []byte(fmt.Sprintf("%08d", hi)),
		Entries:   size / 100,
		CreatedAt: num,
	}
}

// fullRun is a one-file run covering the whole key space.
func fullRun(num, size uint64) manifest.Run {
	return manifest.Run{Files: []*manifest.FileMeta{mkFile(num, size, 0, 99999999)}}
}

// overloadedViews builds a tree with L0 over its run trigger and L2 far
// over its byte capacity, with nothing in between conflicting.
func overloadedViews() []manifest.Level {
	v := make([]manifest.Level, 6)
	v[0].Runs = []manifest.Run{fullRun(1, 500), fullRun(2, 500), fullRun(3, 500)}
	// L2 capacity is BaseBytes*T = 4000; 40000 gives score 10, far above
	// L0's 1.5 — score order alone would pick L2 first.
	v[2].Runs = []manifest.Run{fullRun(10, 40000)}
	v[3].Runs = []manifest.Run{fullRun(11, 15000)} // keeps L2 from being the last level
	return v
}

func TestSchedulerPriorityL0First(t *testing.T) {
	s := NewScheduler(mustPicker(t, schedShape()))
	task := s.Next(overloadedViews())
	if task == nil {
		t.Fatal("no task from an overloaded tree")
	}
	if task.FromLevel != 0 {
		t.Fatalf("first task from L%d; level-0 relief must preempt higher scores", task.FromLevel)
	}
	if task.Score <= 1.0 {
		t.Errorf("task score %.2f; want > 1 for an over-budget level", task.Score)
	}
	s.Done(task)
}

func TestSchedulerDisjointClaims(t *testing.T) {
	s := NewScheduler(mustPicker(t, schedShape()))
	views := overloadedViews()

	t1 := s.Next(views)
	if t1 == nil || t1.FromLevel != 0 {
		t.Fatalf("first task: %+v; want L0 relief", t1)
	}
	// With L0 and L1 claimed by t1, the next admissible task must be the
	// L2 overflow.
	t2 := s.Next(views)
	if t2 == nil {
		t.Fatal("no second task despite disjoint L2 overflow")
	}
	if t2.FromLevel != 2 {
		t.Fatalf("second task from L%d; want 2", t2.FromLevel)
	}
	assertDisjoint(t, t1, t2)

	// Everything left conflicts (L3 is claimed as t2's target).
	if t3 := s.Next(views); t3 != nil {
		t.Fatalf("third task %+v conflicts with in-flight claims", t3)
	}
	if got := s.inflight; got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Releasing t1 re-admits L0 work.
	s.Done(t1)
	t4 := s.Next(views)
	if t4 == nil || t4.FromLevel != 0 {
		t.Fatalf("after Done, task %+v; want L0 relief again", t4)
	}
	s.Done(t2)
	s.Done(t4)
	if got := s.inflight; got != 0 {
		t.Fatalf("InFlight = %d after all Done, want 0", got)
	}
}

func assertDisjoint(t *testing.T, a, b *Task) {
	t.Helper()
	al := map[int]bool{}
	for _, l := range a.Levels() {
		al[l] = true
	}
	for _, l := range b.Levels() {
		if al[l] {
			t.Fatalf("tasks share level %d: %q vs %q", l, a.Reason, b.Reason)
		}
	}
	af := map[uint64]bool{}
	for _, f := range append(a.InputFiles, a.TargetFiles...) {
		af[f.Num] = true
	}
	for _, f := range append(b.InputFiles, b.TargetFiles...) {
		if af[f.Num] {
			t.Fatalf("tasks share file %d: %q vs %q", f.Num, a.Reason, b.Reason)
		}
	}
}

// TestSchedulerQuiesced: in-flight work or pending candidates both mean
// not quiesced.
func TestSchedulerQuiesced(t *testing.T) {
	s := NewScheduler(mustPicker(t, schedShape()))
	views := overloadedViews()
	if s.Quiesced(views) {
		t.Fatal("overloaded tree reported quiesced")
	}
	task := s.Next(views)
	if s.Quiesced(make([]manifest.Level, 6)) {
		t.Fatal("in-flight task but tree reported quiesced")
	}
	s.Done(task)
	if !s.Quiesced(make([]manifest.Level, 6)) {
		t.Fatal("empty tree with no in-flight work not quiesced")
	}
}

// TestSchedulerStarvationFreedom: a long-running deep merge must not
// block L0 relief, and deep levels must still get their turn once the
// L0 backlog clears.
func TestSchedulerStarvationFreedom(t *testing.T) {
	s := NewScheduler(mustPicker(t, schedShape()))
	views := overloadedViews()

	// L0 always outranks deeper levels, so the deep merge is scheduled
	// only while an L0 task holds its claim — that is the point: one slot
	// serves L0, the rest drain deeper debt instead of idling.
	l0 := s.Next(views)
	if l0 == nil || l0.FromLevel != 0 {
		t.Fatalf("first task %+v; want L0 relief", l0)
	}
	deep := s.Next(views)
	if deep == nil || deep.FromLevel != 2 {
		t.Fatalf("second task %+v; want the deep L2 merge", deep)
	}

	// L0 relief keeps flowing while the deep merge stays in flight.
	s.Done(l0)
	for i := 0; i < 5; i++ {
		task := s.Next(views)
		if task == nil || task.FromLevel != 0 {
			t.Fatalf("iteration %d: task %+v; want L0 relief alongside deep merge", i, task)
		}
		assertDisjoint(t, deep, task)
		s.Done(task)
	}
	s.Done(deep)

	// With L0 relieved, the deep level is next in line again.
	views[0].Runs = nil
	task := s.Next(views)
	if task == nil || task.FromLevel != 2 {
		t.Fatalf("after L0 clears, task %+v; want L2 merge", task)
	}
	s.Done(task)
}

// TestSchedulerClaimRace hammers Next/Done from many goroutines and
// asserts every pair of concurrently-held tasks is disjoint in levels
// and files — the invariant concurrent compaction correctness rests on.
// The Scheduler is not safe for concurrent use: dbMu stands in for the
// engine lock every Next and Done runs under, and the tasks still run
// (and overlap) outside it.
func TestSchedulerClaimRace(t *testing.T) {
	s := NewScheduler(mustPicker(t, schedShape()))
	views := overloadedViews()

	var (
		dbMu sync.Mutex
		mu   sync.Mutex
		held = map[*Task]bool{}
	)
	checkAndHold := func(task *Task) {
		mu.Lock()
		defer mu.Unlock()
		for other := range held {
			// Raw invariant check (assertDisjoint is t.Helper-based and
			// not goroutine-safe to Fatal from; collect via Error).
			for _, l := range task.Levels() {
				for _, ol := range other.Levels() {
					if l == ol {
						t.Errorf("concurrent tasks share level %d", l)
					}
				}
			}
		}
		held[task] = true
	}
	release := func(task *Task) {
		mu.Lock()
		delete(held, task)
		mu.Unlock()
		dbMu.Lock()
		s.Done(task)
		dbMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dbMu.Lock()
				task := s.Next(views)
				dbMu.Unlock()
				if task == nil {
					continue
				}
				checkAndHold(task)
				if i%7 == 0 {
					time.Sleep(50 * time.Microsecond) // widen the overlap window
				}
				release(task)
			}
		}()
	}
	wg.Wait()
	if got := s.inflight; got != 0 {
		t.Fatalf("InFlight = %d after all workers finished, want 0", got)
	}
}

func mustPicker(t *testing.T, shape Shape) *Picker {
	t.Helper()
	p, err := NewPicker(shape)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRateLimiterSharesBudget: two concurrent payers drawing from one
// bucket take at least totalBytes/rate seconds combined — the per-job
// wall-clock pacer this replaces would have let them finish in half
// that.
func TestRateLimiterSharesBudget(t *testing.T) {
	const rate = 1 << 20 // 1 MiB/s
	rl := NewRateLimiter(rate)
	rl.WaitFor(rate, false) // drain the initial burst credit

	const perWorker = 512 << 10 // 0.5 MiB each, 1 MiB total => >= ~1s shared
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for paid := 0; paid < perWorker; paid += 64 << 10 {
				rl.WaitFor(64<<10, false)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 700*time.Millisecond {
		t.Errorf("two workers moved 1 MiB through a 1 MiB/s shared bucket in %v; budget not shared", elapsed)
	}
}

// TestRateLimiterUrgentPreempts: while a normal (deep-merge) payer and
// an urgent (L0) payer both queue on an empty bucket, the urgent demand
// is reserved out of the refill — the urgent payer must clear first even
// though the normal payer asked earlier.
func TestRateLimiterUrgentPreempts(t *testing.T) {
	const rate = 1 << 20
	rl := NewRateLimiter(rate)
	rl.WaitFor(rate, false) // drain the initial burst credit

	var urgentDone, normalDone time.Time
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rl.WaitFor(256<<10, false)
		normalDone = time.Now()
	}()
	// Give the normal payer a head start in the queue.
	time.Sleep(20 * time.Millisecond)
	go func() {
		defer wg.Done()
		rl.WaitFor(256<<10, true)
		urgentDone = time.Now()
	}()
	wg.Wait()
	if !urgentDone.Before(normalDone) {
		t.Errorf("urgent payer finished %v after the normal payer; urgent reservation not honored",
			urgentDone.Sub(normalDone))
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	var rl *RateLimiter
	done := make(chan struct{})
	go func() {
		rl.WaitFor(1<<40, true)
		if NewRateLimiter(0) != nil {
			t.Error("NewRateLimiter(0) != nil")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("nil RateLimiter blocked")
	}
}
