package compaction

import (
	"fmt"
	"sync"
	"time"

	"lsmkv/internal/manifest"
)

// Scheduler hands compaction tasks to a pool of concurrent workers while
// guaranteeing that no two in-flight tasks overlap. It wraps the Picker
// (which plans against the manifest's levels and knows nothing about
// concurrency) with a claim table:
//
//   - Every task claims its source and target levels. Two tasks with
//     intersecting level sets never run together: a task reads whole
//     runs/files of its source and splices output into its target's
//     first run (or appends a fresh run), so a concurrent job touching
//     either level could observe files mid-deletion, interleave
//     overlapping files into one sorted run, or install runs out of age
//     order.
//   - Every task also claims its individual input/target file numbers.
//     Level claims already imply file disjointness; the file table is a
//     belt-and-braces invariant check (Next panics on a violation, which
//     the race tests exercise hard).
//
// Priority follows the write path's needs: level-0 relief first (an
// overloaded L0 stalls writers), then deeper levels by descending
// pressure score — the flush>L0>score ordering, with flushes handled by
// the engine's dedicated flush worker above this package.
//
// A Scheduler is not safe for concurrent use: the caller serializes every
// method under the lock that also guards the levels it plans over (the
// engine's db.mu), so a claim and the tree it was planned against never
// disagree. The Picker's round-robin cursor is touched only through the
// Scheduler, so callers must route every planning call through it once
// one exists.
type Scheduler struct {
	picker   *Picker
	levels   map[int]bool    // claimed levels of in-flight tasks
	files    map[uint64]bool // claimed file numbers of in-flight tasks
	inflight int
}

// NewScheduler wraps picker. The picker must not be used directly once
// the scheduler owns it.
func NewScheduler(picker *Picker) *Scheduler {
	return &Scheduler{
		picker: picker,
		levels: make(map[int]bool),
		files:  make(map[uint64]bool),
	}
}

// Next plans and claims the most urgent task that does not conflict with
// any in-flight task, or returns nil when no admissible work exists.
// The caller must call Done(task) exactly once when the task finishes
// (successfully or not).
func (s *Scheduler) Next(levels []manifest.Level) *Task {
	t := s.picker.PickUnder(levels, s.admissible)
	if t == nil {
		return nil
	}
	s.claim(t)
	return t
}

// admissible reports whether t conflicts with no in-flight task.
func (s *Scheduler) admissible(t *Task) bool {
	for _, l := range t.Levels() {
		if s.levels[l] {
			return false
		}
	}
	return true
}

// claim marks t's levels and files in-flight. A file already
// claimed despite disjoint levels means the level-claim invariant is
// broken somewhere — that is a bug worth dying loudly for, not a
// recoverable condition.
func (s *Scheduler) claim(t *Task) {
	for _, l := range t.Levels() {
		s.levels[l] = true
	}
	for _, f := range t.InputFiles {
		if s.files[f.Num] {
			panic(fmt.Sprintf("compaction: file %d claimed by two concurrent tasks", f.Num))
		}
		s.files[f.Num] = true
	}
	for _, f := range t.TargetFiles {
		if s.files[f.Num] {
			panic(fmt.Sprintf("compaction: file %d claimed by two concurrent tasks", f.Num))
		}
		s.files[f.Num] = true
	}
	s.inflight++
}

// Done releases t's claims, unblocking conflicting candidates.
func (s *Scheduler) Done(t *Task) {
	for _, l := range t.Levels() {
		delete(s.levels, l)
	}
	for _, f := range t.InputFiles {
		delete(s.files, f.Num)
	}
	for _, f := range t.TargetFiles {
		delete(s.files, f.Num)
	}
	s.inflight--
}

// Reshape swaps the scheduler's picker for one planning against shape,
// so the next planning call sees the new policy. In-flight tasks are
// unaffected: each carries its own immutable plan, and the claim table
// (which outlives the picker) keeps new plans disjoint from them. The
// round-robin fairness cursor resets — acceptable, since reshaping is a
// rare tuning action, not a steady-state path.
func (s *Scheduler) Reshape(shape Shape) error {
	p, err := NewPicker(shape)
	if err != nil {
		return err
	}
	s.picker = p
	return nil
}

// InFlight returns the number of claimed, unfinished tasks.
func (s *Scheduler) InFlight() int {
	return s.inflight
}

// Quiesced reports whether no task is in flight and the tree needs no
// compaction — the "background work is finished" predicate.
func (s *Scheduler) Quiesced(levels []manifest.Level) bool {
	if s.inflight > 0 {
		return false
	}
	return s.picker.PickUnder(levels, nil) == nil
}

// RateLimiter is a token bucket metering background write bytes, shared
// by every concurrent compaction job so the configured ceiling bounds
// their *combined* rate. (A per-job wall-clock pacer — the previous
// design — undercounts as soon as two jobs overlap: each believes it has
// the whole budget.)
//
// Admission is gated: a caller blocks until the bucket holds its tokens
// (capped at the burst for oversized writes) and only then debits them.
// An unbounded-deficit design — debit first, sleep the debt off — lets
// concurrent deep merges drive the shared deficit many chunks negative,
// and whichever urgent L0 job arrives next inherits the whole backlog as
// one giant sleep; gating bounds the debt any single caller can leave
// behind to one chunk.
//
// The limiter extends the scheduler's flush > L0 > deeper ordering into
// the bandwidth plane: urgent callers (L0->L1 jobs, the ones writers
// stall behind) have their pending demand reserved out of the refill, so
// deep merges cannot starve level-0 relief no matter how many of them
// run. Without the reservation a pool is no better than one worker under
// a binding rate limit — L0 relief would get 1/N of the bandwidth
// instead of all of it. A nil *RateLimiter is the disabled limiter;
// WaitFor on it returns immediately.
type RateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64 // cap on accumulated idle credit
	avail  float64
	urgent float64 // tokens urgent waiters are currently queued for
	last   time.Time
}

// NewRateLimiter returns a limiter metering bytesPerSec, or nil (the
// no-op limiter) when bytesPerSec <= 0. The burst is one second of rate:
// a job may briefly exceed the ceiling after an idle period, but never
// by more than one second's budget.
func NewRateLimiter(bytesPerSec int64) *RateLimiter {
	if bytesPerSec <= 0 {
		return nil
	}
	return &RateLimiter{
		rate:  float64(bytesPerSec),
		burst: float64(bytesPerSec),
		avail: float64(bytesPerSec),
		last:  time.Now(),
	}
}

// WaitFor blocks until the shared budget holds n bytes of credit (capped
// at the burst, so a write larger than the bucket can still pass), then
// debits the full n. Urgent callers see the whole budget; normal callers
// only see what's left after every queued urgent demand is reserved, so
// level-0 relief preempts deep merges on the bandwidth plane. Nil-safe.
func (r *RateLimiter) WaitFor(n int64, isUrgent bool) {
	if r == nil || n <= 0 {
		return
	}
	need := float64(n)
	if need > r.burst {
		need = r.burst
	}
	registered := false
	for {
		r.mu.Lock()
		now := time.Now()
		r.avail += now.Sub(r.last).Seconds() * r.rate
		if r.avail > r.burst {
			r.avail = r.burst
		}
		r.last = now
		if isUrgent && !registered {
			r.urgent += need
			registered = true
		}
		gate := need
		if !isUrgent {
			gate += r.urgent
		}
		if r.avail >= gate {
			r.avail -= float64(n)
			if registered {
				r.urgent -= need
			}
			r.mu.Unlock()
			return
		}
		wait := time.Duration((gate - r.avail) / r.rate * float64(time.Second))
		r.mu.Unlock()
		// Re-check after sleeping rather than trusting the computed wait:
		// another worker may have taken the refill first, or — for a
		// normal caller — new urgent demand may have arrived. Cap the
		// sleep so a normal caller parked behind a large urgent reserve
		// notices promptly once it drains.
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		time.Sleep(wait)
	}
}
