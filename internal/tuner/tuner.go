// Package tuner closes the loop from observability to options: an online
// controller that samples the engine's iostat counters on a fixed
// interval, prices the observed workload against the analytical cost
// models in internal/cost, and moves the live knobs core.Retune exposes —
// position on the leveling/tiering/lazy-leveling continuum (T, K, Z),
// the filter bits/key budget, the L0 compaction trigger, and the
// write-slowdown band.
//
// The controller is deliberately conservative, because the knobs it moves
// reshape the tree only as compaction rewrites data — a wrong move costs
// real I/O to undo:
//
//   - Signals are EWMA-smoothed, so one anomalous interval cannot steer.
//   - A candidate design must beat the current one by minGain in
//     modeled cost (hysteresis) and must win on Config.ConfirmSamples
//     consecutive samples before anything is applied.
//   - After a move the tuner holds still for Config.Cooldown, giving
//     compaction time to express the new shape before it is re-judged.
//   - Shape moves step: T by one, K and Z by half the remaining distance
//     to the target design, so convergence is monotone and interruptible.
//   - Every knob moves only inside its core.Knobs row's tuner bounds
//     (core.TuneBounds).
//
// Every applied move is recorded as an iostat.EventTune event carrying
// the signal snapshot, the knob delta, and the rationale — the event log
// alone reconstructs why the engine is shaped the way it is (EXPERIMENTS
// E17 audits a live workload shift exactly this way). The same cost-model
// path serves offline planning through cmd/lsmtune.
package tuner

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/cost"
	"lsmkv/internal/iostat"
)

// Target is the engine surface the tuner drives. *core.DB implements it;
// tests substitute fakes.
type Target interface {
	// Tunables returns the current live-knob values.
	Tunables() core.Tunables
	// Retune applies a knob set (zero fields = keep current).
	Retune(core.Tunables) error
	// Stats snapshots the engine's I/O counters.
	Stats() iostat.Snapshot
	// TuningProfile summarizes data volume for the cost model.
	TuningProfile() core.TuningProfile
	// EventLog is the engine's event ring.
	EventLog() *iostat.EventLog
}

// The controller's fixed constants.
const (
	// minGain is the fractional modeled-cost improvement a candidate
	// design must offer before the tuner moves (the hysteresis band).
	minGain = 0.10
	// ewmaAlpha weights the newest sample in the smoothed read fraction.
	ewmaAlpha = 0.5
	// rangeSelectivity is the assumed fraction of the keyspace a range
	// scan returns.
	rangeSelectivity = 0.01
)

// Config parameterizes the control loop. The zero value selects the
// defaults noted on each field.
type Config struct {
	// Interval is the sampling period. Default: the tune-interval row of
	// core.Knobs (10s).
	Interval time.Duration
	// Cooldown is the minimum time between applied moves. Default
	// 3×Interval.
	Cooldown time.Duration
	// ConfirmSamples is how many consecutive samples must agree on the
	// same target design before a shape move applies. Default 2.
	ConfirmSamples int
	// MinOps is the minimum operations in an interval for it to count as
	// signal; quieter intervals are skipped. Default 64.
	MinOps int64
	// Shard tags this tuner's status for aggregate reporting.
	Shard int
	// Logf, when set, receives one line per applied move.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = core.Defaults().AutoTuneInterval
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3 * c.Interval
	}
	if c.ConfirmSamples <= 0 {
		c.ConfirmSamples = 2
	}
	if c.MinOps <= 0 {
		c.MinOps = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Tuner is one engine's online controller. All methods are safe for
// concurrent use.
type Tuner struct {
	target Target
	cfg    Config
	// lo and hi bound every knob move (core.TuneBounds).
	lo, hi core.Tunables

	mu         sync.Mutex
	running    bool
	frozen     bool
	stop       chan struct{}
	wg         sync.WaitGroup
	havePrev   bool
	prev       iostat.Snapshot
	prevTime   time.Time
	ewmaRead   float64
	haveEWMA   bool
	pendingD   cost.Design // design the confirm streak is voting for
	streak     int
	lastMove   time.Time
	samples    int64
	moves      int64
	lastSig    Signals
	targetDesc string
	decisions  []Decision // bounded ring, newest last
}

// maxDecisions bounds the per-tuner decision history kept for Status.
const maxDecisions = 32

// New returns a tuner driving target. Call Start for the background
// loop, or Sample directly to step it (tests, harnesses).
func New(target Target, cfg Config) *Tuner {
	lo, hi := core.TuneBounds()
	return &Tuner{target: target, cfg: cfg.withDefaults(), lo: lo, hi: hi}
}

// Start launches the sampling loop. Idempotent while running.
func (t *Tuner) Start() {
	t.mu.Lock()
	if t.running {
		t.mu.Unlock()
		return
	}
	t.running = true
	t.stop = make(chan struct{})
	stop := t.stop
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		ticker := time.NewTicker(t.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				t.Sample()
			}
		}
	}()
}

// Stop halts the sampling loop and waits for it to exit. Idempotent.
func (t *Tuner) Stop() {
	t.mu.Lock()
	if !t.running {
		t.mu.Unlock()
		return
	}
	t.running = false
	close(t.stop)
	t.mu.Unlock()
	t.wg.Wait()
}

// Freeze keeps the tuner sampling (Status stays live) but stops it from
// applying any move — the operator's "hold still" switch.
func (t *Tuner) Freeze() {
	t.mu.Lock()
	t.frozen = true
	t.mu.Unlock()
}

// Thaw re-enables moves after Freeze.
func (t *Tuner) Thaw() {
	t.mu.Lock()
	t.frozen = false
	t.mu.Unlock()
}

// Sample runs one control-loop step: snapshot counters, derive signals,
// price the observed workload, and (when hysteresis, confirmation, and
// cooldown all allow) apply one bounded knob move. The first call only
// establishes the counter baseline.
func (t *Tuner) Sample() {
	t.mu.Lock()
	defer t.mu.Unlock()

	now := time.Now()
	snap := t.target.Stats()
	if !t.havePrev {
		t.havePrev = true
		t.prev = snap
		t.prevTime = now
		return
	}
	delta := snap.Sub(t.prev)
	elapsed := now.Sub(t.prevTime)
	t.prev = snap
	t.prevTime = now
	t.samples++

	ops := delta.PointLookups + delta.RangeLookups + delta.WriteOps
	if ops < t.cfg.MinOps {
		// Too quiet to be signal; keep the streak and the EWMA as they
		// are rather than letting an idle interval decay them.
		return
	}

	sig := signalsFromDelta(delta, elapsed)
	if t.haveEWMA {
		sig.ReadFrac = ewmaAlpha*sig.RawReadFrac + (1-ewmaAlpha)*t.ewmaRead
	} else {
		sig.ReadFrac = sig.RawReadFrac
		t.haveEWMA = true
	}
	t.ewmaRead = sig.ReadFrac
	t.lastSig = sig

	cur := t.target.Tunables()
	profile := t.target.TuningProfile()
	sys := systemFrom(profile, cur.FilterBitsPerKey)
	w := workloadFromSignals(sig)
	model := cost.Model{Sys: sys}
	curDesign := cost.Design{T: cur.SizeRatio, K: cur.K, Z: cur.Z}
	curCost := model.Cost(curDesign, w)
	best := cost.Navigate(sys, w, t.candidates())

	next := cur
	var reasons []string

	// Shape: hysteresis (modeled gain) then confirmation streak, then one
	// bounded step toward the winning design.
	gain := 0.0
	if curCost > 0 {
		gain = (curCost - best.Cost) / curCost
	}
	if best.Design != curDesign && gain >= minGain {
		if best.Design == t.pendingD {
			t.streak++
		} else {
			t.pendingD = best.Design
			t.streak = 1
		}
		t.targetDesc = best.Design.String()
		if t.streak >= t.cfg.ConfirmSamples {
			if stepped := stepToward(cur, best.Design); stepped != cur {
				next = stepped
				reasons = append(reasons, fmt.Sprintf(
					"shape toward %s: modeled %.2f -> %.2f io/op (gain %.0f%%)",
					best.Design, curCost, best.Cost, gain*100))
			}
		}
	} else {
		t.streak = 0
		t.targetDesc = curDesign.String()
	}

	// Filter budget: more bits when reads dominate and the measured FPR
	// says filters are leaking probes; fewer when writes dominate (filter
	// build cost and memory buy nothing a write path uses).
	if cur.FilterBitsPerKey > 0 {
		switch {
		case sig.ReadFrac > 0.6 && sig.FilterFPR > 0.02 && cur.FilterBitsPerKey < t.hi.FilterBitsPerKey:
			next.FilterBitsPerKey = cur.FilterBitsPerKey + 1
			reasons = append(reasons, fmt.Sprintf(
				"filters +1 bit/key: fpr %.3f under read-heavy mix", sig.FilterFPR))
		case sig.ReadFrac < 0.3 && cur.FilterBitsPerKey > t.lo.FilterBitsPerKey:
			next.FilterBitsPerKey = cur.FilterBitsPerKey - 1
			reasons = append(reasons, fmt.Sprintf(
				"filters -1 bit/key: write-heavy mix (read-frac %.2f)", sig.ReadFrac))
		}
	}

	// L0 compaction trigger: every L0 run joins every lookup and every
	// scan (no filter screens a scan), so a read-heavy mix wants L0
	// drained eagerly; a write-heavy mix wants a deep L0 batching work
	// into fewer, larger merges. Stepped one run at a time within its
	// bounds.
	if cur.L0CompactionTrigger > 0 {
		switch {
		case sig.ReadFrac > 0.6 && cur.L0CompactionTrigger > t.lo.L0CompactionTrigger:
			next.L0CompactionTrigger = cur.L0CompactionTrigger - 1
			reasons = append(reasons, fmt.Sprintf(
				"L0 trigger -1: read-heavy mix pays every L0 run on every read (read-frac %.2f)",
				sig.ReadFrac))
		case sig.ReadFrac < 0.3 && cur.L0CompactionTrigger < t.hi.L0CompactionTrigger:
			next.L0CompactionTrigger = cur.L0CompactionTrigger + 1
			reasons = append(reasons, fmt.Sprintf(
				"L0 trigger +1: write-heavy mix batches L0 merges (read-frac %.2f)",
				sig.ReadFrac))
		}
	}

	// Slowdown band: hard stalls mean the band failed to absorb pressure —
	// widen it (engage earlier, allow a larger per-write delay). Heavy
	// slowdown time with zero stalls under a write-heavy mix means the
	// band is overdamped — relax the delay cap.
	if sig.StallNs > 0 {
		if cur.L0SlowdownTrigger > t.lo.L0SlowdownTrigger {
			next.L0SlowdownTrigger = cur.L0SlowdownTrigger - 1
		}
		if d := cur.SlowdownMaxDelay * 2; d > 0 && d <= t.hi.SlowdownMaxDelay {
			next.SlowdownMaxDelay = d
		}
		reasons = append(reasons, fmt.Sprintf(
			"widen slowdown band: %.0fms hard stall in interval",
			float64(sig.StallNs)/1e6))
	} else if sig.ReadFrac < 0.3 && elapsed > 0 &&
		float64(sig.SlowdownNs) > 0.1*float64(elapsed) &&
		cur.SlowdownMaxDelay > t.lo.SlowdownMaxDelay {
		next.SlowdownMaxDelay = cur.SlowdownMaxDelay / 2
		reasons = append(reasons, fmt.Sprintf(
			"relax slowdown cap: %.0f%% of interval spent in soft delay, no stalls",
			100*float64(sig.SlowdownNs)/float64(elapsed)))
	}

	if len(reasons) == 0 || t.frozen || now.Sub(t.lastMove) < t.cfg.Cooldown {
		return
	}
	t.apply(now, sig, cur, next, strings.Join(reasons, "; "))
}

// apply retunes the target from cur to next and records the move: a
// Decision, and an EventTune whose knob delta is what Retune applied,
// rendered as the engine's own EventRetune renders it. Caller holds t.mu.
func (t *Tuner) apply(now time.Time, sig Signals, cur, next core.Tunables, rationale string) {
	if err := t.target.Retune(next); err != nil {
		t.cfg.Logf("tuner: retune rejected: %v", err)
		return
	}
	after := t.target.Tunables()
	t.lastMove = now
	t.streak = 0
	t.moves++
	t.decisions = append(t.decisions, Decision{
		Time: now, Shard: t.cfg.Shard, Signals: sig,
		Before: cur, After: after, Rationale: rationale,
	})
	if len(t.decisions) > maxDecisions {
		t.decisions = t.decisions[len(t.decisions)-maxDecisions:]
	}
	delta := cmp.Or(after.Describe(&cur), "no-op")
	t.target.EventLog().Add(iostat.Event{
		Type: iostat.EventTune, FromLevel: -1, ToLevel: -1,
		Detail: fmt.Sprintf("%s | %s | %s", sig, delta, rationale),
	})
	t.cfg.Logf("tuner: %s | %s | %s", sig, delta, rationale)
}

// candidates is the design space the cost navigator searches: every
// hybrid (T, K, Z) with T inside the size ratio's tuner bounds.
func (t *Tuner) candidates() cost.CandidateSpace {
	return cost.CandidateSpace{MinT: t.lo.SizeRatio, MaxT: t.hi.SizeRatio, FullHybrid: true}
}

// stepToward returns cur advanced one bounded step toward target: T moves
// by one, K and Z by half the remaining distance (at least one), so every
// step strictly shrinks the distance — convergence is monotone, and an
// interrupted walk leaves a valid intermediate design.
func stepToward(cur core.Tunables, target cost.Design) core.Tunables {
	next := cur
	if target.T > cur.SizeRatio {
		next.SizeRatio = cur.SizeRatio + 1
	} else if target.T < cur.SizeRatio {
		next.SizeRatio = cur.SizeRatio - 1
	}
	// Run budgets live in [1, T-1] (core rejects anything else); a half
	// step between two budgets of at least 1 needs only the upper bound.
	next.K = min(halfStep(cur.K, target.K), next.SizeRatio-1)
	next.Z = min(halfStep(cur.Z, target.Z), next.SizeRatio-1)
	return next
}

// halfStep moves cur halfway to target, by at least one when they differ.
func halfStep(cur, target int) int {
	d := target - cur
	if d == 0 {
		return cur
	}
	step := d / 2
	if step == 0 {
		if d > 0 {
			step = 1
		} else {
			step = -1
		}
	}
	return cur + step
}
