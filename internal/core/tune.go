package core

import (
	"fmt"
	"reflect"
	"time"

	"lsmkv/internal/iostat"
)

// Tunables is the subset of Options that may change while the engine is
// running — the knobs the online tuner (internal/tuner) and operators
// move. Everything else in Options is fixed at Open: either it names
// on-disk state (Dir, FS, WAL mode), or live mutation would invalidate
// structures already built against it (block size, learned indexes,
// MaxLevels — the version builder sizes level slices from it).
//
// Its fields are exactly the live rows of Knobs. In Retune, zero fields
// mean "keep the current value", so a caller may set just the knob it
// cares about; any other value must be legal for its row. The intended
// pattern is still read-modify-write: take DB.Tunables(), adjust, pass it
// back.
type Tunables struct {
	// SizeRatio, K, Z position the tree on the leveling/tiering/
	// lazy-leveling continuum (Dostoevsky's T/K/Z). Changes apply at the
	// next compaction decision: the picker plans against the new shape,
	// and data migrates as compactions rewrite it — never eagerly.
	SizeRatio int
	K         int
	Z         int
	// FilterBitsPerKey is the average filter budget. Under MonkeyFilters
	// every table build prices the per-level allocation against it, so
	// sstables pick the new budget up as flushes and compactions write
	// them.
	FilterBitsPerKey float64
	// L0CompactionTrigger is the L0 run count that makes the picker drain
	// level 0. Every L0 run joins every lookup and scan, so this is a read
	// knob as much as a write one: lowering it trades compaction work for
	// a shallower L0. The stop trigger is re-clamped above it.
	L0CompactionTrigger int
	// L0SlowdownTrigger / L0StopTrigger / SlowdownMaxDelay /
	// PendingCompactionSlowdownBytes set the graduated write-backpressure
	// band (see TUNING.md); these take effect on the very next write.
	L0SlowdownTrigger              int
	L0StopTrigger                  int
	SlowdownMaxDelay               time.Duration
	PendingCompactionSlowdownBytes int64
}

// Tunables returns the engine's current live-tunable knob values.
func (db *DB) Tunables() Tunables {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.opts.tunables()
}

// Retune applies t's non-zero knobs to the running engine and records an
// EventRetune naming exactly what changed. It is the single mutation
// point for every knob read outside Open, so the consistency argument
// lives here:
//
//   - Shape changes swap the scheduler's picker under db.mu, where every
//     Scheduler call runs; in-flight compactions carry immutable Task
//     plans and are untouched, while the next planning call sees the new
//     policy.
//   - Every other read of these knobs (backpressure triggers, level
//     capacities for the debt gauge, Monkey budgets) happens under db.mu,
//     which Retune holds for the whole update — no reader can observe a
//     half-applied knob set.
//   - The debt gauge and the Monkey allocation are computed when they are
//     read, under db.mu, from the current version's level totals and the
//     knobs, so the next write and the next filter build both price
//     against the new design point.
//
// The moved knobs pass through the same resolve as Open's options: a
// value outside its row's range is an error naming the knob, the stop
// trigger stays above the L0 compaction trigger (including a just-raised
// one) and the slowdown trigger below the stop. Moving K above 1 suspends
// single-file granularity until K returns to 1. Retune never changes
// BaseBytes or MaxLevels.
func (db *DB) Retune(t Tunables) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	next := db.opts
	eachLive(&t, &next, func(tv, ov reflect.Value) {
		if !tv.IsZero() {
			ov.Set(tv)
		}
	})
	if err := next.resolve(true); err != nil {
		return err
	}
	before, after := db.opts.tunables(), next.tunables()
	changes := after.Describe(&before)
	if changes == "" {
		return nil
	}
	if shape := next.shape(); shape != db.opts.shape() {
		if err := db.sched.Reshape(shape); err != nil {
			return fmt.Errorf("core: retune: %w", err)
		}
	}
	// Only the live fields move: the rest of db.opts is read without db.mu.
	eachLive(&after, &db.opts, func(tv, ov reflect.Value) { ov.Set(tv) })

	db.events.Add(iostat.Event{
		Type: iostat.EventRetune, FromLevel: -1, ToLevel: -1,
		Detail: changes,
	})
	db.opts.Logf("core: retune: %s", changes)

	// The new shape may create compaction work (smaller capacities) or
	// unblock stalled writers (higher stop trigger) — wake both sides.
	db.bgCond.Broadcast()
	db.cond.Broadcast()
	return nil
}

// TuningProfile summarizes the engine's data volume for the analytical
// cost model — the System half of a cost.Model whose Workload half comes
// from iostat deltas. Read it alongside Tunables() to reconstruct the
// engine's full current design point.
type TuningProfile struct {
	// Entries and DiskBytes total the live sstables across all levels
	// (Entries counts stored keys, including tombstones and duplicates
	// not yet merged away).
	Entries   int64
	DiskBytes int64
	// MemtableBytes is the configured write-buffer capacity.
	MemtableBytes int64
	// BlockSize is the configured data-block size (the cost model's page).
	BlockSize int
	// MonkeyFilters reports whether the filter budget is Monkey-allocated.
	MonkeyFilters bool
}

// TuningProfile returns the current data-volume summary for cost
// modeling.
func (db *DB) TuningProfile() TuningProfile {
	db.mu.Lock()
	defer db.mu.Unlock()
	p := TuningProfile{
		MemtableBytes: db.opts.MemtableBytes,
		BlockSize:     db.opts.BlockSize,
		MonkeyFilters: db.opts.MonkeyFilters,
	}
	for _, info := range db.current.info {
		p.Entries += int64(info.Entries)
		p.DiskBytes += int64(info.Bytes)
	}
	return p
}
