// Package compaction implements the planning half of the LSM compaction
// design space, factored along the four first-order primitives of Sarkar
// et al. (VLDB'21): the *trigger* (when to compact), the *data layout*
// (how many sorted runs a level may hold), the *granularity* (whole levels
// vs single files), and the *data movement policy* (which file to pick).
//
// One parameterized picker covers the classic layouts as points in the
// space, following Dostoevsky's K/Z formulation (Dayan & Idreos,
// SIGMOD'18):
//
//	leveling       K=1,   Z=1
//	tiering        K=T-1, Z=T-1
//	lazy leveling  K=T-1, Z=1   (tiered inner levels, leveled last level)
//	hybrid         any K, Z in between (the LSM-bush/Wacky continuum
//	               direction of arbitrary per-level run counts)
//
// The package plans over the tree as the manifest records it (the
// manifest.State levels, read under the engine's lock) and returns Tasks;
// the engine executes them. Two layers share the work: the Picker plans
// single tasks against those levels (stateless but for the round-robin
// cursor), and the Scheduler hands tasks to a pool of concurrent
// compaction workers, claiming disjoint level/file sets so no two
// in-flight jobs overlap, ordering candidates L0-first then by pressure
// score, and metering their combined write rate through one shared
// token-bucket RateLimiter.
package compaction

import (
	"bytes"
	"fmt"

	"lsmkv/internal/manifest"
)

// Granularity selects how much data one compaction moves.
type Granularity int

const (
	// WholeLevel merges every selected run in full (classic leveling /
	// tiering; larger, less frequent compactions).
	WholeLevel Granularity = iota
	// SingleFile moves one file at a time (partial compaction à la
	// LevelDB/RocksDB; smaller compactions, smoother tail latency). Only
	// meaningful when the source level holds a single run (K=1).
	SingleFile
)

func (g Granularity) String() string {
	if g == SingleFile {
		return "single-file"
	}
	return "whole-level"
}

// FilePicker selects which file a SingleFile compaction moves — the data
// movement policy primitive.
type FilePicker int

const (
	// PickRoundRobin cycles through the key space (LevelDB's policy).
	PickRoundRobin FilePicker = iota
	// PickMinOverlap chooses the file with the least overlapping bytes in
	// the target level, minimizing write amplification.
	PickMinOverlap
	// PickMostTombstones chooses the file with the highest tombstone
	// density, maximizing reclaimed space (Lethe-style delete-awareness).
	PickMostTombstones
	// PickOldest chooses the file that has been in the level longest
	// (cold data first).
	PickOldest
)

func (p FilePicker) String() string {
	switch p {
	case PickMinOverlap:
		return "min-overlap"
	case PickMostTombstones:
		return "most-tombstones"
	case PickOldest:
		return "oldest"
	default:
		return "round-robin"
	}
}

// Shape fixes the tree's layout parameters — the tunable design point.
type Shape struct {
	// SizeRatio T: each level holds T times its predecessor.
	SizeRatio int
	// K is the maximum number of runs in inner levels (1..T-1).
	K int
	// Z is the maximum number of runs in the last level (1..T-1).
	Z int
	// L0Trigger is the run count in level 0 that forces a flush-out.
	L0Trigger int
	// BaseBytes is the capacity of level 1 in bytes (typically buffer
	// size × T).
	BaseBytes uint64
	// Granularity and Picker select partial-compaction behavior for K=1
	// levels.
	Granularity Granularity
	Picker      FilePicker
	// MaxLevels bounds the tree depth (the final level absorbs overflow).
	MaxLevels int
}

// Validate checks that the picker can plan for the shape. It fills in
// nothing: the engine resolves every field from core.Knobs first.
func (s Shape) Validate() error {
	switch {
	case s.SizeRatio < 2:
		return fmt.Errorf("compaction: size ratio %d < 2", s.SizeRatio)
	case s.K < 1 || s.K >= s.SizeRatio || s.Z < 1 || s.Z >= s.SizeRatio:
		return fmt.Errorf("compaction: run budgets K=%d Z=%d outside 1..T-1 (T=%d)", s.K, s.Z, s.SizeRatio)
	case s.L0Trigger < 1 || s.BaseBytes == 0 || s.MaxLevels < 2:
		return fmt.Errorf("compaction: L0 trigger %d, base %d bytes, %d levels: want >= 1, > 0, >= 2", s.L0Trigger, s.BaseBytes, s.MaxLevels)
	case s.Granularity == SingleFile && s.K != 1:
		return fmt.Errorf("compaction: single-file granularity requires K=1, have K=%d", s.K)
	}
	return nil
}

// LevelCapacity returns the byte capacity of storage level i (level 0 is
// capped by run count, not bytes).
func (s Shape) LevelCapacity(i int) uint64 {
	if i <= 0 {
		return 0
	}
	c := s.BaseBytes
	for j := 1; j < i; j++ {
		c *= uint64(s.SizeRatio)
	}
	return c
}

// MaxRuns returns the run budget of level i given the deepest populated
// level.
func (s Shape) MaxRuns(i, lastLevel int) int {
	if i == 0 {
		return s.L0Trigger
	}
	if i >= lastLevel {
		return s.Z
	}
	return s.K
}

// Task describes one compaction to execute.
type Task struct {
	// FromLevel is the source level.
	FromLevel int
	// InputFiles are the source files to merge (grouped per run in
	// planning order; the executor merges them all).
	InputFiles []*manifest.FileMeta
	// TargetLevel receives the output.
	TargetLevel int
	// TargetFiles are the overlapping files in TargetLevel that must join
	// the merge (empty when the output is installed as a fresh run —
	// tiered movement).
	TargetFiles []*manifest.FileMeta
	// FreshRun reports whether the output forms a new run in TargetLevel
	// (true) or replaces TargetFiles within the level's first run (false).
	FreshRun bool
	// Score is the pressure score of the source level at planning time
	// (1.0 = exactly at budget); the scheduler orders candidates by it.
	Score float64
	// Reason is a human-readable trigger description for logs.
	Reason string
}

// Levels returns the set of levels the task touches: its source and its
// target. Two tasks whose level sets intersect must never run
// concurrently — they could read files the other is deleting, or install
// overlapping outputs into the same run.
func (t *Task) Levels() []int {
	if t.FromLevel == t.TargetLevel {
		return []int{t.FromLevel}
	}
	return []int{t.FromLevel, t.TargetLevel}
}

// InputBytes returns the total bytes the task reads.
func (t *Task) InputBytes() uint64 {
	var s uint64
	for _, f := range t.InputFiles {
		s += f.Size
	}
	for _, f := range t.TargetFiles {
		s += f.Size
	}
	return s
}

// Overlaps reports whether key ranges [aLo,aHi] and [bLo,bHi] intersect.
func Overlaps(aLo, aHi, bLo, bHi []byte) bool {
	return bytes.Compare(aLo, bHi) <= 0 && bytes.Compare(bLo, aHi) <= 0
}

// OverlappingFiles returns the files of run intersecting [lo, hi].
func OverlappingFiles(run manifest.Run, lo, hi []byte) []*manifest.FileMeta {
	var out []*manifest.FileMeta
	for _, f := range run.Files {
		if Overlaps(lo, hi, f.Smallest, f.Largest) {
			out = append(out, f)
		}
	}
	return out
}
