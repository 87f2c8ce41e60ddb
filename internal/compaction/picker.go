package compaction

import (
	"bytes"
	"fmt"
	"sort"

	"lsmkv/internal/manifest"
)

// Picker plans compactions for a tree shaped by Shape. It is stateful only
// for the round-robin cursor; all tree state arrives as the manifest's levels.
type Picker struct {
	shape Shape
	// rrCursor remembers, per level, the largest key of the last
	// single-file compaction so round-robin picking cycles the key space.
	rrCursor map[int][]byte
}

// NewPicker validates the shape and returns a planner.
func NewPicker(shape Shape) (*Picker, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &Picker{shape: shape, rrCursor: make(map[int][]byte)}, nil
}

// lastPopulated returns the deepest level index holding data, or 0.
func lastPopulated(levels []manifest.Level) int {
	last := 0
	for i, l := range levels {
		if len(l.Runs) > 0 {
			last = i
		}
	}
	return last
}

// PickUnder returns the most urgent compaction task accepted by admit, or
// nil when no over-budget level yields an acceptable task. A nil admit
// accepts everything. levels[0] is the first storage level (flushed
// runs); deeper levels follow. Candidate levels are ordered by priority:
// level 0 first (an overloaded L0 stalls writers, so its relief preempts
// everything), then deeper levels by descending pressure score — except
// that an over-budget merge target is always drained before its source
// (the cascade rule below). The Scheduler uses admit to skip tasks
// conflicting with in-flight jobs, so the planner is only invoked for
// levels actually considered — the round-robin cursor never advances for
// a level whose task was not taken.
func (p *Picker) PickUnder(levels []manifest.Level, admit func(*Task) bool) *Task {
	if len(levels) == 0 {
		return nil
	}
	last := lastPopulated(levels)

	type scored struct {
		level int
		score float64
	}
	var over []scored
	for i := 0; i <= last && i < len(levels); i++ {
		l := levels[i]
		if len(l.Runs) == 0 {
			continue
		}
		// Run-count pressure applies everywhere. Size pressure applies
		// only to leveled levels (run budget 1) that still have somewhere
		// to push data: tiered levels move on run count alone, as in
		// classic tiering.
		maxRuns := p.shape.MaxRuns(i, last)
		score := float64(len(l.Runs)) / float64(maxRuns)
		if i > 0 && i < p.shape.MaxLevels-1 && maxRuns == 1 {
			if sz := float64(l.Size()) / float64(p.shape.LevelCapacity(i)); sz > score {
				score = sz
			}
		}
		if score > 1.0 {
			over = append(over, scored{i, score})
		}
	}
	sort.Slice(over, func(a, b int) bool {
		sa, sb := over[a], over[b]
		if (sa.level == 0) != (sb.level == 0) {
			return sa.level == 0
		}
		if sa.score != sb.score {
			return sa.score > sb.score
		}
		return sa.level < sb.level
	})
	// Cascade rule: a *leveled* merge into a target that is itself over
	// budget only grows the run it must rewrite — and under concurrent
	// workers it starves the target's own compaction outright, because
	// the merge claims the target level and the top-priority source (L0
	// above all) re-claims it the moment it is released, so the target
	// balloons and every rewrite gets slower. So within every run of
	// adjacent over-budget levels joined by leveled moves, drain
	// deepest-first; chains keep their head's priority relative to other
	// candidates, and the scheduler's admit callback still lets disjoint
	// chain segments (L0->L1 alongside L2->L3) run in parallel. Tiered
	// moves are exempt: they append a fresh run without rewriting the
	// target, and reordering them just forces premature self-merges.
	leveledInto := func(i int) bool {
		target := i + 1
		budget := p.shape.K
		if target >= last || target == p.shape.MaxLevels-1 {
			budget = p.shape.Z
		}
		return budget == 1
	}
	inSet := make(map[int]bool, len(over))
	byLevel := make(map[int]scored, len(over))
	for _, s := range over {
		inSet[s.level] = true
		byLevel[s.level] = s
	}
	placed := make(map[int]bool, len(over))
	ordered := make([]scored, 0, len(over))
	for _, s := range over {
		if placed[s.level] {
			continue
		}
		top := s.level
		for inSet[top+1] && !placed[top+1] && leveledInto(top) {
			top++
		}
		for l := top; l >= s.level; l-- {
			ordered = append(ordered, byLevel[l])
			placed[l] = true
		}
	}
	over = ordered
	// blocked marks candidates that could not run this round; a shallower
	// chain member must not fall through past its blocked target — merging
	// into an over-budget run only deepens the hole, and (worse) the
	// merge's bandwidth demand would starve the very job holding the
	// target's claim. Refusing keeps the chain's head idle until the
	// blocker finishes, at which point the cascade drains it for real.
	// Chains are placed deepest-first above, so a member's target verdict
	// is always known before the member itself is considered.
	blocked := make(map[int]bool)
	for _, s := range over {
		if inSet[s.level+1] && blocked[s.level+1] && leveledInto(s.level) {
			blocked[s.level] = true
			continue
		}
		t := p.planLevel(levels, s.level, last)
		if t == nil {
			blocked[s.level] = true
			continue
		}
		t.Score = s.score
		if admit == nil || admit(t) {
			return t
		}
		blocked[s.level] = true
	}
	return nil
}

// planLevel builds the task that relieves level i.
func (p *Picker) planLevel(levels []manifest.Level, i, last int) *Task {
	src := levels[i]

	if i == p.shape.MaxLevels-1 {
		// The deepest allowed level self-merges its runs into one.
		t := &Task{
			FromLevel:   i,
			TargetLevel: i,
			FreshRun:    true,
			Reason:      fmt.Sprintf("L%d bottom self-merge (%d runs)", i, len(src.Runs)),
		}
		for _, r := range src.Runs {
			t.InputFiles = append(t.InputFiles, r.Files...)
		}
		return t
	}

	target := i + 1
	// The run budget of the *target* decides the movement policy: a
	// budget of 1 merges into the target's resident run (leveled move);
	// more than 1 installs the output as a fresh run (tiered move). The
	// target counts as "last" when it is at or beyond the deepest
	// populated level, or is the deepest allowed level.
	budget := p.shape.K
	if target >= last || target == p.shape.MaxLevels-1 {
		budget = p.shape.Z
	}

	// Partial compaction path: single-file granularity with a leveled
	// source and leveled target.
	if p.shape.Granularity == SingleFile && i > 0 && len(src.Runs) == 1 && budget == 1 {
		return p.planSingleFile(levels, i, target)
	}

	t := &Task{
		FromLevel:   i,
		TargetLevel: target,
		Reason:      fmt.Sprintf("L%d overflow (%d runs, %d bytes)", i, len(src.Runs), src.Size()),
	}
	var lo, hi []byte
	for _, r := range src.Runs {
		for _, f := range r.Files {
			t.InputFiles = append(t.InputFiles, f)
			if lo == nil || bytes.Compare(f.Smallest, lo) < 0 {
				lo = f.Smallest
			}
			if hi == nil || bytes.Compare(f.Largest, hi) > 0 {
				hi = f.Largest
			}
		}
	}
	if len(t.InputFiles) == 0 {
		return nil
	}
	if budget == 1 {
		if target < len(levels) && len(levels[target].Runs) > 0 {
			t.TargetFiles = OverlappingFiles(levels[target].Runs[0], lo, hi)
			t.FreshRun = false
		} else {
			t.FreshRun = true
		}
	} else {
		t.FreshRun = true
	}
	return t
}

// planSingleFile picks one source file per the movement policy and merges
// it with its overlap in the target level.
func (p *Picker) planSingleFile(levels []manifest.Level, i, target int) *Task {
	files := levels[i].Runs[0].Files
	if len(files) == 0 {
		return nil
	}
	var targetRun manifest.Run
	if target < len(levels) && len(levels[target].Runs) > 0 {
		targetRun = levels[target].Runs[0]
	}

	pick := 0
	switch p.shape.Picker {
	case PickMinOverlap:
		best := ^uint64(0)
		for j, f := range files {
			var ov uint64
			for _, tf := range OverlappingFiles(targetRun, f.Smallest, f.Largest) {
				ov += tf.Size
			}
			if ov < best {
				best = ov
				pick = j
			}
		}
	case PickMostTombstones:
		best := -1.0
		for j, f := range files {
			var d float64
			if f.Entries > 0 {
				d = float64(f.Tombstones) / float64(f.Entries)
			}
			if d > best {
				best = d
				pick = j
			}
		}
	case PickOldest:
		oldest := ^uint64(0)
		for j, f := range files {
			if f.CreatedAt < oldest {
				oldest = f.CreatedAt
				pick = j
			}
		}
	default: // round-robin
		cursor := p.rrCursor[i]
		pick = 0
		found := false
		for j, f := range files {
			if cursor == nil || bytes.Compare(f.Smallest, cursor) > 0 {
				pick = j
				found = true
				break
			}
		}
		if !found {
			pick = 0 // wrap around
		}
		p.rrCursor[i] = append([]byte(nil), files[pick].Largest...)
	}

	f := files[pick]
	return &Task{
		FromLevel:   i,
		InputFiles:  []*manifest.FileMeta{f},
		TargetLevel: target,
		TargetFiles: OverlappingFiles(targetRun, f.Smallest, f.Largest),
		FreshRun:    len(targetRun.Files) == 0,
		Reason:      fmt.Sprintf("L%d partial (%s picker, file %d)", i, p.shape.Picker, f.Num),
	}
}
