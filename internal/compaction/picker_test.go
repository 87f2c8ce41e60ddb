package compaction

import (
	"fmt"
	"testing"

	"lsmkv/internal/manifest"
)

// sim is a structural simulator: it applies picker tasks to synthetic
// level views, tracking bytes moved (write amplification) without real
// I/O. Keys are fixed-width decimal strings over a circular key space.
type sim struct {
	t       *testing.T
	picker  *Picker
	levels  []manifest.Level
	nextNum uint64
	nextSeq uint64
	moved   uint64 // bytes written by compactions
	flushed uint64 // bytes written by flushes
}

func newSim(t *testing.T, shape Shape) *sim {
	p, err := NewPicker(shape)
	if err != nil {
		t.Fatal(err)
	}
	return &sim{
		t:      t,
		picker: p,
		levels: make([]manifest.Level, p.Shape().MaxLevels),
	}
}

// flush adds one full-key-space run of the given size to level 0.
func (s *sim) flush(size uint64) {
	s.nextNum++
	s.nextSeq++
	f := &manifest.FileMeta{
		Num:       s.nextNum,
		Size:      size,
		Smallest:  []byte("00000000"),
		Largest:   []byte("99999999"),
		Entries:   size / 100,
		CreatedAt: s.nextSeq,
	}
	s.levels[0].Runs = append(s.levels[0].Runs, manifest.Run{Files: []*manifest.FileMeta{f}})
	s.flushed += size
	s.drain()
}

// drain applies compactions until the shape is satisfied.
func (s *sim) drain() {
	for steps := 0; ; steps++ {
		if steps > 10000 {
			s.t.Fatal("compaction did not converge")
		}
		task := s.picker.Pick(s.levels)
		if task == nil {
			return
		}
		s.apply(task)
	}
}

// apply merges the task's inputs into one output file view and installs
// it per the task semantics.
func (s *sim) apply(t *Task) {
	var outSize uint64
	drop := map[uint64]bool{}
	for _, f := range t.InputFiles {
		outSize += f.Size
		drop[f.Num] = true
	}
	for _, f := range t.TargetFiles {
		outSize += f.Size
		drop[f.Num] = true
	}
	// Model update collapse: merging overlapping full-range runs discards
	// duplicate versions; approximate with a cap at the ideal level size.
	s.moved += outSize
	s.nextNum++
	s.nextSeq++
	out := &manifest.FileMeta{
		Num:       s.nextNum,
		Size:      outSize,
		Smallest:  []byte("00000000"),
		Largest:   []byte("99999999"),
		Entries:   outSize / 100,
		CreatedAt: s.nextSeq,
	}

	// Remove dropped files from every level, dropping empty runs.
	for li := range s.levels {
		var runs []manifest.Run
		for _, r := range s.levels[li].Runs {
			var files []*manifest.FileMeta
			for _, f := range r.Files {
				if !drop[f.Num] {
					files = append(files, f)
				}
			}
			if len(files) > 0 {
				runs = append(runs, manifest.Run{Files: files})
			}
		}
		s.levels[li].Runs = runs
	}
	// Install output.
	tl := &s.levels[t.TargetLevel]
	if t.FreshRun || len(tl.Runs) == 0 {
		tl.Runs = append(tl.Runs, manifest.Run{Files: []*manifest.FileMeta{out}})
	} else {
		tl.Runs[0].Files = append(tl.Runs[0].Files, out)
	}
}

func (s *sim) runCounts() []int {
	out := make([]int, len(s.levels))
	for i, l := range s.levels {
		out[i] = len(l.Runs)
	}
	return out
}

func (s *sim) writeAmp() float64 {
	if s.flushed == 0 {
		return 0
	}
	return float64(s.flushed+s.moved) / float64(s.flushed)
}

func shapes(T int) map[string]Shape {
	return map[string]Shape{
		"leveling": {SizeRatio: T, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10, MaxLevels: 6},
		"tiering":  {SizeRatio: T, K: T - 1, Z: T - 1, L0Trigger: 2, BaseBytes: 4 << 10, MaxLevels: 6},
		"lazy":     {SizeRatio: T, K: T - 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10, MaxLevels: 6},
	}
}

func TestShapesMaintainRunBudgets(t *testing.T) {
	for name, shape := range shapes(4) {
		t.Run(name, func(t *testing.T) {
			s := newSim(t, shape)
			for i := 0; i < 200; i++ {
				s.flush(2 << 10)
				counts := s.runCounts()
				last := lastPopulated(s.levels)
				for li, c := range counts {
					budget := shape.L0Trigger
					if li > 0 {
						if li >= last {
							budget = shape.Z
						} else {
							budget = shape.K
						}
					}
					if c > budget {
						t.Fatalf("after flush %d: level %d has %d runs, budget %d (%v)",
							i, li, c, budget, counts)
					}
				}
			}
		})
	}
}

func TestWriteAmpOrdering(t *testing.T) {
	// The tutorial's central tradeoff: tiering writes less than lazy
	// leveling, which writes less than leveling.
	amps := map[string]float64{}
	for name, shape := range shapes(4) {
		s := newSim(t, shape)
		for i := 0; i < 300; i++ {
			s.flush(2 << 10)
		}
		amps[name] = s.writeAmp()
	}
	if !(amps["tiering"] < amps["lazy"] && amps["lazy"] <= amps["leveling"]) {
		t.Errorf("write amp ordering violated: %v", amps)
	}
}

func TestReadCostOrdering(t *testing.T) {
	// Run count (what a zero-result point lookup probes) must order the
	// opposite way from write amp: leveling <= lazy <= tiering. A single
	// post-drain snapshot is noisy, so compare the average over the whole
	// workload.
	runs := map[string]float64{}
	lastLevelRuns := map[string]float64{}
	for name, shape := range shapes(4) {
		s := newSim(t, shape)
		total, lastTotal := 0, 0
		const flushes = 300
		for i := 0; i < flushes; i++ {
			s.flush(2 << 10)
			counts := s.runCounts()
			for _, c := range counts {
				total += c
			}
			lastTotal += counts[lastPopulated(s.levels)]
		}
		runs[name] = float64(total) / flushes
		lastLevelRuns[name] = float64(lastTotal) / flushes
	}
	// Leveling probes the fewest runs.
	if !(runs["leveling"] <= runs["lazy"] && runs["leveling"] <= runs["tiering"]) {
		t.Errorf("leveling not cheapest to read: %v", runs)
	}
	// Lazy leveling's defining structural property: its last level stays
	// a single run while tiering's accumulates several. (The total-count
	// lazy-vs-tiering comparison depends on duplicate collapse, which the
	// structural sim does not model; the engine-level E2 bench measures
	// it.)
	if lastLevelRuns["lazy"] >= lastLevelRuns["tiering"] {
		t.Errorf("lazy last level (%v runs avg) not below tiering (%v)",
			lastLevelRuns["lazy"], lastLevelRuns["tiering"])
	}
}

func TestHigherSizeRatioLowersRunCountUnderTiering(t *testing.T) {
	totalRuns := func(T int) int {
		shape := Shape{SizeRatio: T, K: T - 1, Z: T - 1, L0Trigger: 2, BaseBytes: 4 << 10, MaxLevels: 6}
		s := newSim(t, shape)
		for i := 0; i < 200; i++ {
			s.flush(2 << 10)
		}
		n := 0
		for _, c := range s.runCounts() {
			n += c
		}
		return n
	}
	// Larger T means fewer levels; under tiering the worst-case run count
	// per level grows but depth shrinks. Just verify both settle and the
	// structures differ — the full tradeoff is exercised in E1.
	a, b := totalRuns(3), totalRuns(8)
	if a <= 0 || b <= 0 {
		t.Errorf("degenerate run counts: T=3 %d, T=8 %d", a, b)
	}
}

func TestSingleFileGranularityMovesOneFile(t *testing.T) {
	shape := Shape{
		SizeRatio: 4, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10,
		MaxLevels: 6, Granularity: SingleFile, Picker: PickMinOverlap,
	}
	p, err := NewPicker(shape)
	if err != nil {
		t.Fatal(err)
	}
	mkFile := func(num uint64, lo, hi string, size uint64) *manifest.FileMeta {
		return &manifest.FileMeta{Num: num, Size: size, Smallest: []byte(lo), Largest: []byte(hi), Entries: 10, CreatedAt: num}
	}
	levels := make([]manifest.Level, 6)
	// Level 1 oversized with three files; level 2 has overlap for two.
	levels[1].Runs = []manifest.Run{{Files: []*manifest.FileMeta{
		mkFile(1, "a", "c", 8<<10),
		mkFile(2, "d", "f", 8<<10),
		mkFile(3, "g", "i", 8<<10),
	}}}
	levels[2].Runs = []manifest.Run{{Files: []*manifest.FileMeta{
		mkFile(4, "a", "b", 4<<10),
		mkFile(5, "e", "h", 4<<10),
	}}}
	task := p.Pick(levels)
	if task == nil {
		t.Fatal("expected a task for oversized L1")
	}
	if len(task.InputFiles) != 1 {
		t.Fatalf("single-file granularity moved %d files", len(task.InputFiles))
	}
	if task.FromLevel != 1 || task.TargetLevel != 2 {
		t.Fatalf("unexpected levels: %d -> %d", task.FromLevel, task.TargetLevel)
	}
}

func TestMinOverlapPicksCheapestFile(t *testing.T) {
	shape := Shape{
		SizeRatio: 4, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10,
		MaxLevels: 6, Granularity: SingleFile, Picker: PickMinOverlap,
	}
	p, _ := NewPicker(shape)
	levels := make([]manifest.Level, 6)
	levels[1].Runs = []manifest.Run{{Files: []*manifest.FileMeta{
		{Num: 1, Size: 8 << 10, Smallest: []byte("a"), Largest: []byte("c"), CreatedAt: 1},
		{Num: 2, Size: 8 << 10, Smallest: []byte("d"), Largest: []byte("f"), CreatedAt: 2},
	}}}
	// Level 2 stays under its capacity so level 1 is the urgent one.
	levels[2].Runs = []manifest.Run{{Files: []*manifest.FileMeta{
		{Num: 3, Size: 8 << 10, Smallest: []byte("a"), Largest: []byte("c"), CreatedAt: 3},
	}}}
	task := p.Pick(levels)
	if task == nil {
		t.Fatal("expected task")
	}
	// File 2 has zero overlap; min-overlap must pick it.
	if task.InputFiles[0].Num != 2 {
		t.Errorf("min-overlap picked file %d, want 2", task.InputFiles[0].Num)
	}
	if len(task.TargetFiles) != 0 {
		t.Errorf("picked file should have no target overlap, got %d files", len(task.TargetFiles))
	}
}

func TestMostTombstonesPicker(t *testing.T) {
	shape := Shape{
		SizeRatio: 4, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10,
		MaxLevels: 6, Granularity: SingleFile, Picker: PickMostTombstones,
	}
	p, _ := NewPicker(shape)
	levels := make([]manifest.Level, 6)
	levels[1].Runs = []manifest.Run{{Files: []*manifest.FileMeta{
		{Num: 1, Size: 8 << 10, Smallest: []byte("a"), Largest: []byte("c"), Entries: 100, Tombstones: 5, CreatedAt: 1},
		{Num: 2, Size: 8 << 10, Smallest: []byte("d"), Largest: []byte("f"), Entries: 100, Tombstones: 90, CreatedAt: 2},
	}}}
	task := p.Pick(levels)
	if task == nil || task.InputFiles[0].Num != 2 {
		t.Errorf("most-tombstones must pick file 2, got %+v", task)
	}
}

func TestOldestPicker(t *testing.T) {
	shape := Shape{
		SizeRatio: 4, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10,
		MaxLevels: 6, Granularity: SingleFile, Picker: PickOldest,
	}
	p, _ := NewPicker(shape)
	levels := make([]manifest.Level, 6)
	levels[1].Runs = []manifest.Run{{Files: []*manifest.FileMeta{
		{Num: 5, Size: 8 << 10, Smallest: []byte("a"), Largest: []byte("c"), CreatedAt: 9},
		{Num: 6, Size: 8 << 10, Smallest: []byte("d"), Largest: []byte("f"), CreatedAt: 2},
	}}}
	task := p.Pick(levels)
	if task == nil || task.InputFiles[0].Num != 6 {
		t.Errorf("oldest must pick file 6 (seq 2), got %+v", task)
	}
}

func TestRoundRobinCursorCycles(t *testing.T) {
	shape := Shape{
		SizeRatio: 4, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10,
		MaxLevels: 6, Granularity: SingleFile, Picker: PickRoundRobin,
	}
	p, _ := NewPicker(shape)
	levels := make([]manifest.Level, 6)
	levels[1].Runs = []manifest.Run{{Files: []*manifest.FileMeta{
		{Num: 1, Size: 8 << 10, Smallest: []byte("a"), Largest: []byte("c"), CreatedAt: 1},
		{Num: 2, Size: 8 << 10, Smallest: []byte("d"), Largest: []byte("f"), CreatedAt: 2},
		{Num: 3, Size: 8 << 10, Smallest: []byte("g"), Largest: []byte("i"), CreatedAt: 3},
	}}}
	var picked []uint64
	for i := 0; i < 3; i++ {
		task := p.Pick(levels)
		if task == nil {
			t.Fatal("expected task")
		}
		picked = append(picked, task.InputFiles[0].Num)
	}
	if picked[0] == picked[1] && picked[1] == picked[2] {
		t.Errorf("round-robin picked the same file thrice: %v", picked)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	good := Shape{SizeRatio: 4, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 1 << 10, MaxLevels: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nothing is filled in or clamped: a zero shape, a ratio below 2, run
	// budgets past T-1 and single-file planning with K>1 are all errors.
	for name, bad := range map[string]func(s *Shape){
		"zero":            func(s *Shape) { *s = Shape{} },
		"ratio":           func(s *Shape) { s.SizeRatio = 1 },
		"K past T-1":      func(s *Shape) { s.K = 4 },
		"Z past T-1":      func(s *Shape) { s.Z = 99 },
		"no L0 trigger":   func(s *Shape) { s.L0Trigger = 0 },
		"one level":       func(s *Shape) { s.MaxLevels = 1 },
		"single-file K>1": func(s *Shape) { s.K, s.Granularity = 3, SingleFile },
	} {
		s := good
		bad(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, s)
		}
	}
}

func TestLevelCapacityGeometric(t *testing.T) {
	s := Shape{SizeRatio: 10, BaseBytes: 1 << 20}
	if got := s.LevelCapacity(1); got != 1<<20 {
		t.Errorf("L1 capacity %d", got)
	}
	if got := s.LevelCapacity(3); got != 100<<20 {
		t.Errorf("L3 capacity %d", got)
	}
	if got := s.LevelCapacity(0); got != 0 {
		t.Errorf("L0 capacity %d", got)
	}
}

func TestEmptyTreeNoTask(t *testing.T) {
	p, _ := NewPicker(Shape{SizeRatio: 4, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10, MaxLevels: 4})
	if task := p.Pick(make([]manifest.Level, 4)); task != nil {
		t.Errorf("empty tree produced task: %+v", task)
	}
	if task := p.Pick(nil); task != nil {
		t.Errorf("nil levels produced task: %+v", task)
	}
}

func TestBottomLevelSelfMerge(t *testing.T) {
	shape := Shape{SizeRatio: 4, K: 3, Z: 3, L0Trigger: 2, BaseBytes: 1 << 10, MaxLevels: 3}
	p, _ := NewPicker(shape)
	levels := make([]manifest.Level, 3)
	// Deepest allowed level exceeds its run budget.
	for i := 0; i < 4; i++ {
		levels[2].Runs = append(levels[2].Runs, manifest.Run{Files: []*manifest.FileMeta{
			{Num: uint64(i + 1), Size: 1 << 20, Smallest: []byte("a"), Largest: []byte("z"), CreatedAt: uint64(i + 1)},
		}})
	}
	task := p.Pick(levels)
	if task == nil {
		t.Fatal("expected bottom self-merge")
	}
	if task.FromLevel != 2 || task.TargetLevel != 2 || !task.FreshRun {
		t.Errorf("unexpected task: %+v", task)
	}
	if len(task.InputFiles) != 4 {
		t.Errorf("self-merge must take all runs, got %d", len(task.InputFiles))
	}
}

func TestOverlapHelpers(t *testing.T) {
	if !Overlaps([]byte("a"), []byte("c"), []byte("b"), []byte("d")) {
		t.Error("overlapping ranges reported disjoint")
	}
	if Overlaps([]byte("a"), []byte("b"), []byte("c"), []byte("d")) {
		t.Error("disjoint ranges reported overlapping")
	}
	// Touching endpoints overlap (inclusive bounds).
	if !Overlaps([]byte("a"), []byte("b"), []byte("b"), []byte("c")) {
		t.Error("touching ranges must overlap")
	}
	run := manifest.Run{Files: []*manifest.FileMeta{
		{Num: 1, Smallest: []byte("a"), Largest: []byte("c")},
		{Num: 2, Smallest: []byte("d"), Largest: []byte("f")},
		{Num: 3, Smallest: []byte("g"), Largest: []byte("i")},
	}}
	got := OverlappingFiles(run, []byte("e"), []byte("h"))
	if len(got) != 2 || got[0].Num != 2 || got[1].Num != 3 {
		t.Errorf("OverlappingFiles returned %+v", got)
	}
}

func TestTaskInputBytes(t *testing.T) {
	task := Task{
		InputFiles:  []*manifest.FileMeta{{Size: 100}, {Size: 200}},
		TargetFiles: []*manifest.FileMeta{{Size: 300}},
	}
	if got := task.InputBytes(); got != 600 {
		t.Errorf("InputBytes=%d want 600", got)
	}
}

func TestSimWriteAmpGrowsWithGreedierMerging(t *testing.T) {
	// Within leveling, write amplification behaves as (T+1)/2 per level
	// over log_T(N) levels, i.e. proportional to (T+1)/ln T — increasing
	// for T beyond ~2.6. Compare two points on the increasing side: T=16
	// must amplify more than T=4. (T=2 vs T=8 would be a wash: the
	// coefficient (T+1)/ln T is coincidentally equal at those points.)
	// Deep MaxLevels so the T=2 tree is not truncated by the level cap.
	amp := func(T int) float64 {
		shape := Shape{SizeRatio: T, K: 1, Z: 1, L0Trigger: 2, BaseBytes: 4 << 10, MaxLevels: 12}
		s := newSim(t, shape)
		// Enough flushes that the deepest level cycles several times and
		// the asymptotic T·L/2 behavior dominates the warm-up.
		for i := 0; i < 3000; i++ {
			s.flush(2 << 10)
		}
		return s.writeAmp()
	}
	small, large := amp(4), amp(16)
	if large <= small {
		t.Errorf("write amp at T=16 (%.1f) not above T=4 (%.1f)", large, small)
	}
}

func ExamplePicker() {
	shape := Shape{SizeRatio: 4, K: 1, Z: 1, L0Trigger: 1, BaseBytes: 1 << 10, MaxLevels: 4}
	p, _ := NewPicker(shape)
	levels := make([]manifest.Level, 4)
	levels[0].Runs = []manifest.Run{
		{Files: []*manifest.FileMeta{{Num: 1, Size: 512, Smallest: []byte("a"), Largest: []byte("m"), CreatedAt: 1}}},
		{Files: []*manifest.FileMeta{{Num: 2, Size: 512, Smallest: []byte("k"), Largest: []byte("z"), CreatedAt: 2}}},
	}
	task := p.Pick(levels)
	fmt.Printf("L%d -> L%d files=%d fresh=%v\n",
		task.FromLevel, task.TargetLevel, len(task.InputFiles), task.FreshRun)
	// Output: L0 -> L1 files=2 fresh=true
}
