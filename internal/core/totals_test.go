package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lsmkv/internal/compaction"
	"lsmkv/internal/filter"
	"lsmkv/internal/manifest"
)

// walkFilterPolicy is the filter policy a table build got when every
// pricing walked the version's tables: the level specs skip the files in
// exclude (the job's inputs and targets), the arriving keys join level,
// and Monkey allocates the average budget over the result. It is kept
// here as the reference writerOptionsForLevel must equal bit for bit.
func walkFilterPolicy(v *version, o *Options, level, arriving int, exclude map[uint64]bool) filter.Policy {
	fp := filter.Policy{Kind: o.Filter, BitsPerKey: o.BitsPerKey}
	if fp.Kind == filter.KindNone {
		return fp
	}
	bits := o.BitsPerKey
	if o.MonkeyFilters {
		specs := make([]filter.LevelSpec, len(v.levels))
		for i, lv := range v.levels {
			specs[i].Runs = len(lv)
			for _, r := range lv {
				for _, t := range r.tables {
					if !exclude[t.meta.Num] {
						specs[i].Keys += int64(t.meta.Entries)
					}
				}
			}
		}
		for len(specs) <= level {
			specs = append(specs, filter.LevelSpec{})
		}
		specs[level].Keys += int64(arriving)
		if specs[level].Runs == 0 {
			specs[level].Runs = 1
		}
		var total int64
		for _, s := range specs {
			total += s.Keys
		}
		if total > 0 {
			if alloc := filter.MonkeyAllocation(specs, o.BitsPerKey*float64(total)); level < len(alloc) {
				bits = alloc[level]
			}
		}
	}
	if bits <= 0 && o.MonkeyFilters {
		return filter.Policy{Kind: filter.KindNone}
	}
	if bits > 0 {
		fp.BitsPerKey = bits
	}
	return fp
}

// randomTree returns a manifest state of random levels, runs and entry
// counts — one run per level below level 0 when leveled, several when
// tiered — and a version listing a handle for each of its files, so
// buildVersion over it opens nothing.
func randomTree(rng *rand.Rand, db *DB, tiered bool) (*manifest.State, *version) {
	state := &manifest.State{Levels: make([]manifest.Level, 1+rng.Intn(db.opts.MaxLevels))}
	prev := &run{}
	num := uint64(0)
	for li := range state.Levels {
		runs, files := rng.Intn(5), 1
		if li > 0 && !tiered {
			runs, files = rng.Intn(2), 1+rng.Intn(6)
		} else if tiered {
			files = 1 + rng.Intn(3)
		}
		for range runs {
			var r manifest.Run
			for range files {
				num++
				entries := uint64(rng.Intn(200000))
				if rng.Intn(10) == 0 {
					entries = 0
				}
				meta := &manifest.FileMeta{Num: num, Entries: entries, Size: entries * 40}
				r.Files = append(r.Files, meta)
				prev.tables = append(prev.tables, &tableHandle{meta: meta, db: db})
			}
			state.Levels[li].Runs = append(state.Levels[li].Runs, r)
		}
	}
	return state, &version{levels: [][]*run{{prev}}, db: db}
}

// randomTask draws a job over v's files: a nonempty subset of one
// populated level's files as inputs, and a subset of the target level's
// other files as targets. It returns nil, a flush, a quarter of the time
// or when the tree is empty.
func randomTask(rng *rand.Rand, v *version, maxLevels int) *compaction.Task {
	var populated []int
	for li, lv := range v.levels {
		if len(lv) > 0 {
			populated = append(populated, li)
		}
	}
	if len(populated) == 0 || rng.Intn(4) == 0 {
		return nil
	}
	filesOf := func(li int) (out []*manifest.FileMeta) {
		for _, r := range v.levels[li] {
			for _, t := range r.tables {
				out = append(out, t.meta)
			}
		}
		return out
	}
	task := &compaction.Task{FromLevel: populated[rng.Intn(len(populated))]}
	task.TargetLevel = min(task.FromLevel+rng.Intn(2), maxLevels-1)
	in := filesOf(task.FromLevel)
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	task.InputFiles = in[:1+rng.Intn(len(in))]
	for _, f := range filesOf(task.TargetLevel) {
		if !slices.Contains(task.InputFiles, f) && rng.Intn(2) == 0 {
			task.TargetFiles = append(task.TargetFiles, f)
		}
	}
	return task
}

// TestMonkeyBudgetMatchesTreeWalk prices 1,200 random table builds —
// leveled and tiered trees, random target levels and arriving counts,
// random tasks and flushes — from the version's level totals, and
// requires the filter policy of the walk that skipped the job's files,
// bit for bit.
func TestMonkeyBudgetMatchesTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	monkeyed := 0
	for trial := range 1200 {
		tiered := trial%2 == 1
		db := &DB{opts: Options{Design: Design{
			Filter: filter.KindBloom, BitsPerKey: 1 + 15*rng.Float64(),
			MonkeyFilters: trial%10 != 0, MaxLevels: 2 + rng.Intn(6),
		}}}
		state, prev := randomTree(rng, db, tiered)
		v, err := db.buildVersion(state, prev)
		if err != nil {
			t.Fatal(err)
		}
		db.current = v
		task := randomTask(rng, v, db.opts.MaxLevels)
		level := rng.Intn(len(v.levels) + 1) // a flush's level, or a brand-new deepest one
		exclude := map[uint64]bool{}
		if task != nil {
			level = task.TargetLevel
			for _, f := range slices.Concat(task.InputFiles, task.TargetFiles) {
				exclude[f.Num] = true
			}
		}
		arriving := rng.Intn(400000)
		if rng.Intn(8) == 0 {
			arriving = 0
		}
		got := db.writerOptionsForLevel(level, arriving, task).Filter
		want := walkFilterPolicy(v, &db.opts, level, arriving, exclude)
		if got.Kind != want.Kind || math.Float64bits(got.BitsPerKey) != math.Float64bits(want.BitsPerKey) {
			t.Fatalf("trial %d (tiered=%v, level %d, arriving %d, task %+v): policy %+v, the walk gave %+v",
				trial, tiered, level, arriving, task, got, want)
		}
		if want.BitsPerKey != db.opts.BitsPerKey {
			monkeyed++
		}
	}
	if monkeyed < 600 {
		t.Errorf("only %d of 1200 trials moved the budget off the average; the sample misses Monkey", monkeyed)
	}
}

// walkTotals totals v's levels and resident index bytes by visiting
// every table, as Levels and IndexMemory did before the version carried
// its totals.
func walkTotals(v *version) ([]LevelInfo, int) {
	var out []LevelInfo
	index := 0
	for i, lv := range v.levels {
		info := LevelInfo{Level: i, Runs: len(lv)}
		for _, r := range lv {
			info.Files += len(r.tables)
			for _, t := range r.tables {
				info.Bytes += t.meta.Size
				info.Entries += t.meta.Entries
				info.Tombstones += t.meta.Tombstones
				index += t.reader.ApproxIndexMemory()
			}
		}
		out = append(out, info)
	}
	return out, index
}

// walkDebt is the compaction debt of v under shape, summed table by
// table as the gauge was on every install: all of level 0 plus each
// deeper level's bytes over its capacity.
func walkDebt(v *version, shape compaction.Shape) int64 {
	var debt int64
	for i, lv := range v.levels {
		var sz int64
		for _, r := range lv {
			for _, t := range r.tables {
				sz += int64(t.meta.Size)
			}
		}
		if i == 0 {
			debt += sz
		} else if c := int64(shape.LevelCapacity(i)); c > 0 && sz > c {
			debt += sz - c
		}
	}
	return debt
}

// TestTreeTotalsMatchTableWalk runs a history of flushes, trivial moves
// and merges, with overwrites and deletes, on a leveled and a tiered
// tree, and after each step requires Levels, IndexMemory, TuningProfile
// and the debt gauge to equal a walk of the version's tables; the debt
// also after a Retune of T moves every level's capacity.
func TestTreeTotalsMatchTableWalk(t *testing.T) {
	for _, tc := range []struct {
		name  string
		k, z  int
		moves bool // a tiered push always lands as a merge
		t     int  // the size ratio Retune moves to (tiering needs K < T)
	}{{"leveled", 0, 0, true, 2}, {"tiered", 3, 3, false, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts(t.TempDir())
			opts.HybridK, opts.HybridZ = tc.k, tc.z
			db := openDB(t, opts)
			defer db.Close()

			// debtMatches compares the gauge with the walk under db.mu, where
			// neither the version nor the shape can move.
			debtMatches := func(step string) int64 {
				t.Helper()
				db.mu.Lock()
				got, want := db.debtLocked(), walkDebt(db.current, db.opts.shape())
				db.mu.Unlock()
				if got != want {
					t.Errorf("%s: debtLocked() = %d, the walk gave %d", step, got, want)
				}
				return got
			}
			// check waits for an idle engine, so every reader sees one version.
			check := func(step string) {
				t.Helper()
				if err := db.WaitIdle(); err != nil {
					t.Fatal(err)
				}
				db.mu.Lock()
				v := db.current
				v.ref()
				db.mu.Unlock()
				defer v.unref()
				levels, index := walkTotals(v)
				if got := db.Levels(); !slices.Equal(got, levels) {
					t.Errorf("%s: Levels() = %+v, the walk gave %+v", step, got, levels)
				}
				if got := db.IndexMemory(); got != index || index <= 0 {
					t.Errorf("%s: IndexMemory() = %d, the walk gave %d", step, got, index)
				}
				var entries, bytes int64
				for _, li := range levels {
					entries += int64(li.Entries)
					bytes += int64(li.Bytes)
				}
				if p := db.TuningProfile(); p.Entries != entries || p.DiskBytes != bytes {
					t.Errorf("%s: TuningProfile() = %d entries, %d bytes; the walk gave %d, %d",
						step, p.Entries, p.DiskBytes, entries, bytes)
				}
				debtMatches(step)
			}

			rng := rand.New(rand.NewSource(7))
			for round := range 4 {
				for i := range 2500 {
					if round == 0 {
						db.Put(key(round*2500+i), val(i)) // ascending: trivial moves
					} else if k := rng.Intn(10000); rng.Intn(5) == 0 {
						db.Delete(key(k))
					} else {
						db.Put(key(k), val(k)) // overwrites: merges
					}
				}
				check(fmt.Sprintf("round %d", round))
			}
			st := db.stats
			if st.Flushes.Load() == 0 || (st.TrivialMoves.Load() == 0) == tc.moves || st.Compactions.Load() == 0 {
				t.Fatalf("history had %d flushes, %d trivial moves, %d merges; want flushes, merges and trivial moves=%v",
					st.Flushes.Load(), st.TrivialMoves.Load(), st.Compactions.Load(), tc.moves)
			}

			before := debtMatches("before Retune")
			if err := db.Retune(Tunables{SizeRatio: tc.t}); err != nil {
				t.Fatal(err)
			}
			at := debtMatches(fmt.Sprintf("at Retune(T=%d)", tc.t))
			if tc.t < 4 && at <= before { // smaller capacities: the gauge must rise
				t.Errorf("debt %d bytes at T=4, %d at T=%d", before, at, tc.t)
			}
			check(fmt.Sprintf("after Retune(T=%d)", tc.t))
		})
	}
}
