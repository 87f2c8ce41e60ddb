package core

import (
	"bytes"
	"fmt"
	"time"

	"lsmkv/internal/compaction"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/manifest"
	"lsmkv/internal/sstable"
)

// writerOptionsForLevel assembles the table layout for a file landing at
// the given level, applying the Monkey allocation when enabled. exclude
// lists file numbers leaving the tree in the same job (compaction
// inputs), so their keys are not double-counted.
func (db *DB) writerOptionsForLevel(level int, expectedEntries int, exclude map[uint64]bool) sstable.WriterOptions {
	db.mu.Lock() // Retune rewrites the filter budget under it
	fp := db.opts.FilterPolicy
	db.mu.Unlock()
	if fp.Kind != filter.KindNone {
		bits := db.filterBitsForLevel(level, expectedEntries, exclude)
		if bits <= 0 && db.opts.MonkeyFilters {
			fp = filter.Policy{Kind: filter.KindNone}
		} else if bits > 0 {
			fp.BitsPerKey = bits
		}
	}
	return sstable.WriterOptions{
		BlockSize:         db.opts.BlockSize,
		RestartInterval:   db.opts.RestartInterval,
		Filter:            fp,
		FilterPartitioned: db.opts.FilterPartitioned,
		RangeFilter:       db.opts.RangeFilter,
		BlockHashIndex:    db.opts.BlockHashIndex,
		Learned:           db.opts.LearnedIndex,
		ExpectedEntries:   expectedEntries,
	}
}

// newFileNumLocked reserves a file number. Caller holds db.mu.
func (db *DB) newFileNumLocked() uint64 {
	db.state.NextFileNum++
	return db.state.NextFileNum
}

// buildTable writes entries from it (until exhaustion or maxBytes of
// output) into a new table file with the given layout and returns its
// meta. It returns nil meta when the iterator was already exhausted.
func (db *DB) buildTable(it kv.Iterator, wopts sstable.WriterOptions, maxBytes uint64, discard func(kv.InternalKey, []byte) bool) (*manifest.FileMeta, bool, error) {
	if !it.Valid() {
		return nil, false, nil
	}
	db.mu.Lock()
	num := db.newFileNumLocked()
	db.mu.Unlock()

	path := db.tablePath(num)
	f, err := db.opts.FS.Create(path)
	if err != nil {
		return nil, false, err
	}
	w := sstable.NewWriter(f, wopts)
	wrote := false
	more := false
	breaking := false
	var lastUser []byte
	for it.Valid() {
		ikey := it.Key()
		// Once the size target is hit, finish the current user key but do
		// not start a new one: a run's files must never split the
		// versions of one user key.
		if breaking && (lastUser == nil || string(ikey.UserKey) != string(lastUser)) {
			more = true
			break
		}
		if discard == nil || !discard(ikey, it.Value()) {
			if err := w.Add(ikey, it.Value()); err != nil {
				f.Close()
				db.opts.FS.Remove(path)
				return nil, false, err
			}
			wrote = true
			lastUser = append(lastUser[:0], ikey.UserKey...)
			if maxBytes > 0 && w.EstimatedSize() >= maxBytes {
				breaking = true
			}
		}
		if !it.Next() {
			break
		}
	}
	if err := it.Error(); err != nil {
		f.Close()
		db.opts.FS.Remove(path)
		return nil, false, err
	}
	if !wrote {
		f.Close()
		db.opts.FS.Remove(path)
		return nil, more, nil
	}
	props, size, err := w.Finish()
	if err != nil {
		f.Close()
		db.opts.FS.Remove(path)
		return nil, false, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, false, err
	}
	if err := f.Close(); err != nil {
		return nil, false, err
	}
	db.opts.Stats.BytesWritten.Add(int64(size))
	return &manifest.FileMeta{
		Num:         num,
		Size:        size,
		Smallest:    props.SmallestUser,
		Largest:     props.LargestUser,
		SmallestSeq: uint64(props.SmallestSeq),
		LargestSeq:  uint64(props.LargestSeq),
		Entries:     props.NumEntries,
		Tombstones:  props.NumTombstones,
		CreatedAt:   num, // file numbers are allocated in creation order
	}, more, nil
}

// flushOldestImm writes the oldest immutable buffer as a level-0 run.
func (db *DB) flushOldestImm() error {
	db.mu.Lock()
	if len(db.imms) == 0 {
		db.mu.Unlock()
		return nil
	}
	im := db.imms[0]
	db.mu.Unlock()

	if err := db.flushBufferToL0(im.buf); err != nil {
		return err
	}

	db.mu.Lock()
	db.imms = db.imms[1:]
	retired := db.publishLocked()
	removeWAL := !db.opts.DisableWAL
	if removeWAL && db.walPins > 0 {
		// An online checkpoint is copying the WAL file set it pinned;
		// deleting this log now could tear a file out from under the
		// copy. Defer the removal until the checkpoint unpins.
		db.deferredWALs = append(db.deferredWALs, im.walNum)
		removeWAL = false
	}
	db.mu.Unlock()
	retired.unref()
	if removeWAL {
		db.opts.FS.Remove(db.walPath(im.walNum))
	}
	db.opts.Stats.Flushes.Add(1)
	return nil
}

// flushBufferToL0 writes one buffer as a single-file run appended to
// level 0.
func (db *DB) flushBufferToL0(buf buffer) error {
	it := buf.NewIterator()
	defer it.Close()
	if !it.First() {
		return nil
	}
	start := time.Now()
	meta, _, err := db.buildTable(it, db.writerOptionsForLevel(0, buf.Len(), nil), 0, nil)
	if err != nil {
		return err
	}
	if meta == nil {
		return nil
	}
	db.opts.Stats.BytesFlushed.Add(int64(meta.Size))
	db.events.Add(iostat.Event{
		Type: iostat.EventFlush, FromLevel: -1, ToLevel: 0,
		OutputFiles: 1, OutputBytes: meta.Size,
		DurMs: float64(time.Since(start).Microseconds()) / 1e3,
	})
	return db.installVersionEdit(func(s *manifest.State) {
		for len(s.Levels) < 1 {
			s.Levels = append(s.Levels, manifest.Level{})
		}
		s.Levels[0].Runs = append(s.Levels[0].Runs, manifest.Run{Files: []*manifest.FileMeta{meta}})
	}, nil)
}

// gcHorizon returns the sequence number below which superseded versions
// are invisible to every snapshot. Caller holds db.mu.
func (db *DB) gcHorizonLocked() kv.SeqNum {
	h := db.lastSeq()
	for s := range db.snapshots {
		if s < h {
			h = s
		}
	}
	return h
}

// runCompaction executes a planned task: merge the inputs, write output
// files, and install the new version.
func (db *DB) runCompaction(task *compaction.Task) error {
	db.mu.Lock()
	horizon := db.gcHorizonLocked()
	v := db.current
	v.ref()
	// Resolve file views to live table handles.
	handleOf := func(fv compaction.FileView) *tableHandle { return db.registry.get(fv.Num) }
	var inputs []*tableHandle
	for _, fv := range task.InputFiles {
		if th := handleOf(fv); th != nil {
			inputs = append(inputs, th)
		}
	}
	var targets []*tableHandle
	for _, fv := range task.TargetFiles {
		if th := handleOf(fv); th != nil {
			targets = append(targets, th)
		}
	}
	db.mu.Unlock()
	defer v.unref()

	if len(inputs) == 0 {
		return nil
	}

	// Trivial move: a push whose inputs overlap nothing in the target
	// level can re-parent the files without rewriting a byte — the
	// classic LevelDB/RocksDB optimization. Only safe when the source is
	// a single run, so the moved files are mutually disjoint.
	if len(targets) == 0 && len(task.InputFiles) == len(inputs) &&
		task.FromLevel != task.TargetLevel && singleRunInputs(v, task) {
		metas := make([]*manifest.FileMeta, len(inputs))
		dropped := map[uint64]bool{}
		for i, th := range inputs {
			metas[i] = th.meta
			dropped[th.meta.Num] = true
		}
		err := db.installVersionEdit(func(s *manifest.State) {
			applyTrivialMove(s, task, dropped, metas)
		}, nil) // files move, nothing becomes obsolete
		if err != nil {
			return err
		}
		db.opts.Stats.Compactions.Add(1)
		db.opts.Stats.TrivialMoves.Add(1)
		var movedBytes uint64
		for _, m := range metas {
			movedBytes += m.Size
		}
		db.events.Add(iostat.Event{
			Type: iostat.EventTrivialMove, FromLevel: task.FromLevel, ToLevel: task.TargetLevel,
			InputFiles: len(metas), OutputFiles: len(metas),
			InputBytes: movedBytes, OutputBytes: movedBytes,
			Detail: task.Reason,
		})
		db.opts.Logf("trivial move %s: %d files L%d -> L%d",
			task.Reason, len(metas), task.FromLevel, task.TargetLevel)
		return nil
	}

	// Leaper-style telemetry, captured before the inputs are evicted:
	// the first user keys of every input block that is currently cache
	// resident. After the compaction replaces those files, the blocks of
	// the outputs covering these keys are re-fetched, so the hot working
	// set does not pay a miss storm.
	var hotKeys [][]byte
	if db.cache != nil && db.opts.PrefetchAfterCompaction {
		for _, th := range append(append([]*tableHandle(nil), inputs...), targets...) {
			for _, off := range db.cache.ResidentOffsets(th.meta.Num) {
				if ord := th.reader.BlockOrdinalForOffset(off); ord >= 0 {
					if k := th.reader.BlockFirstKey(ord); k != nil {
						hotKeys = append(hotKeys, append([]byte(nil), k...))
					}
				}
			}
		}
	}

	// Iterators: inputs are younger than targets; within inputs, planning
	// order preserved (planner emits newer runs first is not guaranteed —
	// merge correctness rests on unique internal keys, and version
	// collapse keeps the newest by seq below).
	var iters []kv.Iterator
	var totalEntries uint64
	var inputBytes uint64
	for _, th := range inputs {
		iters = append(iters, th.reader.NewIterator())
		totalEntries += th.meta.Entries
		inputBytes += th.meta.Size
	}
	for _, th := range targets {
		iters = append(iters, th.reader.NewIterator())
		totalEntries += th.meta.Entries
		inputBytes += th.meta.Size
	}
	merged := newMergingIter(iters)
	defer merged.Close()

	dropped := map[uint64]bool{}
	for _, th := range inputs {
		dropped[th.meta.Num] = true
	}
	for _, th := range targets {
		dropped[th.meta.Num] = true
	}

	// Tombstones may only be dropped when the output lands at the true
	// bottom of the tree: no level below holds data, and no run of the
	// target level outside this merge could hold an older version that a
	// dropped tombstone was shadowing.
	bottommost := task.TargetLevel >= db.deepestNonEmptyLevelBelow(v, task.TargetLevel)
	if bottommost && task.TargetLevel < len(v.levels) {
		for _, r := range v.levels[task.TargetLevel] {
			for _, th := range r.tables {
				if !dropped[th.meta.Num] {
					bottommost = false
				}
			}
		}
	}

	// Version-collapse filter: drop superseded versions and, at the
	// bottom, obsolete tombstones and expired TTL entries.
	now := db.opts.Clock()
	expired := func(ik kv.InternalKey, v []byte) bool {
		if ik.Kind != kv.KindSetTTL {
			return false
		}
		exp, _, ok := kv.SplitExpiryValue(v)
		return ok && now >= exp
	}
	var expiredDrops int64
	var prevUser []byte
	var havePrev bool
	var prevKeptBelowHorizon bool
	discard := func(ik kv.InternalKey, v []byte) bool {
		sameUser := havePrev && string(ik.UserKey) == string(prevUser)
		if !sameUser {
			prevUser = append(prevUser[:0], ik.UserKey...)
			havePrev = true
			prevKeptBelowHorizon = ik.Seq <= horizon
			// A bottommost tombstone below the horizon vanishes; its
			// below-horizon status still shadows the older versions that
			// follow, so they are dropped too. An expired TTL entry is an
			// implicit tombstone and gets the same treatment — the entry
			// and everything it shadows leave in one version install, so a
			// crash can never resurrect the shadowed versions without also
			// restoring the expired entry that hides them.
			if bottommost && ik.Seq <= horizon {
				if ik.Kind == kv.KindDelete {
					return true
				}
				if expired(ik, v) {
					expiredDrops++
					return true
				}
			}
			return false
		}
		// An older version of a key whose newer version is visible to
		// every snapshot is dead.
		if prevKeptBelowHorizon {
			return true
		}
		// The newer version is above some snapshot's view: keep this one;
		// it may be the visible version for an old snapshot.
		prevKeptBelowHorizon = ik.Seq <= horizon
		return false
	}

	if !merged.First() {
		if err := merged.Error(); err != nil {
			return err
		}
	}

	// Split outputs at the target level's per-file size. The table layout
	// (including the Monkey budget for the post-compaction shape) is
	// computed once for the whole job.
	maxFileBytes := uint64(db.opts.MemtableBytes)
	wopts := db.writerOptionsForLevel(task.TargetLevel, int(totalEntries), dropped)
	var outputs []*manifest.FileMeta
	start := time.Now()
	for merged.Valid() {
		meta, _, err := db.buildTable(merged, wopts, maxFileBytes, discard)
		if err != nil {
			return err
		}
		if meta != nil {
			outputs = append(outputs, meta)
			// Compaction throttling: each output file is paid for out of
			// the token bucket shared by every background job, so the
			// configured ceiling bounds the workers' combined write rate.
			// (Pacing each job on its own wall clock — the old scheme —
			// hands every concurrent worker the full budget.) The jobs
			// writers stall behind are urgent — L0->L1 itself and the
			// L1 drain the cascade rule may order ahead of it — so their
			// demand is reserved ahead of deep merges.
			db.rate.WaitFor(int64(meta.Size), task.FromLevel <= 1)
		}
	}
	if err := merged.Error(); err != nil {
		return err
	}

	var outputBytes uint64
	for _, m := range outputs {
		outputBytes += m.Size
	}
	db.opts.Stats.CompactionBytesRead.Add(int64(inputBytes))
	db.opts.Stats.CompactionBytesWritten.Add(int64(outputBytes))
	db.opts.Stats.Compactions.Add(1)
	if expiredDrops > 0 {
		db.opts.Stats.ExpiredDrops.Add(expiredDrops)
	}

	err := db.installVersionEdit(func(s *manifest.State) {
		applyCompaction(s, task, dropped, outputs)
	}, dropped)
	if err != nil {
		return err
	}
	detail := task.Reason
	if expiredDrops > 0 {
		detail = fmt.Sprintf("%s expired_drops=%d", task.Reason, expiredDrops)
	}
	db.events.Add(iostat.Event{
		Type: iostat.EventCompaction, FromLevel: task.FromLevel, ToLevel: task.TargetLevel,
		InputFiles: len(inputs) + len(targets), OutputFiles: len(outputs),
		InputBytes: inputBytes, OutputBytes: outputBytes,
		DurMs:  float64(time.Since(start).Microseconds()) / 1e3,
		Detail: detail,
	})
	db.opts.Logf("compaction %s: %d -> %d files, %.1f MiB",
		task.Reason, len(inputs)+len(targets), len(outputs), float64(outputBytes)/(1<<20))

	if len(hotKeys) > 0 {
		db.prefetchOutputs(outputs, hotKeys)
	}
	return nil
}

// singleRunInputs reports whether the task's inputs all come from a
// single run of the source level, so they are mutually disjoint and can
// be spliced into the target's run without merging.
func singleRunInputs(v *version, task *compaction.Task) bool {
	if task.FromLevel >= len(v.levels) || len(v.levels[task.FromLevel]) != 1 {
		return false
	}
	return true
}

// applyTrivialMove edits the manifest: the files leave their source level
// and splice into the target level's first run.
func applyTrivialMove(s *manifest.State, task *compaction.Task, moved map[uint64]bool, metas []*manifest.FileMeta) {
	for li := range s.Levels {
		var runs []manifest.Run
		for _, r := range s.Levels[li].Runs {
			var files []*manifest.FileMeta
			for _, f := range r.Files {
				if !moved[f.Num] {
					files = append(files, f)
				}
			}
			if len(files) > 0 {
				runs = append(runs, manifest.Run{Files: files})
			}
		}
		s.Levels[li].Runs = runs
	}
	for len(s.Levels) <= task.TargetLevel {
		s.Levels = append(s.Levels, manifest.Level{})
	}
	tl := &s.Levels[task.TargetLevel]
	if len(tl.Runs) == 0 || task.FreshRun {
		// Append as the youngest run (tiered move, or empty target).
		tl.Runs = append(tl.Runs, manifest.Run{Files: metas})
		return
	}
	files := append(tl.Runs[0].Files, metas...)
	sortFilesBySmallest(files)
	tl.Runs[0].Files = files
}

// deepestNonEmptyLevelBelow returns the index of the deepest level with
// data strictly below `level`, or `level` itself when nothing is deeper.
func (db *DB) deepestNonEmptyLevelBelow(v *version, level int) int {
	deepest := level
	for i := level + 1; i < len(v.levels); i++ {
		if len(v.levels[i]) > 0 {
			deepest = i
		}
	}
	return deepest
}

// applyCompaction edits the manifest state: remove dropped files, then
// install the outputs per the task semantics.
func applyCompaction(s *manifest.State, task *compaction.Task, dropped map[uint64]bool, outputs []*manifest.FileMeta) {
	for li := range s.Levels {
		var runs []manifest.Run
		for _, r := range s.Levels[li].Runs {
			var files []*manifest.FileMeta
			for _, f := range r.Files {
				if !dropped[f.Num] {
					files = append(files, f)
				}
			}
			if len(files) > 0 {
				runs = append(runs, manifest.Run{Files: files})
			}
		}
		s.Levels[li].Runs = runs
	}
	for len(s.Levels) <= task.TargetLevel {
		s.Levels = append(s.Levels, manifest.Level{})
	}
	if len(outputs) == 0 {
		return
	}
	tl := &s.Levels[task.TargetLevel]
	if task.FreshRun || len(tl.Runs) == 0 {
		tl.Runs = append(tl.Runs, manifest.Run{Files: outputs})
		return
	}
	// Leveled install: splice outputs into the level's first run, keeping
	// files ordered by smallest key. Ranges are disjoint by construction
	// (overlapping target files were merged).
	files := append(tl.Runs[0].Files, outputs...)
	sortFilesBySmallest(files)
	tl.Runs[0].Files = files
}

func sortFilesBySmallest(files []*manifest.FileMeta) {
	for i := 1; i < len(files); i++ {
		for j := i; j > 0 && string(files[j].Smallest) < string(files[j-1].Smallest); j-- {
			files[j], files[j-1] = files[j-1], files[j]
		}
	}
}

// installVersionEdit mutates the manifest state under the lock, persists
// it, builds and publishes the new version, and marks dropped tables
// obsolete. It is the one place db.mu is held across file I/O; reads pin
// the published state without db.mu, so only writers' two short
// sections queue behind it.
func (db *DB) installVersionEdit(edit func(*manifest.State), dropped map[uint64]bool) error {
	db.mu.Lock()
	newState := db.state.Clone()
	edit(newState)
	newState.LastSeq = db.seq.Load()
	if db.vlog != nil {
		newState.VlogHead = db.vlog.ActiveSegment()
	}
	if err := manifest.Save(db.opts.FS, db.opts.Dir, newState); err != nil {
		db.mu.Unlock()
		return err
	}
	newVersion, err := db.buildVersion(newState)
	if err != nil {
		db.mu.Unlock()
		return fmt.Errorf("core: open new version: %w", err)
	}
	old := db.current
	db.state = newState
	db.current = newVersion
	retired := db.publishLocked()
	db.refreshMonkeyLocked()
	db.refreshDebtLocked()
	db.mu.Unlock()
	retired.unref()

	for num := range dropped {
		if th := db.registry.get(num); th != nil {
			db.registry.remove(num)
			th.markObsolete()
		}
	}
	if old != nil {
		old.unref()
	}
	return nil
}

// prefetchOutputs re-warms the block cache with the output blocks
// covering the previously-hot keys (Leaper-style: the working set the
// compaction just invalidated is re-fetched immediately, so reads do not
// pay a post-compaction miss storm).
func (db *DB) prefetchOutputs(outputs []*manifest.FileMeta, hotKeys [][]byte) {
	if db.cache == nil || len(hotKeys) == 0 {
		return
	}
	for _, key := range hotKeys {
		for _, m := range outputs {
			if bytes.Compare(key, m.Smallest) < 0 || bytes.Compare(key, m.Largest) > 0 {
				continue
			}
			th := db.registry.get(m.Num)
			if th == nil {
				break
			}
			if err := th.reader.PrefetchKey(key); err != nil {
				return
			}
			break
		}
	}
}
