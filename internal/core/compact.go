package core

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"lsmkv/internal/compaction"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/manifest"
	"lsmkv/internal/memtable"
	"lsmkv/internal/rangefilter"
	"lsmkv/internal/sstable"
)

// writerOptionsForLevel assembles the table layout for expectedEntries
// entries landing at the given level. Under Monkey the filter budget is
// priced for the tree the job is about to leave: the current version's
// level totals, less the keys of task's files (a flush passes nil), plus
// the arriving entries at the target level, so a file landing in a
// brand-new deepest level is budgeted for the post-compaction tree. The
// task's files are claimed, and only the claiming job removes a file, so
// each is still listed at its task level.
func (db *DB) writerOptionsForLevel(level int, expectedEntries int, task *compaction.Task) sstable.WriterOptions {
	db.mu.Lock() // Retune rewrites the filter budget under it
	fp := filter.Policy{Kind: db.opts.Filter, BitsPerKey: db.opts.BitsPerKey}
	if fp.Kind != filter.KindNone && db.opts.MonkeyFilters {
		specs := make([]filter.LevelSpec, max(len(db.current.info), level+1))
		for i, info := range db.current.info {
			specs[i] = filter.LevelSpec{Runs: info.Runs, Keys: int64(info.Entries)}
		}
		if task != nil {
			for _, f := range task.InputFiles {
				specs[task.FromLevel].Keys -= int64(f.Entries)
			}
			for _, f := range task.TargetFiles {
				specs[task.TargetLevel].Keys -= int64(f.Entries)
			}
		}
		specs[level].Keys += int64(expectedEntries)
		specs[level].Runs = max(specs[level].Runs, 1)
		var totalKeys int64
		for _, s := range specs {
			totalKeys += s.Keys
		}
		if totalKeys > 0 {
			if bits := filter.MonkeyAllocation(specs, fp.BitsPerKey*float64(totalKeys))[level]; bits > 0 {
				fp.BitsPerKey = bits
			} else {
				fp = filter.Policy{Kind: filter.KindNone}
			}
		}
	}
	db.mu.Unlock()
	return sstable.WriterOptions{
		BlockSize:         db.opts.BlockSize,
		Filter:            fp,
		FilterPartitioned: db.opts.PartitionedFilters,
		RangeFilter: rangefilter.Policy{
			Kind: db.opts.RangeFilter, BitsPerKey: db.opts.RangeFilterBitsPerKey, PrefixLen: db.opts.PrefixLength,
			SuRFMode: rangefilter.SuRFReal, SuRFSuffixBytes: 2,
		},
		BlockHashIndex:  db.opts.BlockHashIndex,
		Learned:         db.opts.LearnedIndex,
		ExpectedEntries: expectedEntries,
	}
}

// newFileNum reserves a file number.
func (db *DB) newFileNum() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.state.NextFileNum++
	return db.state.NextFileNum
}

// buildTable writes entries from it (until exhaustion or maxBytes of
// output) into a new table file with the given layout and returns its
// meta: nil when the iterator was already exhausted or discard took every
// entry.
func (db *DB) buildTable(it kv.Iterator, wopts sstable.WriterOptions, maxBytes uint64, discard func(kv.InternalKey, []byte) bool) (*manifest.FileMeta, error) {
	if !it.Valid() {
		return nil, nil
	}
	num := db.newFileNum()
	path := db.tablePath(num)
	f, err := db.opts.FS.Create(path)
	if err != nil {
		return nil, err
	}
	built := false
	defer func() {
		if !built { // an error, or nothing survived discard
			f.Close()
			db.opts.FS.Remove(path)
		}
	}()
	w := sstable.NewWriter(f, wopts)
	wrote := false
	breaking := false
	var lastUser []byte
	for it.Valid() {
		ikey := it.Key()
		// Once the size target is hit, finish the current user key but do
		// not start a new one: a run's files must never split the
		// versions of one user key.
		if breaking && (lastUser == nil || string(ikey.UserKey) != string(lastUser)) {
			break
		}
		if discard == nil || !discard(ikey, it.Value()) {
			if err := w.Add(ikey, it.Value()); err != nil {
				return nil, err
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
	if err := it.Error(); err != nil || !wrote {
		return nil, err
	}
	props, size, err := w.Finish()
	if err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	built = true
	db.stats.BytesWritten.Add(int64(size))
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
	}, nil
}

// Background work. A flush, a compaction — merging or moving — and a
// value-log collection are one shape of job, as commit is the one shape of
// write and pin → loadBlock → visible the one shape of read:
//
//	viewLocked  the view, taken once: the current version, referenced, and
//	            the horizon below which no snapshot reads
//	buildTable  the files the job writes, if it writes any
//	finish      the one end: installVersionEdit, then counters, the event,
//	            the log line, and retire for the files the job made dead
//
// The jobs differ in the edit they hand finish, and in nothing after it.

// job is one unit of background work on its way to finish.
type job struct {
	// ev is the event finish records: the job sets its type, levels, inputs
	// and the lead of its Detail, finish the outputs and the duration.
	ev      iostat.Event
	start   time.Time
	edit    versionEdit
	dropped *collapse // a merge's filter, for what it discarded
	wals    []uint64  // logs whose every record the job put in a table
}

// versionEdit is the one form a change to the tree takes.
type versionEdit struct {
	remove   map[uint64]bool      // files leaving their levels
	add      []*manifest.FileMeta // files arriving at level
	level    int
	freshRun bool            // add is a new run of level, not spliced into its first
	obsolete map[uint64]bool // removed files nothing lists afterwards (a move re-adds its own)
	flushed  bool            // add holds the oldest frozen memtable, which leaves the queue
	segment  uint64          // value-log segment the job emptied; 0 for none
}

// apply edits a manifest state: e.remove leaves every level, then e.add
// lands at e.level — as its youngest run when asked or when the level is
// empty, else spliced into its first run in key order (the ranges are
// disjoint by construction: overlapping files were merged).
func (e *versionEdit) apply(s *manifest.State) {
	for li := range s.Levels {
		var runs []manifest.Run
		for _, r := range s.Levels[li].Runs {
			var files []*manifest.FileMeta
			for _, f := range r.Files {
				if !e.remove[f.Num] {
					files = append(files, f)
				}
			}
			if len(files) > 0 {
				runs = append(runs, manifest.Run{Files: files})
			}
		}
		s.Levels[li].Runs = runs
	}
	for len(s.Levels) <= e.level {
		s.Levels = append(s.Levels, manifest.Level{})
	}
	if len(e.add) == 0 {
		return
	}
	tl := &s.Levels[e.level]
	if e.freshRun || len(tl.Runs) == 0 {
		tl.Runs = append(tl.Runs, manifest.Run{Files: e.add})
		return
	}
	files := append(tl.Runs[0].Files, e.add...)
	slices.SortFunc(files, func(a, b *manifest.FileMeta) int { return bytes.Compare(a.Smallest, b.Smallest) })
	tl.Runs[0].Files = files
}

// viewLocked takes the view a compaction, or a checkpoint, works from: the
// current version, referenced so its tables outlive the job (the caller
// unrefs it), and the horizon. Caller holds db.mu.
func (db *DB) viewLocked() (*version, kv.SeqNum) {
	db.current.ref()
	return db.current, db.gcHorizonLocked()
}

// gcHorizonLocked returns the sequence number below which superseded
// versions are invisible to every snapshot. Caller holds db.mu.
func (db *DB) gcHorizonLocked() kv.SeqNum {
	h := db.lastSeq()
	for s := range db.snapshots {
		if s < h {
			h = s
		}
	}
	return h
}

// bottommost reports whether output written to level lands at the true
// bottom of the tree once the tables in leaving are gone: no level below
// holds data, and no other table of level could hold an older version that
// a dropped tombstone was shadowing.
func (v *version) bottommost(level int, leaving map[uint64]bool) bool {
	for li := level; li < len(v.levels); li++ {
		for _, r := range v.levels[li] {
			if li > level {
				return false
			}
			for _, th := range r.tables {
				if !leaving[th.meta.Num] {
					return false
				}
			}
		}
	}
	return true
}

// flush writes one buffer as a single-file run appended to level 0. im is
// the flush-queue entry the buffer came from, nil for a recovered buffer.
func (db *DB) flush(buf *memtable.Memtable, im *immutableBuffer) error {
	j := &job{start: time.Now(), ev: iostat.Event{Type: iostat.EventFlush, FromLevel: -1},
		edit: versionEdit{freshRun: true, flushed: im != nil}}
	if im != nil && !db.opts.DisableWAL {
		j.wals = []uint64{im.walNum}
	}
	it := buf.NewIterator()
	defer it.Close()
	it.First()
	meta, err := db.buildTable(it, db.writerOptionsForLevel(0, buf.Len(), nil), 0, nil)
	if err != nil {
		return err
	}
	if meta != nil {
		j.edit.add = []*manifest.FileMeta{meta}
	}
	// The table's value pointers must not outrun the value log: without a
	// synced write nothing else has made the bytes they point at durable.
	if db.vlog != nil {
		if err := db.vlog.Sync(); err != nil {
			return err
		}
	}
	return db.finish(j)
}

// compact executes a planned task and releases its claims. A push whose
// inputs overlap nothing in the target level can re-parent the files
// without rewriting a byte — the classic LevelDB/RocksDB trivial move, safe
// only when the source is a single run, so the moved files are mutually
// disjoint. It is the same job as a merge: its outputs are its inputs'
// metas and nothing is obsolete.
func (db *DB) compact(task *compaction.Task) error {
	defer func() { // after finish installed the version, as the claims were taken: under db.mu
		db.mu.Lock()
		db.sched.Done(task)
		db.mu.Unlock()
	}()
	db.mu.Lock()
	v, horizon := db.viewLocked()
	db.mu.Unlock()
	defer v.unref()

	// Resolve the claimed files, inputs then targets, to the pinned
	// version's handles. Only the job that claimed a file removes it, so
	// every version installed until Done lists each one.
	open := v.byNum()
	var tables []*tableHandle
	for _, f := range slices.Concat(task.InputFiles, task.TargetFiles) {
		tables = append(tables, open[f.Num])
	}
	j := &job{start: time.Now(), ev: iostat.Event{
		Type: iostat.EventCompaction, FromLevel: task.FromLevel, ToLevel: task.TargetLevel,
		InputFiles: len(tables), Detail: task.Reason,
	}}
	j.edit = versionEdit{remove: map[uint64]bool{}, level: task.TargetLevel, freshRun: task.FreshRun}
	var entries uint64
	for _, th := range tables {
		j.edit.remove[th.meta.Num] = true
		j.ev.InputBytes += th.meta.Size
		entries += th.meta.Entries
	}
	if len(task.TargetFiles) == 0 && task.FromLevel != task.TargetLevel &&
		task.FromLevel < len(v.levels) && len(v.levels[task.FromLevel]) == 1 {
		j.ev.Type = iostat.EventTrivialMove
		for _, th := range tables {
			j.edit.add = append(j.edit.add, th.meta)
		}
		return db.finish(j)
	}
	j.edit.obsolete = j.edit.remove
	j.dropped = &collapse{db: db, horizon: horizon, bottom: v.bottommost(task.TargetLevel, j.edit.remove)}
	hotKeys := db.hotBlockKeys(tables) // before the install evicts the inputs' blocks

	// Inputs are younger than targets, but merge correctness does not rest
	// on source order: internal keys are unique, and the collapse filter
	// keeps the newest version by sequence number.
	iters := make([]kv.Iterator, len(tables))
	for i, th := range tables {
		iters[i] = th.reader.NewIterator()
	}
	merged := newMergingIter(iters)
	defer merged.Close()
	merged.First() // a failure shows as !Valid, and in Error after the loop
	// Split outputs at the target level's per-file size. The table layout
	// (including the Monkey budget for the post-compaction shape) is
	// computed once for the whole job.
	wopts := db.writerOptionsForLevel(task.TargetLevel, int(entries), task)
	for merged.Valid() {
		meta, err := db.buildTable(merged, wopts, uint64(db.opts.MemtableBytes), j.dropped.drop)
		if err != nil {
			return err
		}
		if meta != nil {
			j.edit.add = append(j.edit.add, meta)
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
	if err := db.finish(j); err != nil {
		return err
	}
	db.prefetchOutputs(j.edit.add, hotKeys)
	return nil
}

// collapse is a merge's version-collapse filter, the discard buildTable
// consults entry by entry in merge order (user keys ascending, each key's
// versions newest first): it drops the versions no snapshot can see and,
// when the output is the bottom of the tree, obsolete tombstones and
// expired TTL entries — and counts what it dropped, by cause.
type collapse struct {
	db      *DB
	horizon kv.SeqNum
	bottom  bool

	prevUser  []byte // nil before the first entry; a user key is never empty
	prevBelow bool   // the version of prevUser last seen is at or below the horizon

	shadowed, tombstones, expired int64
}

func (c *collapse) drop(ik kv.InternalKey, v []byte) bool {
	if c.prevUser != nil && string(ik.UserKey) == string(c.prevUser) {
		// An older version of a key whose newer version is visible to
		// every snapshot is dead.
		if c.prevBelow {
			c.shadowed++
			return true
		}
		// The newer version is above some snapshot's view: keep this one;
		// it may be the visible version for an old snapshot.
		c.prevBelow = ik.Seq <= c.horizon
		return false
	}
	c.prevUser = append(c.prevUser[:0], ik.UserKey...)
	c.prevBelow = ik.Seq <= c.horizon
	// A bottommost tombstone below the horizon vanishes; its
	// below-horizon status still shadows the older versions that follow,
	// so they are dropped too. A TTL entry reads no longer see (visible
	// judges it, by the engine's clock) is an implicit tombstone and gets
	// the same treatment — the entry and everything it shadows leave in
	// one version install, so a crash can never resurrect the shadowed
	// versions without also restoring the expired entry that hides them.
	if c.bottom && c.prevBelow {
		switch ik.Kind {
		case kv.KindDelete:
			c.tombstones++
			return true
		case kv.KindSetTTL:
			if _, _, live, err := c.db.visible(ik.UserKey, ik.Kind, v); err == nil && !live {
				c.expired++
				return true
			}
		}
	}
	return false
}

// finish is where every background job ends: the edit is installed, and
// only then — an install can fail — is the job counted, recorded as its
// one event, logged, and the files it made dead retired.
func (db *DB) finish(j *job) error {
	if err := db.installVersionEdit(&j.edit); err != nil {
		return err
	}
	ev, st := &j.ev, db.stats
	ev.OutputFiles = len(j.edit.add)
	for _, m := range j.edit.add { // on top of what a collection relocated
		ev.OutputBytes += m.Size
	}
	ev.DurMs = float64(time.Since(j.start).Microseconds()) / 1e3
	switch ev.Type {
	case iostat.EventFlush:
		st.Flushes.Add(1)
		st.BytesFlushed.Add(int64(ev.OutputBytes))
	case iostat.EventTrivialMove:
		st.Compactions.Add(1)
		st.TrivialMoves.Add(1)
	case iostat.EventCompaction:
		st.Compactions.Add(1)
		st.CompactionBytesRead.Add(int64(ev.InputBytes))
		st.CompactionBytesWritten.Add(int64(ev.OutputBytes))
		st.ExpiredDrops.Add(j.dropped.expired)
		ev.Detail += fmt.Sprintf(" dropped=shadowed:%d,tombstone:%d,expired:%d",
			j.dropped.shadowed, j.dropped.tombstones, j.dropped.expired)
		if j.dropped.expired > 0 {
			ev.Detail += fmt.Sprintf(" expired_drops=%d", j.dropped.expired)
		}
	}
	db.events.Add(*ev)
	db.opts.Logf("%s %s: L%d -> L%d, %d -> %d files, %.1f MiB", ev.Type, ev.Detail,
		ev.FromLevel, ev.ToLevel, ev.InputFiles, ev.OutputFiles, float64(ev.OutputBytes)/(1<<20))
	db.retire(j.wals...)
	return nil
}

// installVersionEdit applies the edit to the manifest state under the
// lock, persists it, builds and publishes the new version, and marks the
// edit's obsolete tables. finish is its only caller. It is the one place
// db.mu is held across file I/O; reads pin the published state without
// db.mu, so only writers' two short sections queue behind it.
func (db *DB) installVersionEdit(e *versionEdit) error {
	db.mu.Lock()
	newState := db.state.Clone()
	e.apply(newState)
	newState.LastSeq = db.seq.Load()
	if db.vlog != nil {
		newState.VlogHead = db.vlog.ActiveSegment()
	}
	if err := manifest.Save(db.opts.FS, db.opts.Dir, newState); err != nil {
		db.mu.Unlock()
		return err
	}
	newVersion, err := db.buildVersion(newState, db.current)
	if err != nil {
		db.mu.Unlock()
		return fmt.Errorf("core: open new version: %w", err)
	}
	old := db.current
	db.state = newState
	db.current = newVersion
	if e.flushed {
		db.imms = db.imms[1:]
	}
	if e.segment != 0 {
		// Every relocation out of the segment is at or below lastSeq, and
		// so is every overwrite that left an entry of it dead: a snapshot
		// below it may still resolve a pointer into the segment.
		db.deadSegments[e.segment], db.gcCursor = db.lastSeq(), e.segment
	}
	retired := db.publishLocked()
	db.mu.Unlock()
	retired.unref()

	if len(e.obsolete) > 0 {
		for num, th := range old.byNum() {
			if e.obsolete[num] {
				th.markObsolete()
			}
		}
	}
	old.unref()
	return nil
}

// retire is the only place a log or a value-log segment is removed (a
// table goes by refcount: markObsolete, then the last version listing it).
// walNums names more logs whose every record reached a table. All wait
// while a checkpoint copies the file set; a segment also for the snapshots
// taken, and the reads begun, before its relocations were published.
func (db *DB) retire(walNums ...uint64) {
	db.mu.Lock()
	db.deadWALs = append(db.deadWALs, walNums...)
	var wals, segments []uint64
	if db.walPins == 0 {
		wals, db.deadWALs = db.deadWALs, nil
		for num, seq := range db.deadSegments {
			if db.liveStates.Load() <= 1 && seq <= db.gcHorizonLocked() {
				segments = append(segments, num)
				delete(db.deadSegments, num)
			}
		}
	}
	db.mu.Unlock()
	for _, n := range wals {
		db.opts.FS.Remove(db.walPath(n))
	}
	for _, n := range segments {
		db.vlog.Remove(n)
	}
}

// hotBlockKeys is Leaper-style telemetry: the first user key of every
// block of tables that is cache resident right now. After a merge replaces
// those files, prefetchOutputs re-fetches the output blocks covering these
// keys, so the hot working set does not pay a miss storm.
func (db *DB) hotBlockKeys(tables []*tableHandle) (keys [][]byte) {
	if db.cache == nil || !db.opts.PrefetchAfterCompaction {
		return nil
	}
	for _, th := range tables {
		for _, off := range db.cache.ResidentOffsets(th.meta.Num) {
			if ord := th.reader.BlockOrdinalForOffset(off); ord >= 0 {
				if k := th.reader.BlockFirstKey(ord); k != nil {
					keys = append(keys, append([]byte(nil), k...))
				}
			}
		}
	}
	return keys
}

// prefetchOutputs re-warms the block cache with the output blocks
// covering the previously-hot keys (Leaper-style: the working set the
// compaction just invalidated is re-fetched immediately, so reads do not
// pay a post-compaction miss storm).
func (db *DB) prefetchOutputs(outputs []*manifest.FileMeta, hotKeys [][]byte) {
	if len(hotKeys) == 0 {
		return
	}
	rs, _, err := db.pin()
	if err != nil {
		return
	}
	defer rs.unref()
	open := rs.v.byNum()
	for _, key := range hotKeys {
		for _, m := range outputs {
			if bytes.Compare(key, m.Smallest) < 0 || bytes.Compare(key, m.Largest) > 0 {
				continue
			}
			th := open[m.Num]
			if th == nil { // a later job already replaced it
				break
			}
			if err := th.reader.PrefetchKey(key); err != nil {
				return
			}
			break
		}
	}
}
