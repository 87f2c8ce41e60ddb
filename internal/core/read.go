package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/memtable"
	"lsmkv/internal/sstable"
	"lsmkv/internal/vlog"
)

// The read path. Every read — Get, GetAppend, GetTraced, Snapshot.Get,
// MultiGet, a Scanner — takes the same steps, each owned by one function:
//
//	pin         the view: the published readState (active memtable, frozen
//	            ones, version), referenced without taking db.mu, and the
//	            watermark every read is bounded by
//	walk        point reads, as one batch walk (a single Get is a batch of
//	            one): one pin per batch, keys visited in key order, the
//	            memtables newest first, then per run a forward cursor over
//	            its tables (cursor.seek), the sequence-bound and filter
//	            (Reader.MayContain) screens with the key's one hash, and the
//	            table probe the batch's keys share (sstable.Probe.Get); one
//	            clock pair per batch, and the batch's tally added to Stats
//	            once
//	newScanner  range reads: the same sources behind a merging iterator,
//	            screened by range filters
//	visible     the found entry resolved into a user value
//
// Tracing is an argument (tr, rt), not a second path: a nil trace makes
// every recording step a skipped branch.

// readState is the engine state one read runs against: immutable once
// published, shared by every read that pins it. The engine's own
// reference (the 1 it is published with) is dropped when a successor
// replaces it; the last unref releases the version, and with it the
// tables a compaction has since made obsolete.
type readState struct {
	mem  *memtable.Memtable
	imms []*memtable.Memtable // oldest first
	v    *version             // ref'd for as long as refs > 0
	refs atomic.Int32
}

// tryRef takes a reference unless the state is already retired and
// drained — its version may be gone; the caller reloads db.rs.
func (rs *readState) tryRef() bool {
	for {
		n := rs.refs.Load()
		if n == 0 {
			return false
		}
		if rs.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unref drops one reference; nil-safe (the first publish retires nothing).
func (rs *readState) unref() {
	if rs != nil && rs.refs.Add(-1) == 0 {
		rs.v.db.liveStates.Add(-1)
		rs.v.unref()
	}
}

// pin takes a read's view without taking a lock, so no read waits for
// whatever holds db.mu — a version install saving the manifest, say — and
// the watermark that bounds the read: entries above it belong to a commit
// still inserting. It loads the watermark after the state, so the bound is
// at or above the horizon every merge in the state collapsed versions
// under, and a value-log segment holding a value visible at the bound
// outlives the read: GC retires a segment only once no read holds a state
// published before the writes that emptied it. It is the only way a read
// reaches a version; the caller unrefs the state when done.
func (db *DB) pin() (*readState, kv.SeqNum, error) {
	for {
		rs := db.rs.Load()
		if rs == nil {
			return nil, 0, ErrClosed
		}
		if rs.tryRef() {
			return rs, db.lastSeq(), nil
		}
	}
}

// publishLocked makes (mem, imms, current) — or, once closed, nothing —
// the state reads pin, and returns the state it retires; the caller
// unrefs that after unlocking, since the last unref may delete files. It
// is called wherever one of the three changes: a freeze, a flush
// completing, a version install, Close. The state holds a reference on
// the version (Checkpoint and compaction take theirs inside larger
// critical sections). Caller holds db.mu or is in Open.
func (db *DB) publishLocked() (retired *readState) {
	var rs *readState
	if !db.closed {
		rs = &readState{mem: db.mem, imms: make([]*memtable.Memtable, len(db.imms)), v: db.current}
		for i, im := range db.imms {
			rs.imms[i] = im.buf
		}
		rs.v.ref()
		rs.refs.Store(1)
		db.liveStates.Add(1)
	}
	return db.rs.Swap(rs)
}

// visible resolves a found entry into the value a user sees — the one
// place reads interpret an entry's kind. A tombstone, or a TTL entry at
// or past its expiry by Options.Clock (it serves as a tombstone until
// compaction reclaims it), is not live; a live TTL entry sheds its expiry
// prefix, returned as expiry (0 for an entry without one); a value
// pointer is followed into the value log. A malformed entry is an error
// on every read form, never a guess. The returned value aliases raw
// unless the value log was read.
func (db *DB) visible(key []byte, kind kv.Kind, raw []byte) (value []byte, expiry int64, live bool, err error) {
	switch kind {
	case kv.KindDelete:
		return nil, 0, false, nil
	case kv.KindSetTTL:
		exp, payload, ok := kv.SplitExpiryValue(raw)
		if !ok {
			return nil, 0, false, fmt.Errorf("lsmkv: corrupt ttl value for key %q", key)
		}
		if db.opts.Clock() >= exp {
			return nil, 0, false, nil
		}
		return payload, exp, true, nil
	case kv.KindValuePointer:
		ptr, err := vlog.DecodePointer(raw)
		if err != nil {
			return nil, 0, false, err
		}
		db.stats.VlogReads.Add(1)
		if value, err = db.vlog.Get(ptr); err != nil {
			return nil, 0, false, err
		}
		return value, 0, true, nil
	}
	return raw, 0, true, nil
}

// Get returns the newest visible value of key.
func (db *DB) Get(key []byte) ([]byte, error) { return db.GetAppend(key, nil) }

// GetAppend is Get with the value appended to dst (which may be nil)
// instead of freshly allocated, returning the extended slice. With the
// target block resident in the cache and dst capacious enough, a lookup
// performs zero heap allocations — the steady-state read hot path.
func (db *DB) GetAppend(key, dst []byte) ([]byte, error) {
	return db.getOne(key, kv.MaxSeqNum, dst, nil)
}

// GetTraced is Get with a full read-path trace: which buffers and sorted
// runs were consulted, how each run screened the probe (fences, sequence
// bounds, filters), and the block-level work the survivors cost. The trace
// is returned even when the key is absent (err == ErrNotFound) — that is
// the interesting case for diagnosing read amplification.
func (db *DB) GetTraced(key []byte) ([]byte, *iostat.Trace, error) {
	tr := iostat.NewTrace(key)
	value, err := db.getOne(key, kv.MaxSeqNum, nil, tr)
	return value, tr, err
}

// MultiGet looks up every key in one batch walk and returns values
// aligned with keys: nil for an absent key, a non-nil (possibly empty)
// slice for a present one. Duplicate keys are looked up once per
// occurrence. The values share one freshly allocated arena; each slice's
// capacity ends at its value, so appending to one never touches another.
func (db *DB) MultiGet(keys [][]byte) ([][]byte, error) {
	return db.multiGet(keys, nil)
}

// MultiGetTraced is MultiGet with one read-path trace per key, absent
// keys included. Each trace's ElapsedUs is the key's share of the batch.
func (db *DB) MultiGetTraced(keys [][]byte) ([][]byte, []*iostat.Trace, error) {
	trs := make([]*iostat.Trace, len(keys))
	for i, k := range keys {
		trs[i] = iostat.NewTrace(k)
	}
	vals, err := db.multiGet(keys, trs)
	return vals, trs, err
}

// maxPooledArena bounds the value buffer a pooled batch keeps between
// batches, so one batch of large values does not stay resident.
const maxPooledArena = 64 << 10

func (db *DB) multiGet(keys [][]byte, trs []*iostat.Trace) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	if len(keys) == 0 {
		return vals, nil
	}
	b := batchPool.Get().(*pointBatch)
	b.keys, b.trs = keys, trs
	b.hits = slices.Grow(b.hits[:0], len(keys))[:len(keys)]
	b.order = slices.Grow(b.order[:0], len(keys))[:len(keys)]
	staged, err := db.walk(b, b.buf[:0], kv.MaxSeqNum, true)
	if err == nil {
		total := 0
		for i := range b.hits {
			total += len(b.hits[i].value)
		}
		arena := make([]byte, total)
		at := 0
		for i := range b.hits {
			if h := &b.hits[i]; h.live {
				end := at + copy(arena[at:], h.value)
				vals[i] = arena[at:end:end]
				at = end
			}
		}
	}
	if cap(staged) <= maxPooledArena {
		b.buf = staged[:0]
	}
	clear(b.hits)
	b.keys, b.trs = nil, nil
	batchPool.Put(b)
	return vals, err
}

// getOne is a point read as a batch of one: the key's newest value
// visible at snap, appended to dst; dst comes back unchanged on any
// error, ErrNotFound included. Get, GetAppend, GetTraced and
// Snapshot.Get are this.
func (db *DB) getOne(key []byte, snap kv.SeqNum, dst []byte, tr *iostat.Trace) ([]byte, error) {
	var hit [1]pointHit
	arena, err := db.walkOne(key, &hit, dst, snap, true, tr)
	if err != nil {
		return dst, err
	}
	if !hit[0].live {
		return dst, ErrNotFound
	}
	// The value is the arena's tail past dst, a suffix of it (the expiry
	// prefix stripped), or the value-log read; either way it replaces the
	// appended entry in place, preserving the append contract without a
	// second buffer.
	return append(arena[:len(dst)], hit[0].value...), nil
}

// walkOne walks a batch of one whose slices are arrays on the stack, so a
// single Get takes nothing from a pool unless it reaches a table; the
// key's outcome lands in hit, and the arena is returned.
func (db *DB) walkOne(key []byte, hit *[1]pointHit, arena []byte, snap kv.SeqNum, user bool, tr *iostat.Trace) ([]byte, error) {
	keys, order := [1][]byte{key}, [1]int{}
	var b pointBatch
	b.keys, b.hits, b.order = keys[:], hit[:], order[:]
	if tr != nil {
		b.trs = []*iostat.Trace{tr}
	}
	return db.walk(&b, arena, snap, user)
}

// pointBatch is one batch of point reads: the caller's keys (and traces),
// the permutation that visits them in key order, what the walk found for
// each (both as long as keys), and the batch's counts. A MultiGet's batch
// is pooled, with the buffer its values are staged in; a Get's is
// walkOne's. The values' arena and the table probe are walk's locals, not
// fields: a pointer loaded from the batch and handed on would move a
// Get's arrays to the heap.
type pointBatch struct {
	keys  [][]byte
	trs   []*iostat.Trace // one per key when traced, else nil
	order []int
	hits  []pointHit
	tally iostat.Tally
	buf   []byte // MultiGet's arena, kept for the next batch
}

// pointHit is one key's outcome: its filter hash, and once found the
// entry's kind and raw value (the walk's arena[start:end]); a user read
// resolves it into value, live.
type pointHit struct {
	kh         filter.KeyHash
	kind       kv.Kind
	found      bool
	start, end int
	value      []byte
	live       bool
}

var batchPool = sync.Pool{New: func() any { return new(pointBatch) }}

// trace returns key i's trace, nil when the batch is not traced.
func (b *pointBatch) trace(i int) *iostat.Trace {
	if b.trs == nil {
		return nil
	}
	return b.trs[i]
}

// walk is the engine's one point-read walk: every point read — Get,
// GetAppend, GetTraced, Snapshot.Get, MultiGet, and the engine's own
// latest — is a batch through it, and a single Get is a batch of one. It
// pins one view for the batch and visits the keys in key order (by a
// sorted permutation; duplicates kept, results left in the caller's
// order): the memtables newest first, then per level each run newest
// first, through a cursor that moves forward over the run's tables. Each
// table screens a key by sequence bound and by filter, with the key's
// hash computed once; the keys that reach a table share the batch's
// probe, and with it the start-block search and any block load. A user
// read resolves every found entry through visible under the same pin,
// counts its lookups, and takes one clock pair: each key's share of the
// batch's time goes into the get histogram and its trace. The batch's
// counts reach Stats once, when it ends. Found values are appended to
// arena, which walk returns.
func (db *DB) walk(b *pointBatch, arena []byte, snap kv.SeqNum, user bool) (_ []byte, err error) {
	var start time.Time
	if user {
		start = time.Now()
	}
	n := len(b.keys)
	for i := range b.order {
		b.order[i] = i
	}
	if n > 1 {
		slices.SortStableFunc(b.order, func(x, y int) int { return bytes.Compare(b.keys[x], b.keys[y]) })
	}

	view, bound, err := db.pin()
	if err != nil {
		return arena, err
	}
	snap = min(snap, bound)
	var probe *sstable.Probe // taken when the first key reaches a table
	pending := n
	found := func(i int, kind kv.Kind, raw []byte) { // copies the raw value into the arena
		h := &b.hits[i]
		h.found, h.kind, h.start = true, kind, len(arena)
		arena = append(arena, raw...)
		h.end = len(arena)
		pending--
	}
	for _, i := range b.order {
		if value, kind, ok := view.mem.Get(b.keys[i], snap); ok {
			found(i, kind, value)
			if tr := b.trace(i); tr != nil {
				tr.MemtableHit = true
				tr.Source = "memtable"
			}
		}
	}
	imms := view.imms
	for j := len(imms) - 1; j >= 0 && pending > 0; j-- { // newest immutable first
		for _, i := range b.order {
			if b.hits[i].found {
				continue
			}
			tr := b.trace(i)
			if tr != nil {
				tr.ImmutablesChecked++
			}
			if value, kind, ok := imms[j].Get(b.keys[i], snap); ok {
				found(i, kind, value)
				if tr != nil {
					tr.Source = fmt.Sprintf("immutable-%d", len(imms)-1-j)
				}
			}
		}
	}

	for i := range b.hits {
		if h := &b.hits[i]; !h.found {
			h.kh = filter.HashKey(b.keys[i]) // shared by every filter this key meets
		}
	}
runs:
	for li, level := range view.v.levels {
		for ri := len(level) - 1; ri >= 0 && pending > 0; ri-- { // newest run first
			tables := cursor{tables: level[ri].tables}
			for _, i := range b.order {
				h := &b.hits[i]
				if h.found {
					continue
				}
				key, tr := b.keys[i], b.trace(i)
				rt := tr.AddRun(li, len(level)-1-ri)
				th := tables.seek(key)
				if th == nil {
					if rt != nil {
						rt.Decision = iostat.DecisionFenceSkip
					}
					continue
				}
				if rt != nil {
					rt.File = th.meta.Num
				}
				// Seq bounds prune only when the whole file is newer than
				// the snapshot.
				if kv.SeqNum(th.meta.SmallestSeq) > snap {
					if rt != nil {
						rt.Decision = iostat.DecisionSeqSkip
					}
					continue
				}
				if !th.reader.MayContain(h.kh, &b.tally, rt) {
					if rt != nil {
						rt.Decision = iostat.DecisionFilterNegative
					}
					continue
				}
				b.tally.RunsProbed++
				if rt != nil {
					rt.Decision = iostat.DecisionProbed
				}
				if probe == nil {
					probe = sstable.NewProbe()
				}
				at := len(arena)
				if arena, h.kind, h.found, err = probe.Get(th.reader, key, h.kh, snap, arena, &b.tally, rt); err != nil {
					break runs
				}
				if h.found {
					h.start, h.end = at, len(arena)
					pending--
					if rt != nil {
						rt.Found = true
						tr.Source = fmt.Sprintf("L%d/run%d/file%d", li, len(level)-1-ri, th.meta.Num)
					}
				}
			}
		}
	}
	if probe != nil {
		probe.Release()
	}
	if err == nil && user {
		err = db.resolve(b, arena)
	}
	view.unref()

	if user {
		b.tally.PointLookups += int64(n)
		share := time.Since(start)
		if n > 1 {
			share /= time.Duration(n)
		}
		db.lat.Get.RecordN(int64(share), n)
		for _, tr := range b.trs {
			tr.ElapsedUs = float64(share.Nanoseconds()) / 1e3
		}
	}
	b.tally.FlushTo(db.stats)
	return arena, err
}

// resolve turns each found entry of a walked batch into the value a user
// sees, through visible, while the walk's view is still pinned (a value
// pointer's segment outlives the pin), and completes the traces.
func (db *DB) resolve(b *pointBatch, arena []byte) error {
	for i := range b.hits {
		h := &b.hits[i]
		if !h.found {
			continue
		}
		value, _, live, err := db.visible(b.keys[i], h.kind, arena[h.start:h.end])
		if err != nil {
			return err
		}
		h.value, h.live = value, live
		if tr := b.trace(i); tr != nil {
			tr.Tombstone = !live
			tr.VlogRead = h.kind == kv.KindValuePointer
			if live {
				tr.Found = true
				tr.SetValue(value)
			}
		}
	}
	return nil
}

// scanChunk is the size of the buffers ScanAll copies rows into.
const scanChunk = 8 << 10

// ScanAll is the one copying scan loop, behind every callback-style scan
// of this package and of internal/shard (whose merged Scanner has the
// same four methods): it steps sc until the range is exhausted or fn
// returns false, handing fn fresh copies of each key and value — fn owns
// its slices — and returns the scanner's error. Closing sc stays with
// the caller. The copies are cut from 8 KiB chunks that are filled once
// and never reused, one allocation per chunk rather than two per row; a
// row larger than a chunk gets a buffer of its own. Each slice's capacity
// ends where it does, so appending to one never touches another, and a
// row fn keeps pins its chunk. An empty key or value is handed over as
// nil.
func ScanAll(sc interface {
	Next() bool
	Key() []byte
	Value() []byte
	Err() error
}, fn func(key, value []byte) bool) error {
	var chunk []byte
	for sc.Next() {
		k, v := sc.Key(), sc.Value()
		n := len(k) + len(v)
		var row []byte
		if n > scanChunk {
			row = make([]byte, n)
		} else {
			if n > cap(chunk)-len(chunk) {
				chunk = make([]byte, 0, scanChunk)
			}
			row = chunk[len(chunk) : len(chunk)+n]
			chunk = chunk[:len(chunk)+n]
		}
		copy(row[copy(row, k):], v)
		if !fn(clip(row[:len(k)]), clip(row[len(k):])) {
			break
		}
	}
	return sc.Err()
}

// clip returns b with its capacity cut to its length, or nil when empty.
func clip(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// observe is the engine's one latency-recording step: an operation reads
// start := time.Now() before its work and calls db.observe after.
func (db *DB) observe(pick func(*iostat.OpLatencies) *iostat.Histogram, start time.Time) {
	pick(db.lat).Observe(time.Since(start))
}

func latPut(l *iostat.OpLatencies) *iostat.Histogram    { return &l.Put }
func latDelete(l *iostat.OpLatencies) *iostat.Histogram { return &l.Delete }
func latScan(l *iostat.OpLatencies) *iostat.Histogram   { return &l.Scan }
func latBatch(l *iostat.OpLatencies) *iostat.Histogram  { return &l.Batch }
