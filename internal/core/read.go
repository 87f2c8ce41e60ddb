package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/memtable"
	"lsmkv/internal/vlog"
)

// The read path. Every read — Get, GetTraced, Snapshot.Get, a Scanner —
// takes the same steps, each owned by one function:
//
//	pin         the view: the published readState (active memtable, frozen
//	            ones, version), referenced without taking db.mu, and the
//	            watermark every read is bounded by
//	getInternal point reads: memtables newest first, then per run the fence
//	            (run.find), sequence-bound and filter (Reader.MayContain)
//	            screens, then the block load (Reader.GetAppend)
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
// prefix; a value pointer is followed into the value log. A malformed
// entry is an error on every read form, never a guess. The returned value
// aliases raw unless the value log was read.
func (db *DB) visible(key []byte, kind kv.Kind, raw []byte) (value []byte, live bool, err error) {
	switch kind {
	case kv.KindDelete:
		return nil, false, nil
	case kv.KindSetTTL:
		exp, payload, ok := kv.SplitExpiryValue(raw)
		if !ok {
			return nil, false, fmt.Errorf("lsmkv: corrupt ttl value for key %q", key)
		}
		if db.opts.Clock() >= exp {
			return nil, false, nil
		}
		return payload, true, nil
	case kv.KindValuePointer:
		ptr, err := vlog.DecodePointer(raw)
		if err != nil {
			return nil, false, err
		}
		db.stats.VlogReads.Add(1)
		if value, err = db.vlog.Get(ptr); err != nil {
			return nil, false, err
		}
		return value, true, nil
	}
	return raw, true, nil
}

// Get returns the newest visible value of key.
func (db *DB) Get(key []byte) ([]byte, error) { return db.GetAppend(key, nil) }

// GetAppend is Get with the value appended to dst (which may be nil)
// instead of freshly allocated, returning the extended slice. With the
// target block resident in the cache and dst capacious enough, a lookup
// performs zero heap allocations — the steady-state read hot path.
func (db *DB) GetAppend(key, dst []byte) ([]byte, error) { return db.timedGet(key, dst, nil) }

// GetTraced is Get with a full read-path trace: which buffers and sorted
// runs were consulted, how each run screened the probe (fences, sequence
// bounds, filters), and the block-level work the survivors cost. The trace
// is returned even when the key is absent (err == ErrNotFound) — that is
// the interesting case for diagnosing read amplification.
func (db *DB) GetTraced(key []byte) ([]byte, *iostat.Trace, error) {
	tr := iostat.NewTrace(key)
	value, err := db.timedGet(key, nil, tr)
	return value, tr, err
}

// timedGet is the one timed point read: it stamps the Get histogram, and
// tr when tracing, with the lookup's wall time.
func (db *DB) timedGet(key, dst []byte, tr *iostat.Trace) ([]byte, error) {
	start := time.Now()
	value, err := db.getAppend(key, kv.MaxSeqNum, dst, tr)
	if tr != nil {
		tr.ElapsedUs = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	db.observe(latGet, start)
	return value, err
}

// getAppend is the point read at snapshot snap: the newest version found
// by getInternal, resolved by visible, appended to dst.
func (db *DB) getAppend(key []byte, snap kv.SeqNum, dst []byte, tr *iostat.Trace) ([]byte, error) {
	db.stats.PointLookups.Add(1)
	base := len(dst)
	found, kind, ok, err := db.getInternal(key, snap, dst, tr)
	if err != nil {
		return dst, err
	}
	if !ok {
		return dst, ErrNotFound
	}
	value, live, err := db.visible(key, kind, found[base:])
	if err != nil {
		return dst, err
	}
	if tr != nil {
		tr.Tombstone = !live
		tr.VlogRead = kind == kv.KindValuePointer
		if live {
			tr.Found = true
			tr.SetValue(value)
		}
	}
	if !live {
		return dst, ErrNotFound
	}
	// value is found's tail, a suffix of it (the expiry prefix stripped),
	// or the value-log read; either way it replaces the appended entry in
	// place, preserving the append contract without a second buffer.
	return append(found[:base], value...), nil
}

// getInternal walks buffer -> immutables -> tree, newest first, returning
// the first version of key at or below snap and the watermark pin loaded,
// appended to dst. tr, when non-nil, records every screening decision
// along the way.
func (db *DB) getInternal(key []byte, snap kv.SeqNum, dst []byte, tr *iostat.Trace) (value []byte, kind kv.Kind, found bool, err error) {
	view, bound, err := db.pin()
	if err != nil {
		return nil, 0, false, err
	}
	defer view.unref()
	snap = min(snap, bound)

	if value, kind, found = view.mem.Get(key, snap); found {
		if tr != nil {
			tr.MemtableHit = true
			tr.Source = "memtable"
		}
		return append(dst, value...), kind, true, nil
	}
	imms := view.imms
	for i := len(imms) - 1; i >= 0; i-- { // newest immutable first
		if tr != nil {
			tr.ImmutablesChecked++
		}
		if value, kind, found = imms[i].Get(key, snap); found {
			if tr != nil {
				tr.Source = fmt.Sprintf("immutable-%d", len(imms)-1-i)
			}
			return append(dst, value...), kind, true, nil
		}
	}

	kh := filter.HashKey(key) // shared across every filter probe below
	for li, level := range view.v.levels {
		for ri := len(level) - 1; ri >= 0; ri-- { // newest run first
			r := level[ri]
			rt := tr.AddRun(li, len(level)-1-ri)
			th := r.find(key)
			if th == nil {
				if rt != nil {
					rt.Decision = iostat.DecisionFenceSkip
				}
				continue
			}
			if rt != nil {
				rt.File = th.meta.Num
			}
			// Seq bounds prune only when the whole file is newer than the
			// snapshot.
			if kv.SeqNum(th.meta.SmallestSeq) > snap {
				if rt != nil {
					rt.Decision = iostat.DecisionSeqSkip
				}
				continue
			}
			if !th.reader.MayContain(kh, rt) {
				if rt != nil {
					rt.Decision = iostat.DecisionFilterNegative
				}
				continue
			}
			db.stats.RunsProbed.Add(1)
			if rt != nil {
				rt.Decision = iostat.DecisionProbed
			}
			value, kind, found, err = th.reader.GetAppend(key, kh, snap, dst, rt)
			if err != nil {
				return nil, 0, false, err
			}
			if found {
				if rt != nil {
					rt.Found = true
					tr.Source = fmt.Sprintf("L%d/run%d/file%d", li, len(level)-1-ri, th.meta.Num)
				}
				return value, kind, true, nil
			}
		}
	}
	return nil, 0, false, nil
}

// ScanAll is the one copying scan loop, behind every callback-style scan
// of this package and of internal/shard (whose merged Scanner has the
// same four methods): it steps sc until the range is exhausted or fn
// returns false, handing fn fresh copies of each key and value — fn owns
// its slices — and returns the scanner's error. Closing sc stays with
// the caller.
func ScanAll(sc interface {
	Next() bool
	Key() []byte
	Value() []byte
	Err() error
}, fn func(key, value []byte) bool) error {
	for sc.Next() {
		if !fn(append([]byte(nil), sc.Key()...), append([]byte(nil), sc.Value()...)) {
			break
		}
	}
	return sc.Err()
}

// observe is the engine's one latency-recording step: an operation reads
// start := time.Now() before its work and calls db.observe after.
func (db *DB) observe(pick func(*iostat.OpLatencies) *iostat.Histogram, start time.Time) {
	pick(db.lat).Observe(time.Since(start))
}

func latGet(l *iostat.OpLatencies) *iostat.Histogram    { return &l.Get }
func latPut(l *iostat.OpLatencies) *iostat.Histogram    { return &l.Put }
func latDelete(l *iostat.OpLatencies) *iostat.Histogram { return &l.Delete }
func latScan(l *iostat.OpLatencies) *iostat.Histogram   { return &l.Scan }
func latBatch(l *iostat.OpLatencies) *iostat.Histogram  { return &l.Batch }
