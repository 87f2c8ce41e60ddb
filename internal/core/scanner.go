package core

import (
	"bytes"

	"lsmkv/internal/kv"
)

// Scanner is a pull-based range iterator: it yields the newest visible
// version of every key in [lo, hi] (inclusive; nil hi means +inf),
// ascending, with tombstones and shadowed versions already suppressed and
// value-log pointers already resolved (by DB.visible, as for point
// reads). DB.Scan drains one through ScanAll; the shard router
// heap-merges one Scanner per shard into a single ordered stream, which
// is why the pull form exists.
//
// The Scanner pins the read state it was created against (the tables it
// reads cannot be deleted underneath it) until Close. Key and Value
// return slices that are only valid until the next call to Next; callers
// that retain them must copy. A Scanner is not safe for concurrent use.
type Scanner struct {
	db   *DB
	view *readState
	m    *mergingIter
	lo   []byte
	hi   []byte
	snap kv.SeqNum

	started  bool
	valid    bool
	lastUser []byte
	haveLast bool
	key      []byte
	value    []byte
	expiry   int64
	err      error
	closed   bool
}

// NewScanner returns a Scanner over [lo, hi] at the latest sequence
// number; a nil hi scans to the end of the keyspace. Callers must Close
// it.
func (db *DB) NewScanner(lo, hi []byte) (*Scanner, error) {
	return db.newScanner(lo, hi, kv.MaxSeqNum)
}

// NewScanner returns a Scanner over [lo, hi] pinned at the snapshot.
func (s *Snapshot) NewScanner(lo, hi []byte) (*Scanner, error) {
	if s.released {
		return nil, errSnapshotReleased
	}
	return s.db.newScanner(lo, hi, s.seq)
}

// newScanner assembles the merged iterator stack over the current
// in-memory buffers and every overlapping, range-filter-surviving table,
// pinning the read state until Close; it reads at snap or the watermark
// pin loaded, whichever is lower.
func (db *DB) newScanner(lo, hi []byte, snap kv.SeqNum) (*Scanner, error) {
	db.stats.RangeLookups.Add(1)

	view, bound, err := db.pin()
	if err != nil {
		return nil, err
	}

	// Youngest sources first: their merge ordinal breaks (impossible)
	// ties, and more importantly this keeps the reasoning simple.
	var iters []kv.Iterator
	iters = append(iters, view.mem.NewIterator())
	for i := len(view.imms) - 1; i >= 0; i-- {
		iters = append(iters, view.imms[i].NewIterator())
	}
	if hi == nil || bytes.Compare(lo, hi) <= 0 {
		for _, level := range view.v.levels {
			for ri := len(level) - 1; ri >= 0; ri-- {
				r := level[ri]
				tables := r.overlaps(lo, hi)
				if len(tables) == 0 {
					continue
				}
				// Range-filter screening: drop tables that provably hold
				// no key in [lo, hi]. Unbounded scans skip the filters —
				// they cannot answer a half-open range.
				var kept []*tableHandle
				for _, th := range tables {
					if hi == nil || th.reader.MayContainRange(lo, hi) {
						kept = append(kept, th)
					}
				}
				if len(kept) == 0 {
					continue
				}
				iters = append(iters, newRunIter(&run{tables: kept}))
			}
		}
	}
	var hiCopy []byte
	if hi != nil {
		hiCopy = append(make([]byte, 0, len(hi)), hi...)
	}
	return &Scanner{
		db:   db,
		view: view,
		m:    newMergingIter(iters),
		lo:   append([]byte(nil), lo...),
		hi:   hiCopy,
		snap: min(snap, bound),
	}, nil
}

// Next advances to the next visible key, returning false at the end of
// the range or on error (check Err).
func (sc *Scanner) Next() bool {
	if sc.closed || sc.err != nil {
		return false
	}
	if sc.hi != nil && bytes.Compare(sc.lo, sc.hi) > 0 {
		return false
	}
	var ok bool
	if !sc.started {
		sc.started = true
		ok = sc.m.SeekGE(kv.MakeSearchKey(sc.lo, sc.snap))
	} else if !sc.valid {
		return false
	} else {
		ok = sc.m.Next()
	}
	for ; ok; ok = sc.m.Next() {
		ik := sc.m.Key()
		if sc.hi != nil && bytes.Compare(ik.UserKey, sc.hi) > 0 {
			break
		}
		if !ik.Visible(sc.snap) {
			continue
		}
		if sc.haveLast && bytes.Equal(ik.UserKey, sc.lastUser) {
			continue // older version of an already-emitted (or deleted) key
		}
		sc.lastUser = append(sc.lastUser[:0], ik.UserKey...)
		sc.haveLast = true
		// lastUser is recorded either way, so the older versions of a
		// deleted or expired key stay shadowed.
		value, expiry, live, err := sc.db.visible(sc.lastUser, ik.Kind, sc.m.Value())
		if err != nil {
			sc.err = err
			sc.valid = false
			return false
		}
		if !live {
			continue
		}
		sc.key = sc.lastUser
		sc.value = value
		sc.expiry = expiry
		sc.valid = true
		return true
	}
	if err := sc.m.Error(); err != nil {
		sc.err = err
	}
	sc.valid = false
	return false
}

// Key returns the current user key; valid until the next Next.
func (sc *Scanner) Key() []byte { return sc.key }

// Value returns the current value; valid until the next Next.
func (sc *Scanner) Value() []byte { return sc.value }

// Expiry returns the current key's absolute expiry in unix nanoseconds,
// or 0 if it was written without a TTL.
func (sc *Scanner) Expiry() int64 { return sc.expiry }

// Err returns the first error the scan hit, if any.
func (sc *Scanner) Err() error { return sc.err }

// Close releases the pinned read state and the underlying iterators;
// idempotent. It returns Err (or the close error) so `defer Close` plus
// an error check covers the whole scan.
func (sc *Scanner) Close() error {
	if sc.closed {
		return sc.err
	}
	sc.closed = true
	if err := sc.m.Close(); err != nil && sc.err == nil {
		sc.err = err
	}
	sc.view.unref()
	return sc.err
}
