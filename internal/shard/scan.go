package shard

import (
	"bytes"
	"container/heap"
	"time"

	"lsmkv/internal/core"
)

// Scanner merges the ordered streams of one core Scanner per shard into
// a single ascending stream. Shards partition the keyspace, so the merge
// is pure interleaving — no key appears in two shards and no dedup is
// needed. The merge is synchronous (a k-way heap, no goroutines): closing
// a Scanner mid-stream releases every per-shard iterator immediately and
// leaks nothing. While one stream is left, as it always is with one
// shard, the heap is not touched: the stream passes through.
//
// Key and Value return slices valid only until the next call to Next. A
// Scanner is not safe for concurrent use.
type Scanner struct {
	subs []*core.Scanner
	h    scanHeap

	started bool
	closed  bool
	key     []byte
	value   []byte
	err     error
}

type scanItem struct {
	sc    *core.Scanner
	shard int
}

// scanHeap orders live per-shard scanners by their current key; the shard
// index breaks (impossible, keyspaces are disjoint) ties deterministically.
type scanHeap []scanItem

func (h scanHeap) Len() int { return len(h) }
func (h scanHeap) Less(a, b int) bool {
	if c := bytes.Compare(h[a].sc.Key(), h[b].sc.Key()); c != 0 {
		return c < 0
	}
	return h[a].shard < h[b].shard
}
func (h scanHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *scanHeap) Push(x any)   { *h = append(*h, x.(scanItem)) }
func (h *scanHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// newScanner returns a merged Scanner over [lo, hi] (inclusive; nil hi
// scans to the end of the keyspace) at the latest sequence number of each
// shard. Callers must Close it.
func (db *DB) newScanner(lo, hi []byte) (*Scanner, error) {
	return mergeScanners(db.n, func(i int) (*core.Scanner, error) { return db.engines[i].NewScanner(lo, hi) })
}

// mergeScanners opens one core Scanner per shard and merges them; a
// failed open closes the ones before it.
func mergeScanners(n int, open func(i int) (*core.Scanner, error)) (*Scanner, error) {
	subs := make([]*core.Scanner, 0, n)
	for i := 0; i < n; i++ {
		sc, err := open(i)
		if err != nil {
			for _, s := range subs {
				s.Close()
			}
			return nil, err
		}
		subs = append(subs, sc)
	}
	return &Scanner{subs: subs, h: make(scanHeap, 0, n)}, nil
}

// Next advances to the next visible key across all shards, returning
// false at the end of the range or on error (check Err).
func (mc *Scanner) Next() bool {
	if mc.closed || mc.err != nil {
		return false
	}
	if !mc.started {
		mc.started = true
		for i, sub := range mc.subs {
			if sub.Next() {
				mc.h = append(mc.h, scanItem{sc: sub, shard: i})
			} else if err := sub.Err(); err != nil {
				mc.err = err
				return false
			}
		}
		heap.Init(&mc.h)
	} else if len(mc.h) > 0 {
		if top := mc.h[0]; top.sc.Next() {
			if len(mc.h) > 1 {
				heap.Fix(&mc.h, 0)
			}
		} else if err := top.sc.Err(); err != nil {
			mc.err = err
			return false
		} else {
			// Drop the exhausted shard (in place: heap.Pop would box it).
			last := len(mc.h) - 1
			mc.h[0] = mc.h[last]
			if mc.h = mc.h[:last]; last > 0 {
				heap.Fix(&mc.h, 0)
			}
		}
	}
	if len(mc.h) == 0 {
		return false
	}
	top := mc.h[0]
	mc.key, mc.value = top.sc.Key(), top.sc.Value()
	return true
}

// Key returns the current user key; valid until the next Next.
func (mc *Scanner) Key() []byte { return mc.key }

// Value returns the current value; valid until the next Next.
func (mc *Scanner) Value() []byte { return mc.value }

// Err returns the first error the scan hit, if any.
func (mc *Scanner) Err() error { return mc.err }

// Close releases every per-shard scanner; idempotent. Like
// core.Scanner.Close it returns Err so `defer Close` plus one error check
// covers the scan.
func (mc *Scanner) Close() error {
	if mc.closed {
		return mc.err
	}
	mc.closed = true
	for _, sub := range mc.subs {
		if err := sub.Close(); err != nil && mc.err == nil {
			mc.err = err
		}
	}
	return mc.err
}

// Scan calls fn for the newest visible version of every key in [lo, hi]
// (inclusive; nil hi scans to the end of the keyspace) across all shards,
// ascending, until fn returns false or the range is exhausted. fn owns
// the slices it is handed: each call gets fresh copies it may keep.
func (db *DB) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	defer func(start time.Time) { db.lat.Scan.Observe(time.Since(start)) }(time.Now())
	sc, err := db.newScanner(lo, hi)
	if err != nil {
		return err
	}
	defer sc.Close()
	return core.ScanAll(sc, fn)
}

// Snapshot pins a point-in-time view as a vector of per-shard snapshots
// (the public lsmkv.Snapshot is this type). Each shard's view is a
// consistent point in that shard's history; the vector is NOT an atomic
// cut across shards — writes racing with NewSnapshot may land in some
// shards' views and not others'. Within one shard the usual snapshot
// guarantees hold.
type Snapshot struct {
	db    *DB
	snaps []*core.Snapshot
}

// NewSnapshot captures a per-shard snapshot vector. Callers must Release
// it.
func (db *DB) NewSnapshot() *Snapshot {
	snaps := make([]*core.Snapshot, db.n)
	for i, eng := range db.engines {
		snaps[i] = eng.NewSnapshot()
	}
	return &Snapshot{db: db, snaps: snaps}
}

// Get reads key at the owning shard's snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	return s.snaps[Of(key, s.db.n)].Get(key)
}

// Scan iterates the snapshot vector over [lo, hi]; see DB.Scan.
func (s *Snapshot) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	sc, err := s.newScanner(lo, hi)
	if err != nil {
		return err
	}
	defer sc.Close()
	return core.ScanAll(sc, fn)
}

// newScanner returns a merged Scanner pinned at the snapshot vector.
func (s *Snapshot) newScanner(lo, hi []byte) (*Scanner, error) {
	return mergeScanners(len(s.snaps), func(i int) (*core.Scanner, error) { return s.snaps[i].NewScanner(lo, hi) })
}

// Release unpins every per-shard snapshot; idempotent.
func (s *Snapshot) Release() {
	for _, snap := range s.snaps {
		snap.Release()
	}
}
