// Package memtable implements the in-memory write buffer of the LSM-tree:
// a skiplist ordered by internal key. Writes accumulate here until the
// buffer reaches capacity and is frozen and flushed to storage as a sorted
// run (tutorial Module I, "Flush").
//
// The skiplist is insert-only — updates and deletes are new versions with
// higher sequence numbers, per the out-of-place LSM write model — so
// readers only need a read-lock around pointer traversal and never observe
// partially linked towers.
//
// A buffer made by NewTwoLevel adds FloDB's hash front (Balmau et al.,
// EuroSys'17) as a second level of the same Memtable: point writes and
// lookups land in a map, and the map drains into the skiplist when it
// fills or an iterator is made. One lock guards both levels, so a reader
// finds every entry in one level or the other, never in neither; the
// price is that a reader waits while a drain, bounded by the front's
// capacity, holds the lock.
package memtable

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"lsmkv/internal/kv"
)

const (
	maxHeight = 12
	// branching is the expected ratio between adjacent skiplist levels.
	branching = 4
)

type node struct {
	entry kv.Entry
	next  []*node // tower; len(next) == node height
}

// Memtable is a concurrent ordered buffer of versioned entries. The zero
// value is not usable; call New or NewTwoLevel.
//
// All entry payloads, nodes, and towers live in memtable-owned arenas
// (see arena.go): the buffer is insert-only and released wholesale after
// flush, so inserts avoid per-entry heap allocation entirely.
type Memtable struct {
	mu     sync.RWMutex
	head   *node
	height int
	rng    *rand.Rand
	// size and count cover both levels.
	size  atomic.Int64
	count atomic.Int64

	// front is the hash level of a two-level buffer, nil for a plain one:
	// the newest version of each key added since the last drain, holding
	// frontBytes of payload. Add drains it at frontCap.
	front      map[string]kv.Entry
	frontBytes int64
	frontCap   int64

	arena     arena
	nodeSlab  []node
	towerSlab []*node
	prev      [maxHeight]*node // search scratch; guarded by mu
}

// New returns an empty memtable.
func New() *Memtable {
	return &Memtable{
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(0xda7aba5e)),
	}
}

// NewTwoLevel returns an empty two-level buffer whose hash front holds up
// to frontCap bytes before draining into the skiplist.
//
// Unlike FloDB, an overwritten front entry's older version is demoted to
// the skiplist instead of dropped, preserving snapshot reads.
func NewTwoLevel(frontCap int64) *Memtable {
	if frontCap < 1 {
		frontCap = 1 << 20
	}
	m := New()
	m.front = make(map[string]kv.Entry)
	m.frontCap = frontCap
	return m
}

func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Intn(branching) == 0 {
		h++
	}
	return h
}

// findGE returns the first node with key >= target, filling prev with the
// rightmost node before target at every level when prev is non-nil.
// Callers must hold at least a read lock.
func (m *Memtable) findGE(target kv.InternalKey, prev []*node) *node {
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for {
			nxt := x.next[level]
			if nxt == nil || kv.CompareInternal(nxt.entry.Key, target) >= 0 {
				break
			}
			x = nxt
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Add inserts a new versioned entry. The entry is deep-copied into the
// memtable's arena so callers may reuse their buffers. Duplicate internal
// keys (same user key, seq and kind) overwrite in place; the engine never
// produces them in normal operation. A two-level buffer stores the entry
// in its front, demoting the key's previous front version to the
// skiplist, and drains the front once it holds frontCap bytes.
func (m *Memtable) Add(e kv.Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.Key.UserKey = m.arena.copyBytes(e.Key.UserKey)
	e.Value = m.arena.copyBytes(e.Value)
	if m.front == nil {
		m.link(e)
		return
	}
	if old, ok := m.front[string(e.Key.UserKey)]; ok {
		m.demote(old)
	}
	m.front[string(e.Key.UserKey)] = e
	m.frontBytes += int64(e.Size())
	m.size.Add(int64(e.Size()))
	m.count.Add(1)
	if m.frontBytes >= m.frontCap {
		m.drainLocked()
	}
}

// drainLocked moves every front entry into the skiplist. Caller holds mu
// for writing, so no reader sees an entry in neither level.
func (m *Memtable) drainLocked() {
	for _, e := range m.front {
		m.demote(e)
	}
	clear(m.front)
}

// demote moves front entry e into the skiplist. Its payload was counted
// as it arrived; link counts it again with the skiplist's overhead.
func (m *Memtable) demote(e kv.Entry) {
	m.frontBytes -= int64(e.Size())
	m.size.Add(-int64(e.Size()))
	m.count.Add(-1)
	m.link(e)
}

// link inserts e, whose bytes the memtable owns, into the skiplist.
func (m *Memtable) link(e kv.Entry) {
	for i := range m.prev {
		m.prev[i] = m.head
	}
	if n := m.findGE(e.Key, m.prev[:]); n != nil && kv.CompareInternal(n.entry.Key, e.Key) == 0 {
		m.size.Add(int64(len(e.Value) - len(n.entry.Value)))
		n.entry.Value = e.Value
		return
	}
	h := m.randomHeight()
	if h > m.height {
		m.height = h
	}
	n := m.newNode()
	n.entry = e
	n.next = m.newTower(h)
	for level := 0; level < h; level++ {
		n.next[level] = m.prev[level].next[level]
		m.prev[level].next[level] = n
	}
	m.size.Add(int64(e.Size()) + 48) // payload plus tower overhead estimate
	m.count.Add(1)
}

// Get returns the newest version of key visible at snapshot seq. found
// reports whether any visible version exists; if the visible version is a
// tombstone, found is true and kind is KindDelete.
func (m *Memtable) Get(key []byte, seq kv.SeqNum) (value []byte, kind kv.Kind, found bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.front != nil {
		// A front version too new for seq leaves the next older one to
		// the skiplist, where demotion put it.
		if e, ok := m.front[string(key)]; ok && e.Key.Visible(seq) {
			return e.Value, e.Key.Kind, true
		}
	}
	n := m.findGE(kv.MakeSearchKey(key, seq), nil)
	if n == nil {
		return nil, 0, false
	}
	ik := n.entry.Key
	if !ik.Visible(seq) || string(ik.UserKey) != string(key) {
		return nil, 0, false
	}
	return n.entry.Value, ik.Kind, true
}

// ApproxSize returns the estimated resident bytes of both levels. The
// engine compares it against the configured buffer capacity to decide when
// to flush.
func (m *Memtable) ApproxSize() int64 { return m.size.Load() }

// Len returns the number of entries in both levels.
func (m *Memtable) Len() int { return int(m.count.Load()) }

// NewIterator drains a two-level buffer's front and returns an iterator
// over the skiplist. The iterator observes entries linked before each
// positioning call (a later front entry only once drained); the engine
// freezes memtables before flushing them, so flush iterators see a stable
// set.
func (m *Memtable) NewIterator() kv.Iterator {
	if m.front != nil {
		m.mu.Lock()
		m.drainLocked()
		m.mu.Unlock()
	}
	return &iterator{m: m}
}

type iterator struct {
	m   *Memtable
	cur *node
}

var _ kv.Iterator = (*iterator)(nil)

func (it *iterator) SeekGE(target kv.InternalKey) bool {
	it.m.mu.RLock()
	defer it.m.mu.RUnlock()
	it.cur = it.m.findGE(target, nil)
	return it.cur != nil
}

func (it *iterator) First() bool {
	it.m.mu.RLock()
	defer it.m.mu.RUnlock()
	it.cur = it.m.head.next[0]
	return it.cur != nil
}

func (it *iterator) Next() bool {
	if it.cur == nil {
		return false
	}
	it.m.mu.RLock()
	defer it.m.mu.RUnlock()
	it.cur = it.cur.next[0]
	return it.cur != nil
}

func (it *iterator) Valid() bool { return it.cur != nil }

func (it *iterator) Key() kv.InternalKey { return it.cur.entry.Key }

func (it *iterator) Value() []byte { return it.cur.entry.Value }

func (it *iterator) Error() error { return nil }

func (it *iterator) Close() error {
	it.cur = nil
	return nil
}
