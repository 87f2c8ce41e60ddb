// Package cache implements the block cache of the read path (tutorial
// Module II-iii): a sharded, capacity-bounded cache of raw sstable blocks
// keyed by (file number, block offset), with a choice of LRU or CLOCK
// replacement behind one admission rule — a full cache takes a missed
// block on its second miss, not its first, so one-touch traffic (scans,
// compaction inputs, uniform reads over a store far larger than the
// cache) neither allocates nor evicts. It also provides the
// compaction-aware warming hook (Leaper-style) that core uses to
// re-fetch hot data after compaction invalidates it — the buffer-cache
// invalidation problem the tutorial highlights for LSM-trees.
package cache

import "sync"

// Policy selects the replacement algorithm.
type Policy int

const (
	// LRU evicts the least recently used block.
	LRU Policy = iota
	// Clock approximates LRU with a second-chance ring at lower
	// bookkeeping cost.
	Clock
)

const numShards = 16

type blockKey struct {
	file   uint64
	offset uint64
}

// Cache is a sharded block cache. The zero value is not usable; call New.
type Cache struct {
	shards [numShards]shard
}

// New creates a cache holding up to capacity bytes of block data.
// Capacity is split evenly across shards; a zero or negative capacity
// yields a cache that stores nothing.
func New(capacity int64, policy Policy) *Cache {
	c := &Cache{}
	per := capacity / numShards
	for i := range c.shards {
		c.shards[i].init(per, policy)
	}
	return c
}

func (k blockKey) hash() uint64 {
	h := k.file*0x9e3779b97f4a7c15 ^ k.offset*0xc2b2ae3d27d4eb4f
	return h ^ h>>29
}

func (c *Cache) shard(k blockKey) *shard { return &c.shards[k.hash()%numShards] }

// Get returns the cached block, if resident.
func (c *Cache) Get(file, offset uint64) ([]byte, bool) {
	k := blockKey{file, offset}
	return c.shard(k).get(k)
}

// Insert adds a block unconditionally and takes ownership of its bytes:
// the caller's statement that the block is hot (compaction-aware
// prefetch). Blocks larger than a shard's capacity are ignored.
func (c *Cache) Insert(file, offset uint64, block []byte) {
	k := blockKey{file, offset}
	c.shard(k).insert(k, block)
}

// Offer is what a read does with a block that just missed: the cache
// copies it in and reports true if there is free room or if this is the
// block's second miss within the doorkeeper's window, and otherwise only
// remembers the miss. One-touch traffic — uniform point misses, scans,
// compaction inputs — therefore costs neither an allocation nor a
// resident block; block is the caller's to reuse either way. The copy is
// made between the decision and the insert, with the shard unlocked: an
// allocation can stall on the collector, and other readers need the lock.
func (c *Cache) Offer(file, offset uint64, block []byte) bool {
	k := blockKey{file, offset}
	h := k.hash() // hashed once: the shard, then the doorkeeper
	s := &c.shards[h%numShards]
	if !s.admits(h, int64(len(block))+entryOverhead) {
		return false
	}
	return s.insert(k, append([]byte(nil), block...))
}

// EvictFile drops every cached block belonging to file — what happens
// implicitly when compaction deletes an input file and its pages leave
// the cache.
func (c *Cache) EvictFile(file uint64) {
	for i := range c.shards {
		c.shards[i].evictFile(file)
	}
}

// ResidentOffsets returns the block offsets of the file currently cached
// — the hot-block telemetry the compaction-aware prefetcher translates
// into key ranges to re-warm.
func (c *Cache) ResidentOffsets(file uint64) []uint64 {
	var out []uint64
	for i := range c.shards {
		out = c.shards[i].residentOffsets(file, out)
	}
	return out
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].length()
	}
	return n
}

// entry is one slot of a shard's slab. Slot 0 is the sentinel of the
// circular recency list (next = newest, prev = next victim); free slots
// are chained through next.
type entry struct {
	key        blockKey
	data       []byte
	prev, next int32
	ref        bool // Clock reference bit
}

// entryOverhead is the bookkeeping charged per block on top of its bytes.
const entryOverhead = 64

type shard struct {
	mu       sync.Mutex
	capacity int64
	clock    bool
	size     int64
	table    map[blockKey]int32 // key -> slab slot
	slab     []entry
	free     int32 // first free slot, 0 when none

	// door is the admission doorkeeper: a direct-mapped table of the
	// fingerprints of recent rejected misses, one slot per 4 KiB of
	// capacity — at the default 4 KiB BlockSize, about as many misses as
	// the shard holds blocks; only that size is measured, others scale it.
	door []uint32
}

func (s *shard) init(capacity int64, policy Policy) {
	s.capacity = capacity
	s.clock = policy == Clock
	s.table = make(map[blockKey]int32)
	s.slab = make([]entry, 1)
	slots := 1
	for int64(slots)<<12 < capacity {
		slots <<= 1
	}
	s.door = make([]uint32, slots)
}

func (s *shard) get(k blockKey) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.table[k]
	if !ok {
		return nil, false
	}
	s.touch(i)
	return s.slab[i].data, true
}

// touch records a reference: LRU moves the entry to the front, Clock sets
// its bit.
func (s *shard) touch(i int32) {
	if s.clock {
		s.slab[i].ref = true
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

func (s *shard) unlink(i int32) {
	e := &s.slab[i]
	s.slab[e.prev].next = e.next
	s.slab[e.next].prev = e.prev
}

func (s *shard) pushFront(i int32) {
	e, head := &s.slab[i], &s.slab[0]
	e.prev, e.next = 0, head.next
	s.slab[head.next].prev = i
	head.next = i
}

// insert adds or replaces k, taking ownership of data, and reports
// whether k is now resident (a block larger than the shard is not).
func (s *shard) insert(k blockKey, data []byte) bool {
	sz := int64(len(data)) + entryOverhead
	s.mu.Lock()
	defer s.mu.Unlock()
	if sz > s.capacity {
		return false
	}
	if i, ok := s.table[k]; ok {
		s.size += int64(len(data)) - int64(len(s.slab[i].data))
		s.slab[i].data = data
		s.touch(i)
		s.evictUntilFits()
		return true
	}
	i := s.free
	if i != 0 {
		s.free = s.slab[i].next
	} else {
		s.slab = append(s.slab, entry{})
		i = int32(len(s.slab) - 1)
	}
	s.slab[i] = entry{key: k, data: data, ref: true}
	s.pushFront(i)
	s.table[k] = i
	s.size += sz
	s.evictUntilFits()
	return true
}

// admits is the admission rule for an offered block of key hash h and
// cost sz: free room, or a second miss.
func (s *shard) admits(h uint64, sz int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sz <= s.capacity && (s.size+sz <= s.capacity || s.secondMiss(h))
}

// secondMiss reports whether the doorkeeper still remembers a miss of the
// key hashing to h, forgetting it if so and remembering this one if not.
func (s *shard) secondMiss(h uint64) bool {
	h /= numShards // the low bits chose the shard
	fp := uint32(h>>32) | 1
	slot := &s.door[h&uint64(len(s.door)-1)]
	if *slot == fp {
		*slot = 0
		return true
	}
	*slot = fp
	return false
}

// evictUntilFits removes victims from the cold end of the list; under
// Clock a referenced victim loses its bit and goes round again instead.
func (s *shard) evictUntilFits() {
	for s.size > s.capacity {
		i := s.slab[0].prev
		if i == 0 {
			return
		}
		if e := &s.slab[i]; s.clock && e.ref {
			e.ref = false
			s.unlink(i)
			s.pushFront(i)
			continue
		}
		s.remove(i)
	}
}

// remove unlinks slot i from all structures. Caller holds the lock.
func (s *shard) remove(i int32) {
	e := &s.slab[i]
	delete(s.table, e.key)
	s.size -= int64(len(e.data)) + entryOverhead
	s.unlink(i)
	*e = entry{next: s.free}
	s.free = i
}

func (s *shard) evictFile(file uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, i := range s.table {
		if k.file == file {
			s.remove(i)
		}
	}
}

func (s *shard) residentOffsets(file uint64, out []uint64) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.table {
		if k.file == file {
			out = append(out, k.offset)
		}
	}
	return out
}

func (s *shard) length() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table)
}
