package cache

import (
	"fmt"
	"sync"
	"testing"
)

func block(n int) []byte { return make([]byte, n) }

var policyName = map[Policy]string{LRU: "lru", Clock: "clock"}

// SizeBytes returns the total bytes resident.
func (c *Cache) SizeBytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.size
		s.mu.Unlock()
	}
	return n
}

func TestCacheBasicGetInsert(t *testing.T) {
	for _, p := range []Policy{LRU, Clock} {
		t.Run(policyName[p], func(t *testing.T) {
			c := New(1<<20, p)
			if _, ok := c.Get(1, 0); ok {
				t.Error("empty cache returned a hit")
			}
			c.Insert(1, 0, []byte("block-a"))
			got, ok := c.Get(1, 0)
			if !ok || string(got) != "block-a" {
				t.Errorf("got %q ok=%v", got, ok)
			}
			// Different offset and file are distinct keys.
			if _, ok := c.Get(1, 1); ok {
				t.Error("wrong offset hit")
			}
			if _, ok := c.Get(2, 0); ok {
				t.Error("wrong file hit")
			}
		})
	}
}

func TestCacheCapacityBounded(t *testing.T) {
	for _, p := range []Policy{LRU, Clock} {
		t.Run(policyName[p], func(t *testing.T) {
			const cap = 64 << 10
			c := New(cap, p)
			for i := 0; i < 1000; i++ {
				c.Insert(1, uint64(i), block(1024))
			}
			if got := c.SizeBytes(); got > cap {
				t.Errorf("size %d exceeds capacity %d", got, cap)
			}
			if c.Len() == 0 {
				t.Error("cache evicted everything")
			}
		})
	}
}

func TestLRUEvictsColdest(t *testing.T) {
	// Room for ~3 blocks per shard so the hot block can coexist with
	// churning cold blocks that land in its shard.
	c := New(16*3*(1024+64), LRU)
	// Insert a hot block, touch it while inserting many cold blocks.
	c.Insert(1, 0, block(1024))
	for i := 1; i < 200; i++ {
		c.Insert(1, uint64(i), block(1024))
		c.Get(1, 0)
	}
	if _, ok := c.Get(1, 0); !ok {
		t.Error("hot block was evicted while cold blocks churned")
	}
}

func TestClockSecondChance(t *testing.T) {
	// Deterministic second-chance check: with blocks A,B,C resident and
	// ref bits cleared by a first eviction sweep, re-referencing B must
	// divert the next eviction to the unreferenced C.
	c := New(16*3*(1024+64), Clock) // 3 blocks per shard
	// Collect 5 offsets that land in the same shard.
	var offs []uint64
	target := c.shard(blockKey{file: 1, offset: 0})
	for o := uint64(0); len(offs) < 5; o++ {
		if c.shard(blockKey{file: 1, offset: o}) == target {
			offs = append(offs, o)
		}
	}
	a, b2, c3, d, e := offs[0], offs[1], offs[2], offs[3], offs[4]
	c.Insert(1, a, block(1024))
	c.Insert(1, b2, block(1024))
	c.Insert(1, c3, block(1024))
	// Inserting D overflows: the sweep clears every ref bit and evicts A.
	c.Insert(1, d, block(1024))
	if _, ok := c.Get(1, a); ok {
		t.Fatal("expected A evicted by first sweep")
	}
	// Re-reference B and D; C stays unreferenced.
	c.Get(1, b2)
	c.Get(1, d)
	// Inserting E overflows again: the hand clears D and B on its way and
	// finds C unreferenced first.
	c.Insert(1, e, block(1024))
	if _, ok := c.Get(1, b2); !ok {
		t.Error("referenced B evicted despite second chance")
	}
	if _, ok := c.Get(1, c3); ok {
		t.Error("unreferenced C survived while B was referenced")
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1<<20, LRU)
	for i := 0; i < 50; i++ {
		c.Insert(7, uint64(i), block(128))
		c.Insert(8, uint64(i), block(128))
	}
	if got := len(c.ResidentOffsets(7)); got != 50 {
		t.Fatalf("%d blocks of file 7 resident, want 50", got)
	}
	c.EvictFile(7)
	if got := len(c.ResidentOffsets(7)); got != 0 {
		t.Errorf("file 7 still has %d blocks after EvictFile", got)
	}
	if got := len(c.ResidentOffsets(8)); got != 50 {
		t.Errorf("file 8 lost blocks: %d", got)
	}
}

// TestEvictFileFreesSlots: blocks admitted through Offer leave with their
// file like inserted ones, and what they occupied is reusable.
func TestEvictFileFreesSlots(t *testing.T) {
	for _, p := range []Policy{LRU, Clock} {
		c := New(16*4*(1024+64), p)
		for round := 0; round < 3; round++ {
			for i := 0; i < 32; i++ {
				c.Offer(7, uint64(i), block(1024))
			}
			if len(c.ResidentOffsets(7)) == 0 {
				t.Fatalf("%v round %d: nothing admitted into an empty cache", p, round)
			}
			c.EvictFile(7)
			if c.Len() != 0 || c.SizeBytes() != 0 || len(c.ResidentOffsets(7)) != 0 {
				t.Fatalf("%v round %d: after EvictFile len=%d size=%d", p, round, c.Len(), c.SizeBytes())
			}
		}
	}
}

// TestOfferAdmitsIntoFreeRoom: while a shard has room a first miss is
// admitted at once, and the cache keeps a copy, not the caller's buffer.
func TestOfferAdmitsIntoFreeRoom(t *testing.T) {
	c := New(1<<20, LRU)
	buf := []byte("first-miss")
	if !c.Offer(3, 0, buf) {
		t.Fatal("a non-full cache declined a block")
	}
	buf[0] = 'X' // the caller reuses its read buffer
	if got, ok := c.Get(3, 0); !ok || string(got) != "first-miss" {
		t.Errorf("got %q ok=%v, want the bytes as offered", got, ok)
	}
}

// TestSecondMissAdmits: a full shard declines a block's first miss and
// admits its second.
func TestSecondMissAdmits(t *testing.T) {
	for _, p := range []Policy{LRU, Clock} {
		c := New(16*4*(1024+64), p) // 4 blocks per shard
		for i := 0; c.SizeBytes() < 16*4*(1024+64); i++ {
			c.Offer(1, uint64(i), block(1024))
		}
		if c.Offer(2, 0, block(1024)) {
			t.Errorf("%v: full cache admitted a first miss", p)
		}
		if _, ok := c.Get(2, 0); ok {
			t.Errorf("%v: declined block is resident", p)
		}
		if !c.Offer(2, 0, block(1024)) {
			t.Errorf("%v: second miss not admitted", p)
		}
		if _, ok := c.Get(2, 0); !ok {
			t.Errorf("%v: admitted block is not resident", p)
		}
		if got, max := c.SizeBytes(), int64(16*4*(1024+64)); got > max {
			t.Errorf("%v: size %d over capacity %d", p, got, max)
		}
	}
}

// TestHotSetSurvivesSweep: a resident hot set outlives one pass over ten
// times the cache's capacity of blocks seen once each — a scan, or a
// compaction reading its inputs — and none of those blocks is kept.
func TestHotSetSurvivesSweep(t *testing.T) {
	for _, p := range []Policy{LRU, Clock} {
		const perShard, hot = 8, 64
		c := New(16*perShard*(1024+64), p)
		for i := 0; i < 100*hot; i++ { // the first 64 find room; the rest fill every shard
			if admitted := c.Offer(1, uint64(i), block(1024)); i < hot && !admitted {
				t.Fatalf("%v: hot block %d not admitted into free room", p, i)
			}
		}
		for i := 0; i < 10*16*perShard; i++ {
			if _, ok := c.Get(9, uint64(i)); ok {
				t.Fatalf("%v: sweep block %d resident before it was read", p, i)
			}
			c.Offer(9, uint64(i), block(1024))
		}
		for i := 0; i < hot; i++ {
			if _, ok := c.Get(1, uint64(i)); !ok {
				t.Errorf("%v: hot block %d evicted by one-touch traffic", p, i)
			}
		}
		if n := len(c.ResidentOffsets(9)); n > 0 {
			t.Errorf("%v: %d one-touch blocks resident", p, n)
		}
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	for _, p := range []Policy{LRU, Clock} {
		c := New(1<<20, p)
		c.Insert(1, 0, []byte("old"))
		c.Insert(1, 0, []byte("new-longer-content"))
		got, ok := c.Get(1, 0)
		if !ok || string(got) != "new-longer-content" {
			t.Errorf("%v: got %q ok=%v", p, got, ok)
		}
		if c.Len() != 1 {
			t.Errorf("%v: duplicate entries for same key: len=%d", p, c.Len())
		}
	}
}

func TestOversizedBlockIgnored(t *testing.T) {
	c := New(1024, LRU) // per-shard capacity is 64 bytes
	c.Insert(1, 0, block(4096))
	if _, ok := c.Get(1, 0); ok {
		t.Error("oversized block should not be cached")
	}
	if c.SizeBytes() != 0 {
		t.Error("oversized insert leaked size accounting")
	}
}

func TestZeroCapacityCache(t *testing.T) {
	c := New(0, LRU)
	c.Insert(1, 0, []byte("x"))
	if _, ok := c.Get(1, 0); ok {
		t.Error("zero-capacity cache must store nothing")
	}
}

func TestCacheConcurrency(t *testing.T) {
	c := New(64<<10, Clock) // small enough to be full, so Offer runs admission
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Insert(uint64(g%3), uint64(i%128), block(256))
				c.Get(uint64((g+1)%3), uint64(i%128))
				if i%500 == 0 {
					c.EvictFile(uint64(g % 3))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.SizeBytes() < 0 {
		t.Error("negative size accounting after concurrent churn")
	}
}

func TestHitRateImprovesWithCapacity(t *testing.T) {
	// Zipf-ish access over 1000 blocks: a bigger cache must hit more.
	run := func(capacity int64) float64 {
		c := New(capacity, LRU)
		hits, total := 0, 0
		for round := 0; round < 5; round++ {
			for i := 0; i < 1000; i++ {
				// Heavily skewed: block i accessed 1000/(i+1) times.
				for rep := 0; rep < 1000/(i+1); rep++ {
					total++
					if _, ok := c.Get(9, uint64(i)); ok {
						hits++
					} else {
						c.Insert(9, uint64(i), block(512))
					}
				}
			}
		}
		return float64(hits) / float64(total)
	}
	small := run(64 << 10)
	large := run(1 << 20)
	if large <= small {
		t.Errorf("hit rate did not improve with capacity: small=%.3f large=%.3f", small, large)
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(1<<20, LRU)
	for i := 0; i < 256; i++ {
		c.Insert(1, uint64(i), block(1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(1, uint64(i%256))
	}
}

func BenchmarkCacheInsertEvict(b *testing.B) {
	c := New(256<<10, Clock)
	blk := block(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(1, uint64(i), blk)
	}
}

func ExampleCache() {
	c := New(1<<20, LRU)
	c.Insert(1, 0, []byte("hello"))
	if data, ok := c.Get(1, 0); ok {
		fmt.Println(string(data))
	}
	// Output: hello
}
