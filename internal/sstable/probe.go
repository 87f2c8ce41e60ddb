// The table probe: the point lookup of this package, shaped for batches.
// A batch read walks each run's tables with its keys in ascending order
// and hands every key that passes a table's screens to one Probe, which
// carries the per-lookup working set — decoded block view, restart array,
// block iterator, encoded search key, and the raw buffer a missed block is
// read into — from key to key, and the block it last loaded with it.

package sstable

import (
	"bytes"
	"sync"

	"lsmkv/internal/fence"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
)

// Probe is one batch read's probe state. Keys reach a table in ascending
// order, so a key's start block is searched from the previous key's, and
// a key that lands in the block already loaded shares that load: one
// cache probe, one read, one CRC check. NewProbe takes one from a pool and
// Release returns it; a Probe belongs to one goroutine in between.
type Probe struct {
	blk    block
	it     blockIter
	search []byte // encoded internal search key
	raw    []byte // block read buffer (cache misses and the cache-less path)
	r      *Reader
	seq    kv.SeqNum
	// from is the last block of r the previous key's walk reached: every
	// block before it holds only entries below that key's search key, so
	// no later key's walk needs it.
	from   int
	loaded int // ordinal of the block blk holds for r, -1 for none
}

var probePool = sync.Pool{New: func() any { return new(Probe) }}

// NewProbe returns a pooled Probe, its buffers kept from earlier use.
func NewProbe() *Probe { return probePool.Get().(*Probe) }

// Release drops the borrowed views into cached or read bytes (so a pooled
// Probe pins no evicted block), forgets the table, and returns p to the
// pool with its buffers.
func (p *Probe) Release() {
	p.blk.data = nil
	p.blk.hashIndex = fence.HashIndex{}
	p.blk.hasHash = false
	p.it.b = nil
	p.it.val = nil
	p.r = nil
	probePool.Put(p)
}

// Get is the table's one point lookup: the newest version of userKey in r
// visible at seq, its value appended to dst (which may be nil). Keys given
// for the same table and seq since the Probe last moved to them must
// ascend; a repeated key loads no block its first lookup loaded. The
// per-block partitioned filter verdicts and the block loads count into t,
// and when tracing (rt non-nil) the landing block, the verdicts and the
// cache and read outcomes are recorded into rt. It allocates nothing
// unless the cache admits a block it missed.
func (p *Probe) Get(r *Reader, userKey []byte, kh filter.KeyHash, seq kv.SeqNum, dst []byte, t *iostat.Tally, rt *iostat.RunTrace) (value []byte, kind kv.Kind, found bool, err error) {
	if p.r != r || p.seq != seq {
		p.r, p.seq, p.from, p.loaded = r, seq, 0, -1
	}
	p.search = kv.MakeSearchKey(userKey, seq).Encode(p.search[:0])
	// A key equal to block b's first key starts in b-1, which may end in
	// newer versions of it; if the previous key was the same one, its
	// walk has already been through b-1.
	b := max(r.findStartBlock(userKey, p.from), p.from)
	if rt != nil {
		rt.StartBlock = b
		rt.LearnedIndex = r.model != nil
		if r.partitions != nil {
			rt.Filter = iostat.FilterPartitioned
		}
	}
	touched := false
	for ; b < r.index.Len(); b++ {
		// Once fences pass the user key, no later block can hold it.
		if bytes.Compare(r.index.Entry(b).FirstKey, userKey) > 0 {
			break
		}
		// The walk passes a block only when the next block's first key
		// is at most userKey, so everything before b is below the search
		// key.
		p.from = b
		if r.partitions != nil {
			t.FilterProbes++
			if !r.partitions[b].MayContainHash(kh) {
				t.FilterNegatives++
				if rt != nil {
					rt.PartitionNegatives++
				}
				continue
			}
		}
		if b != p.loaded {
			p.loaded = -1
			if err := r.loadBlock(&p.blk, &p.raw, r.index.Entry(b).Handle, t, rt); err != nil {
				return dst, 0, false, err
			}
			p.loaded = b
		}
		touched = true
		if rt != nil {
			rt.Blocks++
		}
		it := &p.it
		it.reset(&p.blk)
		var ok bool
		if r.opts.UseBlockHashIndex && p.blk.hasHash {
			restart, res := p.blk.hashIndex.Lookup(userKey)
			switch res {
			case fence.LookupMiss:
				continue // definitely not in this block
			case fence.LookupHit:
				ok = it.scanFrom(restart, p.search)
				// The hash index may point at the restart interval where
				// the key lives, but the visible version can precede the
				// search key within it; a miss here is authoritative for
				// this block only.
			default:
				ok = it.seekGEEnc(p.search)
			}
		} else {
			ok = it.seekGEEnc(p.search)
		}
		if it.Error() != nil {
			return dst, 0, false, it.Error()
		}
		if !ok {
			continue // exhausted this block; key may continue in the next
		}
		ik := it.Key()
		if bytes.Equal(ik.UserKey, userKey) {
			return append(dst, it.val...), ik.Kind, true, nil
		}
		break // landed on a later user key: no visible version exists
	}
	if touched {
		// The filter (or absence of one) admitted the probe but the key
		// was not here: a superfluous storage access.
		t.FilterFalsePositives++
		if rt != nil {
			rt.FalsePositive = true
		}
	}
	return dst, 0, false, nil
}
