// Read-path scratch pooling: the per-lookup working set of a point read
// (decoded block view, restart array, block iterator, encoded search
// key, and the raw buffer a missed block is read into) is recycled
// through a sync.Pool so a Get allocates nothing, hit or miss, unless the
// cache admits the block it missed.

package sstable

import (
	"bytes"
	"sync"

	"lsmkv/internal/fence"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
)

// readScratch bundles everything a single point lookup needs to borrow.
// It is reused across the blocks of one lookup and, via scratchPool,
// across lookups; nothing in it may escape GetAppend.
type readScratch struct {
	blk    block
	it     blockIter
	search []byte // encoded internal search key
	raw    []byte // block read buffer (cache misses and the cache-less path)
}

var scratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// putReadScratch drops the borrowed views into cached/raw bytes (so the
// pool does not pin evicted blocks) and recycles the scratch.
func putReadScratch(sc *readScratch) {
	sc.blk.data = nil
	sc.blk.hashIndex = fence.HashIndex{}
	sc.blk.hasHash = false
	sc.it.b = nil
	sc.it.val = nil
	scratchPool.Put(sc)
}

// GetAppend is the table's one point lookup: the newest version of
// userKey visible at seq, its value appended to dst (which may be nil),
// with the block-level work — the fence/learned landing block, per-block
// partitioned filter verdicts, cache and read accounting — recorded into
// rt when tracing (rt non-nil). It performs zero heap allocations unless
// the cache admits a block it missed.
func (r *Reader) GetAppend(userKey []byte, kh filter.KeyHash, seq kv.SeqNum, dst []byte, rt *iostat.RunTrace) (value []byte, kind kv.Kind, found bool, err error) {
	sc := scratchPool.Get().(*readScratch)
	defer putReadScratch(sc)
	sc.search = kv.MakeSearchKey(userKey, seq).Encode(sc.search[:0])
	b := r.findStartBlock(userKey)
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
		if r.partitions != nil {
			r.opts.Stats.FilterProbes.Add(1)
			if !r.partitions[b].MayContainHash(kh) {
				r.opts.Stats.FilterNegatives.Add(1)
				if rt != nil {
					rt.PartitionNegatives++
				}
				continue
			}
		}
		if err := r.loadBlock(&sc.blk, &sc.raw, r.index.Entry(b).Handle, rt); err != nil {
			return dst, 0, false, err
		}
		touched = true
		if rt != nil {
			rt.Blocks++
		}
		it := &sc.it
		it.reset(&sc.blk)
		var ok bool
		if r.opts.UseBlockHashIndex && sc.blk.hasHash {
			restart, res := sc.blk.hashIndex.Lookup(userKey)
			switch res {
			case fence.LookupMiss:
				continue // definitely not in this block
			case fence.LookupHit:
				ok = it.scanFrom(restart, sc.search)
				// The hash index may point at the restart interval where
				// the key lives, but the visible version can precede the
				// search key within it; a miss here is authoritative for
				// this block only.
			default:
				ok = it.seekGEEnc(sc.search)
			}
		} else {
			ok = it.seekGEEnc(sc.search)
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
		r.opts.Stats.FilterFalsePositives.Add(1)
		if rt != nil {
			rt.FalsePositive = true
		}
	}
	return dst, 0, false, nil
}
