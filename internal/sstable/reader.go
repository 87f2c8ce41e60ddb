package sstable

import (
	"bytes"
	"encoding/binary"
	"io"
	"sort"

	"lsmkv/internal/fence"
	"lsmkv/internal/filter"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/learned"
	"lsmkv/internal/rangefilter"
)

// BlockCache is the read path's block cache hook. Implementations must be
// safe for concurrent use. The sstable reader keys blocks by (file number,
// block offset).
type BlockCache interface {
	// Get returns the cached block bytes, if resident.
	Get(fileNum, offset uint64) ([]byte, bool)
	// Offer shows the cache a block that just missed; the cache copies it
	// if it admits it and reports whether it did. The caller keeps block.
	Offer(fileNum, offset uint64, block []byte) bool
	// Insert adds block bytes unconditionally; the cache owns them after.
	Insert(fileNum, offset uint64, block []byte)
}

// ReaderOptions configures the read path of one table.
type ReaderOptions struct {
	// FileNum identifies the table in the block cache keyspace.
	FileNum uint64
	// Cache is the shared block cache; nil disables caching.
	Cache BlockCache
	// Stats receives I/O accounting; nil keeps it in a private instance
	// nobody reads.
	Stats *iostat.Stats
	// UseLearnedIndex consults the table's learned model (when present)
	// instead of pure binary search over fences.
	UseLearnedIndex bool
	// UseBlockHashIndex uses per-block hash indexes for point lookups
	// (when the table was written with them).
	UseBlockHashIndex bool
}

// Reader provides random and sequential access to one immutable table.
type Reader struct {
	f    io.ReaderAt
	size int64
	opts ReaderOptions

	index      *fence.Index
	filter     filter.Reader   // table-wide filter (nil when partitioned/none)
	partitions []filter.Reader // per-block filters (partitioned mode)
	rf         rangefilter.Reader
	model      learned.Model // nil when absent/disabled
	props      Properties
}

// OpenReader parses the footer and loads the auxiliary blocks (index,
// filters, model, properties) into memory, mirroring how LSM engines pin
// these structures outside the block cache.
func OpenReader(f io.ReaderAt, size int64, opts ReaderOptions) (*Reader, error) {
	if size < footerLen {
		return nil, ErrCorruptTable
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[81:]) != tableMagic {
		return nil, ErrCorruptTable
	}
	readHandle := func(off int) fence.BlockHandle {
		return fence.BlockHandle{
			Offset: binary.LittleEndian.Uint64(footer[off:]),
			Length: binary.LittleEndian.Uint64(footer[off+8:]),
		}
	}
	indexH, filterH, rfH, learnedH, propsH :=
		readHandle(0), readHandle(16), readHandle(32), readHandle(48), readHandle(64)
	flags := footer[80]

	if opts.Stats == nil {
		opts.Stats = &iostat.Stats{}
	}
	r := &Reader{f: f, size: size, opts: opts}
	readRaw := func(h fence.BlockHandle) ([]byte, error) {
		if h.Length == 0 {
			return nil, nil
		}
		if h.Offset+h.Length > uint64(size) {
			return nil, ErrCorruptTable
		}
		buf := make([]byte, h.Length)
		if _, err := f.ReadAt(buf, int64(h.Offset)); err != nil {
			return nil, err
		}
		return buf, nil
	}

	indexData, err := readRaw(indexH)
	if err != nil {
		return nil, err
	}
	if r.index, err = fence.Decode(indexData); err != nil {
		return nil, err
	}

	filterData, err := readRaw(filterH)
	if err != nil {
		return nil, err
	}
	if flags&flagPartFil != 0 && len(filterData) > 0 {
		n, w := binary.Uvarint(filterData)
		if w <= 0 {
			return nil, ErrCorruptTable
		}
		rest := filterData[w:]
		// Untrusted count: bound the allocation hint by the bytes left.
		capHint := n
		if max := uint64(len(rest)) + 1; capHint > max {
			capHint = max
		}
		r.partitions = make([]filter.Reader, 0, capHint)
		for i := uint64(0); i < n; i++ {
			var part []byte
			var ok bool
			part, rest, ok = kv.DecodeLengthPrefixed(rest)
			if !ok {
				return nil, ErrCorruptTable
			}
			fr, err := filter.NewReader(part)
			if err != nil {
				return nil, err
			}
			r.partitions = append(r.partitions, fr)
		}
		if len(r.partitions) != r.index.Len() {
			return nil, ErrCorruptTable
		}
	} else if len(filterData) > 0 {
		if r.filter, err = filter.NewReader(filterData); err != nil {
			return nil, err
		}
	}

	rfData, err := readRaw(rfH)
	if err != nil {
		return nil, err
	}
	if r.rf, err = rangefilter.NewReader(rfData); err != nil {
		return nil, err
	}

	if opts.UseLearnedIndex {
		learnedData, err := readRaw(learnedH)
		if err != nil {
			return nil, err
		}
		switch LearnedKind(flags >> 2 & 0x3) {
		case LearnedPLR:
			if len(learnedData) > 0 {
				if r.model, err = learned.DecodePLR(learnedData); err != nil {
					return nil, err
				}
			}
		case LearnedRadixSpline:
			if len(learnedData) > 0 {
				if r.model, err = learned.DecodeRadixSpline(learnedData); err != nil {
					return nil, err
				}
			}
		}
	}

	propsData, err := readRaw(propsH)
	if err != nil {
		return nil, err
	}
	if r.props, err = decodeProperties(propsData); err != nil {
		return nil, err
	}
	return r, nil
}

// Properties returns the table's summary metadata.
func (r *Reader) Properties() Properties { return r.props }

// FilterMemory returns the resident bytes of the table's point filter(s)
// alone — the quantity Monkey's allocation distributes across levels.
func (r *Reader) FilterMemory() int {
	total := 0
	if r.filter != nil {
		total += r.filter.ApproxMemory()
	}
	for _, p := range r.partitions {
		total += p.ApproxMemory()
	}
	return total
}

// ApproxIndexMemory returns the resident bytes of pinned per-table
// structures (fences, filters, model).
func (r *Reader) ApproxIndexMemory() int {
	total := r.index.ApproxMemory()
	if r.filter != nil {
		total += r.filter.ApproxMemory()
	}
	for _, p := range r.partitions {
		total += p.ApproxMemory()
	}
	if r.rf != nil {
		total += r.rf.ApproxMemory()
	}
	if r.model != nil {
		total += r.model.ApproxMemory()
	}
	return total
}

// loadBlock is the one data-block loader, behind point lookups, table
// iterators and prefetch alike: block-cache probe, on a miss ReadAt into
// *buf — the caller's reusable buffer, which blk aliases until the
// caller's next load — accounting into the caller's tally t and (when rt
// is non-nil) its per-lookup trace, decodeBlockInto the caller's blk, and
// an Offer of the verified bytes to the cache, which copies them only if
// it admits them. A hit allocates nothing, and neither does a miss the
// cache declines.
func (r *Reader) loadBlock(blk *block, buf *[]byte, h fence.BlockHandle, t *iostat.Tally, rt *iostat.RunTrace) error {
	c := r.opts.Cache
	var raw []byte
	hit := false
	if c != nil {
		if raw, hit = c.Get(r.opts.FileNum, h.Offset); hit {
			t.BlockCacheHits++
			if rt != nil {
				rt.CacheHits++
			}
		} else {
			t.BlockCacheMisses++
			if rt != nil {
				rt.CacheMisses++
			}
		}
	}
	if !hit {
		if uint64(cap(*buf)) < h.Length {
			*buf = make([]byte, h.Length)
		}
		raw = (*buf)[:h.Length]
		if _, err := r.f.ReadAt(raw, int64(h.Offset)); err != nil {
			return err
		}
		t.BlockReads++
		t.BytesRead += int64(h.Length)
		if rt != nil {
			rt.BlockReads++
		}
	}
	err := decodeBlockInto(blk, raw)
	if c != nil && !hit && err == nil {
		if c.Offer(r.opts.FileNum, h.Offset, raw) {
			t.BlockCacheAdmits++
			if rt != nil {
				rt.CacheAdmitted++
			}
		} else {
			t.BlockCacheRejects++
		}
	}
	return err
}

// PrefetchBlock makes the block at ordinal i cache-resident without
// surfacing it (Leaper-style compaction-aware warming). The caller says
// the block is hot, so a miss that admission declined is inserted anyway
// and re-booked from reject to admit: Admits counts what became resident.
// (The doorkeeper keeps that miss's fingerprint; at worst the block is
// readmitted on its first miss after a later eviction.)
func (r *Reader) PrefetchBlock(i int) error {
	c := r.opts.Cache
	if c == nil || i < 0 || i >= r.index.Len() {
		return nil
	}
	var (
		blk block
		buf []byte
		t   iostat.Tally
	)
	h := r.index.Entry(i).Handle
	err := r.loadBlock(&blk, &buf, h, &t, nil)
	if err == nil && t.BlockCacheRejects > 0 {
		c.Insert(r.opts.FileNum, h.Offset, buf[:h.Length])
		t.BlockCacheRejects--
		t.BlockCacheAdmits++
	}
	t.FlushTo(r.opts.Stats)
	return err
}

// NumBlocks returns the number of data blocks.
func (r *Reader) NumBlocks() int { return r.index.Len() }

// BlockFirstKey returns the first user key of block i, or nil when out of
// range. The compaction-aware prefetcher uses it to translate hot block
// offsets into hot key ranges.
func (r *Reader) BlockFirstKey(i int) []byte {
	if i < 0 || i >= r.index.Len() {
		return nil
	}
	return r.index.Entry(i).FirstKey
}

// BlockOrdinalForOffset maps a block's file offset back to its ordinal,
// or -1 when no block starts at that offset.
func (r *Reader) BlockOrdinalForOffset(offset uint64) int {
	n := r.index.Len()
	i := sort.Search(n, func(j int) bool { return r.index.Entry(j).Handle.Offset >= offset })
	if i < n && r.index.Entry(i).Handle.Offset == offset {
		return i
	}
	return -1
}

// PrefetchKey loads into the cache the block that would serve a lookup of
// userKey.
func (r *Reader) PrefetchKey(userKey []byte) error {
	return r.PrefetchBlock(r.findStartBlock(userKey, 0))
}

// findStartBlock returns the ordinal of the first block that can contain
// entries with user key >= userKey, for both lookups and scans. The block
// *before* the first fence >= userKey may hold newer versions of userKey,
// so scanning starts there. The search covers blocks from on: a batch
// passes the start block of its previous, smaller key, which no later key
// can start before.
func (r *Reader) findStartBlock(userKey []byte, from int) int {
	n := r.index.Len()
	var i int
	if r.model != nil && n > 0 {
		x := learned.KeyToUint64(userKey)
		_, lo, hi := r.model.Predict(x)
		lo, hi = max(from, min(lo, n-1)), max(from, min(hi, n-1))
		// The model predicts block ordinals, but its error bound only
		// covers trained fence keys; verify the search landed strictly
		// inside the window (then sortedness makes it globally correct)
		// and widen geometrically otherwise.
		step := hi - lo + 1
		for {
			i = lo + sort.Search(hi-lo+1, func(j int) bool {
				return bytes.Compare(r.index.Entry(lo+j).FirstKey, userKey) >= 0
			})
			if i == lo && lo > from {
				lo = max(from, lo-step)
				step *= 2
				continue
			}
			if i == hi+1 && hi < n-1 {
				hi = min(n-1, hi+step)
				step *= 2
				continue
			}
			break
		}
	} else {
		i = from + sort.Search(n-from, func(j int) bool {
			return bytes.Compare(r.index.Entry(from+j).FirstKey, userKey) >= 0
		})
	}
	if i > 0 {
		i--
	}
	return i
}

// MayContain consults the table's point filter without touching storage,
// counting the probe into t and recording the verdict into rt when
// tracing (rt non-nil). It returns true when the table must be probed.
func (r *Reader) MayContain(kh filter.KeyHash, t *iostat.Tally, rt *iostat.RunTrace) bool {
	verdict := iostat.FilterNone
	if r.filter != nil {
		t.FilterProbes++
		verdict = iostat.FilterMaybe
		if !r.filter.MayContainHash(kh) {
			t.FilterNegatives++
			verdict = iostat.FilterNegativeVerdict
		}
	}
	if rt != nil {
		rt.Filter = verdict
	}
	return verdict != iostat.FilterNegativeVerdict
}

// MayContainRange consults the table's range filter.
func (r *Reader) MayContainRange(lo, hi []byte) bool {
	if r.rf == nil || r.rf.Kind() == rangefilter.KindNone {
		return true
	}
	r.opts.Stats.RangeFilterProbes.Add(1)
	if r.rf.MayContainRange(lo, hi) {
		return true
	}
	r.opts.Stats.RangeFilterNegatives.Add(1)
	return false
}

// Get returns the newest version of userKey visible at snapshot seq.
// found=false means the table holds no visible version. The caller is
// expected to have consulted MayContain first (the engine screens runs
// with the shared key hash); Get itself applies partitioned filters. It
// is a pooled Probe's lookup (see probe.go) of one key, with a fresh
// value, no trace, and its counts added to the reader's Stats.
func (r *Reader) Get(userKey []byte, kh filter.KeyHash, seq kv.SeqNum) (value []byte, kind kv.Kind, found bool, err error) {
	p := NewProbe()
	var t iostat.Tally
	value, kind, found, err = p.Get(r, userKey, kh, seq, nil, &t, nil)
	t.FlushTo(r.opts.Stats)
	p.Release()
	return value, kind, found, err
}

// NewIterator returns an iterator over the whole table.
func (r *Reader) NewIterator() kv.Iterator {
	return &tableIter{r: r, blockOrd: -1}
}

// tableIter is the two-level iterator: fence index on top, block iterator
// below. It owns one decoded block, one block iterator and one read
// buffer, rebound to each block it walks into, so iterating a table
// allocates neither per block nor per cache miss. It adds each block's
// counts to Stats as it loads the block.
type tableIter struct {
	r        *Reader
	blockOrd int
	blk      block
	bi       blockIter
	buf      []byte
	tally    iostat.Tally
	loaded   bool // bi is bound to block blockOrd
	err      error
}

var _ kv.Iterator = (*tableIter)(nil)

func (ti *tableIter) loadBlock(ord int) bool {
	ti.loaded = false
	if ord < 0 || ord >= ti.r.index.Len() {
		return false
	}
	err := ti.r.loadBlock(&ti.blk, &ti.buf, ti.r.index.Entry(ord).Handle, &ti.tally, nil)
	ti.tally.FlushTo(ti.r.opts.Stats)
	if err != nil {
		ti.err = err
		return false
	}
	ti.blockOrd = ord
	ti.bi.reset(&ti.blk)
	ti.loaded = true
	return true
}

func (ti *tableIter) First() bool {
	if !ti.loadBlock(0) {
		return false
	}
	if ti.bi.First() {
		return true
	}
	return ti.advanceBlock()
}

func (ti *tableIter) advanceBlock() bool {
	for {
		if !ti.loadBlock(ti.blockOrd + 1) {
			return false
		}
		if ti.bi.First() {
			return true
		}
	}
}

func (ti *tableIter) SeekGE(target kv.InternalKey) bool {
	start := ti.r.findStartBlock(target.UserKey, 0)
	if !ti.loadBlock(start) {
		return false
	}
	if ti.bi.SeekGE(target) {
		return true
	}
	if ti.bi.Error() != nil {
		ti.err = ti.bi.Error()
		return false
	}
	return ti.advanceBlock()
}

func (ti *tableIter) Next() bool {
	if !ti.loaded {
		return false
	}
	if ti.bi.Next() {
		return true
	}
	if ti.bi.Error() != nil {
		ti.err = ti.bi.Error()
		return false
	}
	return ti.advanceBlock()
}

func (ti *tableIter) Valid() bool { return ti.loaded && ti.bi.Valid() }

func (ti *tableIter) Key() kv.InternalKey { return ti.bi.Key() }

func (ti *tableIter) Value() []byte { return ti.bi.Value() }

func (ti *tableIter) Error() error {
	if ti.err != nil {
		return ti.err
	}
	if ti.loaded {
		return ti.bi.Error()
	}
	return nil
}

func (ti *tableIter) Close() error {
	ti.loaded = false
	return ti.Error()
}
