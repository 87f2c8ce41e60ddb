package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lsmkv/internal/fence"
	"lsmkv/internal/filter"
	"lsmkv/internal/kv"
	"lsmkv/internal/learned"
	"lsmkv/internal/rangefilter"
)

// LearnedKind selects the learned index model stored alongside the fence
// pointers.
type LearnedKind uint8

const (
	// LearnedNone stores no model; block lookup binary-searches fences.
	LearnedNone LearnedKind = 0
	// LearnedPLR stores a bounded-error piecewise-linear model.
	LearnedPLR LearnedKind = 1
	// LearnedRadixSpline stores a RadixSpline model.
	LearnedRadixSpline LearnedKind = 2
)

// WriterOptions configures the physical layout of one table — the
// storage-facing half of the read-optimization design space.
type WriterOptions struct {
	// BlockSize is the uncompressed data-block size target in bytes.
	// Default 4096.
	BlockSize int
	// RestartInterval is the entry spacing of restart points. Default 16.
	RestartInterval int
	// Filter is the point-filter policy for this table.
	Filter filter.Policy
	// FilterPartitioned builds one filter per data block instead of one
	// per table (RocksDB partitioned filters).
	FilterPartitioned bool
	// RangeFilter is the range-filter policy for this table.
	RangeFilter rangefilter.Policy
	// BlockHashIndex appends a data-block hash index to every block.
	BlockHashIndex bool
	// Learned selects a learned index model over block fences.
	Learned LearnedKind
	// ExpectedEntries sizes filter builders; 0 uses a default.
	ExpectedEntries int
}

func (o *WriterOptions) withDefaults() WriterOptions {
	out := *o
	if out.BlockSize <= 0 {
		out.BlockSize = 4096
	}
	if out.RestartInterval <= 0 {
		out.RestartInterval = 16
	}
	if out.ExpectedEntries <= 0 {
		out.ExpectedEntries = out.BlockSize // ~one key per byte? just a hint floor
	}
	return out
}

const (
	footerLen   = 5*16 + 1 + 8
	tableMagic  = 0x4c534d4b56535354 // "LSMKVSST"
	flagPartFil = 1 << 0
)

// Writer builds one sstable from entries added in strictly increasing
// internal-key order.
type Writer struct {
	w    io.Writer
	opts WriterOptions

	offset  uint64
	block   *blockBuilder
	fences  fence.Builder
	filters *filterState
	rfb     rangefilter.Builder
	props   Properties

	blockFirstUser []byte // first user key of the block being built
	lastKey        kv.InternalKey
	hasLast        bool
	finished       bool

	// partition filters (one per block) when FilterPartitioned.
	partitions [][]byte
}

// filterState tracks the in-progress point filter(s).
type filterState struct {
	policy      filter.Policy
	partitioned bool
	builder     filter.Builder // current (table-wide or per-block)
	perBlock    int
}

// NewWriter creates a table writer over w.
func NewWriter(w io.Writer, opts WriterOptions) *Writer {
	o := opts.withDefaults()
	tw := &Writer{
		w:     w,
		opts:  o,
		block: newBlockBuilder(o.RestartInterval, o.BlockHashIndex),
		rfb:   o.RangeFilter.NewBuilder(o.ExpectedEntries),
	}
	if o.Filter.Kind != filter.KindNone {
		tw.filters = &filterState{policy: o.Filter, partitioned: o.FilterPartitioned}
		if o.FilterPartitioned {
			tw.filters.builder = o.Filter.NewBuilder(o.BlockSize / 32)
		} else {
			tw.filters.builder = o.Filter.NewBuilder(o.ExpectedEntries)
		}
	}
	return tw
}

// Add appends an entry. Keys must arrive in strictly increasing internal
// key order.
func (tw *Writer) Add(ikey kv.InternalKey, value []byte) error {
	if tw.finished {
		return errors.New("sstable: Add after Finish")
	}
	if tw.hasLast && kv.CompareInternal(ikey, tw.lastKey) <= 0 {
		return fmt.Errorf("sstable: keys out of order: %s after %s", ikey, tw.lastKey)
	}
	if tw.block.empty() {
		tw.blockFirstUser = append(tw.blockFirstUser[:0], ikey.UserKey...)
	}
	tw.block.add(ikey, value)
	if tw.filters != nil {
		tw.filters.builder.AddHash(filter.HashKey(ikey.UserKey))
		tw.filters.perBlock++
	}
	if !tw.hasLast || string(ikey.UserKey) != string(tw.lastKey.UserKey) {
		// Range filters and properties dedup on user keys.
		if err := tw.rfb.AddKey(ikey.UserKey); err != nil {
			return err
		}
	}

	// Properties bookkeeping.
	if tw.props.NumEntries == 0 {
		tw.props.SmallestUser = append([]byte(nil), ikey.UserKey...)
		tw.props.SmallestSeq = ikey.Seq
		tw.props.LargestSeq = ikey.Seq
	}
	tw.props.LargestUser = append(tw.props.LargestUser[:0], ikey.UserKey...)
	if ikey.Seq < tw.props.SmallestSeq {
		tw.props.SmallestSeq = ikey.Seq
	}
	if ikey.Seq > tw.props.LargestSeq {
		tw.props.LargestSeq = ikey.Seq
	}
	tw.props.NumEntries++
	if ikey.Kind == kv.KindDelete {
		tw.props.NumTombstones++
	}
	tw.props.RawKeyBytes += uint64(ikey.Size())
	tw.props.RawValueBytes += uint64(len(value))

	tw.lastKey = ikey.Clone()
	tw.hasLast = true

	if tw.block.estimatedSize() >= tw.opts.BlockSize {
		return tw.flushBlock()
	}
	return nil
}

func (tw *Writer) flushBlock() error {
	if tw.block.empty() {
		return nil
	}
	raw := tw.block.finish()
	h := fence.BlockHandle{Offset: tw.offset, Length: uint64(len(raw))}
	if _, err := tw.w.Write(raw); err != nil {
		return err
	}
	tw.offset += uint64(len(raw))
	tw.fences.Add(tw.blockFirstUser, h)
	tw.props.NumBlocks++
	tw.block.reset()
	if tw.filters != nil && tw.filters.partitioned {
		data, err := tw.filters.builder.Finish()
		if err != nil {
			return err
		}
		tw.partitions = append(tw.partitions, data)
		tw.filters.builder = tw.filters.policy.NewBuilder(max(tw.filters.perBlock, 16))
		tw.filters.perBlock = 0
	}
	return nil
}

// writeRaw writes an auxiliary block (no compression, no trailer beyond
// what the payload carries) and returns its handle.
func (tw *Writer) writeRaw(data []byte) (fence.BlockHandle, error) {
	h := fence.BlockHandle{Offset: tw.offset, Length: uint64(len(data))}
	if len(data) == 0 {
		return h, nil
	}
	if _, err := tw.w.Write(data); err != nil {
		return h, err
	}
	tw.offset += uint64(len(data))
	return h, nil
}

// Finish flushes the last block, writes the auxiliary blocks and footer,
// and returns the table's properties. The writer is unusable afterwards.
func (tw *Writer) Finish() (Properties, uint64, error) {
	if tw.finished {
		return tw.props, tw.offset, errors.New("sstable: double Finish")
	}
	tw.finished = true
	if err := tw.flushBlock(); err != nil {
		return tw.props, 0, err
	}

	// Filter block.
	var filterData []byte
	var flags byte
	if tw.filters != nil {
		if tw.filters.partitioned {
			flags |= flagPartFil
			filterData = binary.AppendUvarint(nil, uint64(len(tw.partitions)))
			for _, p := range tw.partitions {
				filterData = kv.AppendLengthPrefixed(filterData, p)
			}
		} else {
			var err error
			filterData, err = tw.filters.builder.Finish()
			if err != nil {
				return tw.props, 0, err
			}
		}
	}
	filterHandle, err := tw.writeRaw(filterData)
	if err != nil {
		return tw.props, 0, err
	}

	// Range filter block.
	rfData, err := tw.rfb.Finish()
	if err != nil {
		return tw.props, 0, err
	}
	rfHandle, err := tw.writeRaw(rfData)
	if err != nil {
		return tw.props, 0, err
	}

	// Learned index block over block-fence keys.
	var learnedData []byte
	if tw.opts.Learned != LearnedNone && tw.fences.Count() > 0 {
		xs := make([]uint64, tw.fences.Count())
		idx := tw.fences.Build()
		for i := 0; i < idx.Len(); i++ {
			xs[i] = learned.KeyToUint64(idx.Entry(i).FirstKey)
		}
		switch tw.opts.Learned {
		case LearnedPLR:
			learnedData = learned.BuildPLR(xs, 4).Encode()
		case LearnedRadixSpline:
			learnedData = learned.BuildRadixSpline(xs, 4, 12).Encode()
		}
	}
	flags |= byte(tw.opts.Learned) << 2
	learnedHandle, err := tw.writeRaw(learnedData)
	if err != nil {
		return tw.props, 0, err
	}

	// Index (fence) block.
	indexHandle, err := tw.writeRaw(tw.fences.Encode())
	if err != nil {
		return tw.props, 0, err
	}

	// Properties block.
	propsHandle, err := tw.writeRaw(tw.props.encode())
	if err != nil {
		return tw.props, 0, err
	}

	// Footer.
	var footer [footerLen]byte
	writeHandle := func(off int, h fence.BlockHandle) {
		binary.LittleEndian.PutUint64(footer[off:], h.Offset)
		binary.LittleEndian.PutUint64(footer[off+8:], h.Length)
	}
	writeHandle(0, indexHandle)
	writeHandle(16, filterHandle)
	writeHandle(32, rfHandle)
	writeHandle(48, learnedHandle)
	writeHandle(64, propsHandle)
	footer[80] = flags
	binary.LittleEndian.PutUint64(footer[81:], tableMagic)
	if _, err := tw.w.Write(footer[:]); err != nil {
		return tw.props, 0, err
	}
	tw.offset += footerLen
	return tw.props, tw.offset, nil
}

// EstimatedSize returns the bytes written so far plus the current block.
func (tw *Writer) EstimatedSize() uint64 {
	return tw.offset + uint64(tw.block.estimatedSize())
}
