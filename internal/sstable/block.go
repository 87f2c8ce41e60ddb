// Package sstable implements the immutable sorted-run file format and its
// read path: prefix-compressed data blocks with restart points, fence
// pointers (the sparse per-block index), point and range filter blocks,
// optional per-block hash indexes, optional learned index models, a
// properties block, and a fixed footer. It is the storage substrate every
// read optimization in the tutorial attaches to.
package sstable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"lsmkv/internal/fence"
	"lsmkv/internal/kv"
)

// Errors returned by the block and table readers.
var (
	ErrCorruptBlock = errors.New("sstable: corrupt block")
	ErrChecksum     = errors.New("sstable: block checksum mismatch")
	ErrCorruptTable = errors.New("sstable: corrupt table")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Block trailer flags.
const (
	blockFlagHashIndex = 1 << 0
	blockTrailerLen    = 1 + 4 // flag byte + crc32
)

// blockBuilder encodes one data block: prefix-compressed entries, restart
// points every restartInterval entries, an optional data-block hash index,
// a flag byte, and a CRC.
type blockBuilder struct {
	restartInterval int
	hashIndex       bool

	buf          []byte
	restarts     []uint32
	sinceRestart int
	lastKey      []byte // the previous entry's encoded internal key
	encKey       []byte // the entry being added, encoded; swapped with lastKey
	count        int
	hib          fence.HashIndexBuilder
}

func newBlockBuilder(restartInterval int, hashIndex bool) *blockBuilder {
	if restartInterval < 1 {
		restartInterval = 16
	}
	return &blockBuilder{restartInterval: restartInterval, hashIndex: hashIndex}
}

func (b *blockBuilder) add(ikey kv.InternalKey, value []byte) {
	b.encKey = ikey.Encode(b.encKey[:0])
	encKey := b.encKey
	shared := 0
	if b.sinceRestart < b.restartInterval && b.count > 0 {
		shared = kv.SharedPrefixLen(b.lastKey, encKey)
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.sinceRestart = 0
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(encKey)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, encKey[shared:]...)
	b.buf = append(b.buf, value...)
	if b.hashIndex {
		b.hib.Add(ikey.UserKey, len(b.restarts)-1)
	}
	b.lastKey, b.encKey = encKey, b.lastKey
	b.sinceRestart++
	b.count++
}

func (b *blockBuilder) empty() bool { return b.count == 0 }

// estimatedSize returns the current encoded size including restart array.
func (b *blockBuilder) estimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4 + blockTrailerLen
}

// finish seals the block and returns its bytes.
func (b *blockBuilder) finish() []byte {
	out := b.buf
	for _, r := range b.restarts {
		out = binary.LittleEndian.AppendUint32(out, r)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.restarts)))
	var flag byte
	if b.hashIndex {
		if withIdx := b.hib.Encode(out); len(withIdx) > len(out) {
			out = withIdx
			flag |= blockFlagHashIndex
		}
	}
	out = append(out, flag)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// reset prepares the builder for the next block.
func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.sinceRestart = 0
	b.lastKey = b.lastKey[:0]
	b.count = 0
	b.hib.Reset()
}

// block is the decoded, read-only view over one data block.
type block struct {
	data      []byte // entry payload only
	restarts  []uint32
	hashIndex fence.HashIndex
	hasHash   bool
}

// decodeBlockInto validates the CRC of a block read from the file, then
// parses it into blk (parseBlockInto).
func decodeBlockInto(blk *block, raw []byte) error {
	if crcOff := len(raw) - 4; crcOff >= blockTrailerLen &&
		crc32.Checksum(raw[:crcOff], crcTable) != binary.LittleEndian.Uint32(raw[crcOff:]) {
		*blk = block{restarts: blk.restarts}
		return ErrChecksum
	}
	return parseBlockInto(blk, raw)
}

// parseBlockInto splits raw, a block whose CRC is already verified, into
// payload, restart array, and optional hash index, writing the view into
// a caller-owned block and reusing its restart slice's capacity: point
// reads feed it pooled scratch and table iterators their own block, so
// neither allocates per block decoded. A block-cache hit comes here
// directly, since the cache admits only bytes decodeBlockInto accepted.
func parseBlockInto(blk *block, raw []byte) error {
	blk.data = nil
	blk.hashIndex = fence.HashIndex{}
	blk.hasHash = false
	if len(raw) < blockTrailerLen+4 {
		return ErrCorruptBlock
	}
	crcOff := len(raw) - 4
	flag := raw[crcOff-1]
	body := raw[:crcOff-1]
	if flag&blockFlagHashIndex != 0 {
		idx, payloadLen, ok := fence.ParseHashIndex(body)
		if !ok {
			return ErrCorruptBlock
		}
		blk.hashIndex = idx
		blk.hasHash = true
		body = body[:payloadLen]
	}
	if len(body) < 4 {
		return ErrCorruptBlock
	}
	n := binary.LittleEndian.Uint32(body[len(body)-4:])
	body = body[:len(body)-4]
	if uint32(len(body)) < n*4 {
		return ErrCorruptBlock
	}
	restartOff := len(body) - int(n)*4
	blk.data = body[:restartOff]
	if cap(blk.restarts) >= int(n) {
		blk.restarts = blk.restarts[:n]
	} else {
		blk.restarts = make([]uint32, n)
	}
	for i := range blk.restarts {
		blk.restarts[i] = binary.LittleEndian.Uint32(body[restartOff+4*i:])
	}
	return nil
}

// blockIter iterates the entries of one decoded block.
type blockIter struct {
	b       *block
	offset  int    // offset of current entry within b.data
	nextOff int    // offset just past current entry
	key     []byte // current decoded (full) internal key bytes
	val     []byte
	valid   bool
	err     error
}

// reset rebinds a (possibly pooled) iterator to a block, keeping the
// decoded-key buffer's capacity so repeated lookups stop allocating.
func (it *blockIter) reset(b *block) {
	it.b = b
	it.offset = 0
	it.nextOff = 0
	it.key = it.key[:0]
	it.val = nil
	it.valid = false
	it.err = nil
}

// decodeEntryAt decodes the entry at off, extending it.key with prefix
// compression relative to the current key state.
func (it *blockIter) decodeEntryAt(off int) bool {
	data := it.b.data
	if off >= len(data) {
		it.valid = false
		return false
	}
	shared, n1 := binary.Uvarint(data[off:])
	if n1 <= 0 {
		it.err = ErrCorruptBlock
		it.valid = false
		return false
	}
	unshared, n2 := binary.Uvarint(data[off+n1:])
	if n2 <= 0 {
		it.err = ErrCorruptBlock
		it.valid = false
		return false
	}
	vlen, n3 := binary.Uvarint(data[off+n1+n2:])
	if n3 <= 0 {
		it.err = ErrCorruptBlock
		it.valid = false
		return false
	}
	p := off + n1 + n2 + n3
	if p+int(unshared)+int(vlen) > len(data) || int(shared) > len(it.key) {
		it.err = ErrCorruptBlock
		it.valid = false
		return false
	}
	it.key = append(it.key[:shared], data[p:p+int(unshared)]...)
	it.val = data[p+int(unshared) : p+int(unshared)+int(vlen) : p+int(unshared)+int(vlen)]
	it.offset = off
	it.nextOff = p + int(unshared) + int(vlen)
	it.valid = true
	return true
}

// seekRestart positions at restart point i (full key stored there).
func (it *blockIter) seekRestart(i int) bool {
	it.key = it.key[:0]
	return it.decodeEntryAt(int(it.b.restarts[i]))
}

func (it *blockIter) First() bool {
	if len(it.b.restarts) == 0 {
		it.valid = false
		return false
	}
	return it.seekRestart(0)
}

func (it *blockIter) Next() bool {
	if !it.valid {
		return false
	}
	return it.decodeEntryAt(it.nextOff)
}

// SeekGE positions at the first entry with internal key >= target.
func (it *blockIter) SeekGE(target kv.InternalKey) bool {
	return it.seekGEEnc(target.Encode(nil))
}

// seekGEEnc is SeekGE over a pre-encoded internal key, letting the hot
// path reuse one encode buffer across blocks and runs.
func (it *blockIter) seekGEEnc(enc []byte) bool {
	if len(it.b.restarts) == 0 {
		it.valid = false
		return false
	}
	// Binary search restarts: last restart whose key <= target.
	lo, hi := 0, len(it.b.restarts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		it.seekRestart(mid)
		if !it.valid {
			return false
		}
		if kv.CompareEncodedInternal(it.key, enc) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return it.scanFrom(lo, enc)
}

// scanFrom linear-scans from a restart point for the first entry >=
// the encoded target. The hash-index fast path enters here directly.
func (it *blockIter) scanFrom(restart int, encTarget []byte) bool {
	if !it.seekRestart(restart) {
		return false
	}
	for kv.CompareEncodedInternal(it.key, encTarget) < 0 {
		if !it.Next() {
			return false
		}
	}
	return true
}

func (it *blockIter) Valid() bool { return it.valid }

func (it *blockIter) Key() kv.InternalKey {
	ik, _ := kv.ParseInternalKey(it.key)
	return ik
}

func (it *blockIter) Value() []byte { return it.val }

func (it *blockIter) Error() error { return it.err }
