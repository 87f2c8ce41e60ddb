// Package server implements the network serving layer over the storage
// engine: a length-prefixed binary KV protocol with per-connection
// pipelining, writes handed to the engine's commit queues (which fold
// concurrent writes into one WAL record and fsync), token-bucket
// backpressure, connection limits, read/write deadlines, graceful drain
// on shutdown, and live metrics over HTTP.
//
// Every frame, in both directions, is a length word, a request ID that
// the response echoes, an opcode or status byte and a body; because of
// the ID a client may keep many requests in flight on one connection and
// match responses out of order. PROTOCOL.md is the wire reference — the
// framing, every request and response body, the statuses, the streaming
// opcodes; cmd/doccheck holds its opcode table to opTable below, the one
// place an opcode's name, request body and class are written down.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/kv"
	"lsmkv/internal/replica"
)

// Opcode identifies a request operation.
type Opcode uint8

// Request opcodes.
const (
	OpPing   Opcode = 1
	OpGet    Opcode = 2
	OpPut    Opcode = 3
	OpDelete Opcode = 4
	// OpScan was the paged SCAN, retired in favour of OpScanStream. The
	// number stays reserved so it is never reused: a frame carrying it
	// decodes to errScanRetired and is answered with StatusError.
	OpScan  Opcode = 5
	OpBatch Opcode = 6
	OpStats Opcode = 7
	// OpTrace is a GET that also returns the read path taken: every run
	// consulted, each filter/fence decision, and cache behavior.
	OpTrace Opcode = 8
	// OpCheckpoint takes an online backup: Key names a directory under
	// the server's checkpoint root; the response Value is the marker
	// JSON (files, bytes, per-shard seqs).
	OpCheckpoint Opcode = 9
	// OpReplSync opens a replication stream: the body is the follower's
	// per-shard watermark vector, and the server answers with an
	// open-ended sequence of REPLFRAME responses (replica.Frame bodies)
	// on this request's ID. The connection should be dedicated — the
	// stream occupies its read loop.
	OpReplSync Opcode = 10
	// OpGetSeq is a read-your-writes GET: the server waits until the
	// key's shard reaches MinSeq before reading.
	OpGetSeq Opcode = 11
	// OpMerkle computes a Merkle summary of the database's logical
	// content at a sequence vector (response Value is replica.Tree
	// JSON); equal trees on primary and follower mean zero divergence.
	OpMerkle Opcode = 12
	// OpMultiGet batches point reads: the body is a counted key list and
	// the response carries found/value slots aligned with it. One frame
	// each way amortizes framing, syscalls, and scheduling across the
	// batch, and the server fans the keys out to their shards in parallel.
	OpMultiGet Opcode = 13
	// OpScanStream is a range scan answered as an open-ended stream of
	// scan frames on this request's ID. Like REPLSYNC the stream occupies
	// the connection's read loop until the final (more=0) frame.
	OpScanStream Opcode = 14
	// OpPutTTL is PUT with a time-to-live: the body carries the TTL in
	// milliseconds and the server stamps the absolute expiry at commit.
	// After expiry the key reads as absent and compaction reclaims it.
	OpPutTTL Opcode = 15
	// OpIncr atomically adds a signed delta to the 8-byte LE counter at
	// key (absent keys start at zero) inside its shard's commit group;
	// the response body is the resulting value as a signed varint.
	OpIncr Opcode = 16
	// OpCas atomically replaces key's value with a new value if the
	// current value equals the expected one (hasExpected=0 asserts the
	// key is absent). A mismatch answers StatusConflict and writes
	// nothing.
	OpCas Opcode = 17
	// OpSketch queries the server's per-shard write-stream sketches:
	// sub 1 estimates how often key has been written (count-min, never
	// under), sub 2 estimates the distinct keys written (HyperLogLog).
	// The response body is a uvarint estimate.
	OpSketch Opcode = 18
	// opMax bounds opTable and the per-opcode metric arrays.
	opMax = 19
)

// Class is how an opcode is served, and so what a client may do when a
// response is lost.
type Class uint8

// Opcode classes.
const (
	// ClassRead opcodes read the store inline on the connection's read
	// loop; re-sending one is harmless.
	ClassRead Class = iota + 1
	// ClassWrite opcodes go to their shards' commit queues and are
	// refused by a read-only server. Each is idempotent (last writer
	// wins, tombstones), so re-sending one after a lost ack is safe.
	ClassWrite
	// ClassRMW opcodes are writes whose outcome depends on the value they
	// find: a client never re-sends one once its frame may be out.
	ClassRMW
	// ClassStream opcodes answer with an open-ended sequence of frames
	// and occupy the connection's read loop until the stream ends.
	ClassStream
	// ClassAdmin opcodes act on the server, not on a key's value (ping,
	// stats, backup); they are served inline like reads.
	ClassAdmin
)

func (c Class) String() string {
	return [...]string{"", "read", "write", "rmw", "stream", "admin"}[c]
}

// field is one element of a request body, named for the Request member
// it fills. Fields of one wire shape share one case of appendField and
// one of decodeField, and the latter owns the shape's bound.
type field uint8

const (
	fKey field = iota // string, non-empty
	// string
	fValue
	fLo
	fHi
	// uvarint, capped by uvarintMax
	fLimit
	fMinSeq
	fBuckets
	fTTLMillis
	fDelta    // varint
	fSeqs     // uvarint count, then count× uvarint
	fKeys     // uvarint count, then count× non-empty string
	fOps      // uvarint count, then count× (uint8 kind, key[, value])
	fExpected // uint8 present (0 or 1)[, string]
	fSub      // uint8 sub[, key]: SketchFreq carries the key
	numFields
)

// MaxTTLMillis is the largest PUTTTL time-to-live the server accepts: the
// longest a nanosecond duration can hold (about 292 years). The expiry
// saturates (kv.ExpiryAfter), so it means "never" and not a wrapped,
// already-expired timestamp.
const MaxTTLMillis = math.MaxInt64 / uint64(time.Millisecond)

// uvarintMax holds the largest value a uvarint field accepts (zero: no
// cap). A MERKLE bucket count sizes an allocation; a TTL the server
// cannot represent is refused, not wrapped.
var uvarintMax = [numFields]uint64{fBuckets: replica.MaxMerkleBuckets, fTTLMillis: MaxTTLMillis}

// opRow is everything known about one opcode. The codec, conn.dispatch,
// the client's retry rule and cmd/doccheck all read it; nothing switches
// on an opcode (TestOneOpcodeTable).
type opRow struct {
	name  string
	class Class   // zero: the number is unassigned, or retired
	body  []field // request body grammar, in wire order
	// retired is what a frame carrying a reserved number decodes to.
	retired error
	// unthrottled exempts the opcode from the token bucket: a health
	// probe has to get through a server that is shedding load.
	unthrottled bool
	// Exactly one handler, chosen by class (see conn.dispatch).
	ops    opsFunc    // write, rmw
	serve  serveFunc  // read, admin
	stream streamFunc // stream
}

// opTable is indexed by Opcode. init fills it, and not its declaration,
// only because a handler reaches back to it (STATS renders
// Opcode.String), which Go calls an initialization cycle.
var opTable [opMax]opRow

func init() {
	opTable = [opMax]opRow{
		OpPing:       {name: "ping", class: ClassAdmin, serve: serveEmpty, unthrottled: true},
		OpGet:        {name: "get", class: ClassRead, body: []field{fKey}, serve: serveGet},
		OpPut:        {name: "put", class: ClassWrite, body: []field{fKey, fValue}, ops: putOps},
		OpDelete:     {name: "delete", class: ClassWrite, body: []field{fKey}, ops: deleteOps},
		OpScan:       {name: "scan", retired: errScanRetired},
		OpBatch:      {name: "batch", class: ClassWrite, body: []field{fOps}, ops: batchOps},
		OpStats:      {name: "stats", class: ClassAdmin, serve: serveStats},
		OpTrace:      {name: "trace", class: ClassRead, body: []field{fKey}, serve: serveTrace},
		OpCheckpoint: {name: "checkpoint", class: ClassAdmin, body: []field{fKey}, serve: serveCheckpoint},
		OpReplSync:   {name: "replsync", class: ClassStream, body: []field{fSeqs}, stream: streamRepl},
		OpGetSeq:     {name: "getseq", class: ClassRead, body: []field{fKey, fMinSeq}, serve: serveGetSeq},
		OpMerkle:     {name: "merkle", class: ClassRead, body: []field{fBuckets, fSeqs}, serve: serveMerkle},
		OpMultiGet:   {name: "multiget", class: ClassRead, body: []field{fKeys}, serve: serveMultiGet},
		OpScanStream: {name: "scanstream", class: ClassStream, body: []field{fLo, fHi, fLimit}, stream: streamScan},
		OpPutTTL:     {name: "putttl", class: ClassWrite, body: []field{fKey, fValue, fTTLMillis}, ops: putTTLOps},
		OpIncr:       {name: "incr", class: ClassRMW, body: []field{fKey, fDelta}, ops: incrOps},
		OpCas:        {name: "cas", class: ClassRMW, body: []field{fKey, fExpected, fValue}, ops: casOps},
		OpSketch:     {name: "sketch", class: ClassRead, body: []field{fSub}, serve: serveSketch},
	}
}

// row returns o's table row: the zero row for an unassigned number, in
// the table or past it.
func (o Opcode) row() *opRow {
	if o >= opMax {
		o = 0
	}
	return &opTable[o]
}

func (o Opcode) String() string {
	if r := o.row(); r.name != "" {
		return r.name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class returns o's class; it is zero for a number that is unassigned,
// or assigned and reserved.
func (o Opcode) Class() Class { return o.row().class }

// Opcodes lists every assigned opcode number in order, reserved ones
// included; cmd/doccheck holds PROTOCOL.md's table to it.
func Opcodes() (ops []Opcode) {
	for op := Opcode(1); op < opMax; op++ {
		if op.row().name != "" {
			ops = append(ops, op)
		}
	}
	return ops
}

// Status is the response disposition.
type Status uint8

// Response statuses.
const (
	StatusOK       Status = 0
	StatusNotFound Status = 1
	// StatusError is a request-level failure; the connection stays usable.
	StatusError Status = 2
	// StatusThrottled means the token bucket rejected the request; the
	// client may retry after backoff.
	StatusThrottled Status = 3
	// StatusShutdown means the server is draining; retry elsewhere/later.
	StatusShutdown Status = 4
	// StatusConflict means a CAS request's expected value did not match
	// the current one; nothing was written. Not transient: retrying the
	// identical request will conflict again until the caller re-reads.
	StatusConflict Status = 5
)

// MaxFrameBytes bounds a single request or response frame. Server and
// client must agree on it, so it is a constant and not a setting of
// either.
const MaxFrameBytes = 16 << 20

// ConnErrID is the reserved request ID for connection-level error
// responses (framing lost, connection about to close). No request may
// carry it; clients treat a response bearing it as fatal to the
// connection rather than matching it to a pending call.
const ConnErrID uint32 = 0

// frameHeaderLen is the length prefix preceding every frame.
const frameHeaderLen = 4

// payload header: request id (4) + opcode/status (1).
const payloadHeaderLen = 5

// Protocol-level errors.
var (
	// ErrMalformed indicates a frame that does not parse. The connection
	// that produced it is closed: framing is lost.
	ErrMalformed = errors.New("server: malformed frame")
	// ErrFrameTooLarge indicates a frame exceeding the configured bound.
	ErrFrameTooLarge = errors.New("server: frame exceeds size limit")
	// errScanRetired answers the reserved opcode 5 with more than a bare
	// "malformed", for a client that predates SCANSTREAM.
	errScanRetired = fmt.Errorf("%w: opcode 5 (paged SCAN) is retired; use SCANSTREAM (14)", ErrMalformed)
)

// batch op wire kinds.
const (
	wireBatchPut    = 0
	wireBatchDelete = 1
)

// Request is one decoded client request. Key/Value/Lo/Hi alias the frame
// buffer they were decoded from.
type Request struct {
	ID    uint32
	Op    Opcode
	Key   []byte
	Value []byte
	Lo    []byte
	Hi    []byte
	Limit uint64
	Ops   []core.BatchOp
	// MinSeq is the GETSEQ read-your-writes floor.
	MinSeq uint64
	// Seqs is the per-shard sequence vector: REPLSYNC watermarks, or the
	// MERKLE pin point (empty = current).
	Seqs []uint64
	// Keys is the MULTIGET key batch.
	Keys [][]byte
	// Buckets is the MERKLE bucket count (0 = server default).
	Buckets uint64
	// TTLMillis is the PUTTTL time-to-live in milliseconds.
	TTLMillis uint64
	// Delta is the INCR signed addend.
	Delta int64
	// Expected is the CAS comparand; HasExpected distinguishes an
	// expected-empty value (true, len 0) from expected-absent (false).
	Expected    []byte
	HasExpected bool
	// Sub selects the SKETCH query: SketchFreq or SketchCard.
	Sub uint8
}

// SKETCH sub-query selectors.
const (
	// SketchFreq estimates writes observed for Key (count-min).
	SketchFreq uint8 = 1
	// SketchCard estimates distinct keys written (HyperLogLog).
	SketchCard uint8 = 2
)

// Response is one decoded server response.
type Response struct {
	ID     uint32
	Status Status
	// Value holds the GET value, the STATS JSON, or the error message.
	Value []byte
	// Pairs and More carry one SCANSTREAM frame.
	Pairs []KV
	More  bool
}

// KV is one scan result pair.
type KV struct {
	Key   []byte
	Value []byte
}

// ReadFrame reads one length-prefixed frame payload (the bytes after the
// length word). It returns ErrFrameTooLarge for frames over max and
// ErrMalformed for frames too short to carry a payload header. The
// allocation is bounded by max regardless of input.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(max) {
		return nil, ErrFrameTooLarge
	}
	if n < payloadHeaderLen {
		return nil, ErrMalformed
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// readFrameLen reads a frame's length word, as io.ReadFull would. A
// connection's bufio.Reader hands the word over in place: a local array
// passed to an io.Reader would escape, one heap allocation per frame.
func readFrameLen(r io.Reader) (uint32, error) {
	if br, ok := r.(*bufio.Reader); ok {
		b, err := br.Peek(frameHeaderLen)
		if err != nil {
			if err == io.EOF && len(b) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		br.Discard(frameHeaderLen)
		return binary.LittleEndian.Uint32(b), nil
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(hdr[:]), nil
}

// WriteFrame writes the length prefix followed by payload. The prefix is
// appended in w's own free space (AvailableBuffer), so it costs no
// allocation unless w is within four bytes of full.
func WriteFrame(w *bufio.Writer, payload []byte) error {
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendRequest encodes req as a frame payload (without the length word).
func AppendRequest(dst []byte, req *Request) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, req.ID)
	dst = append(dst, byte(req.Op))
	for _, f := range req.Op.row().body {
		dst = appendField(dst, f, req)
	}
	return dst
}

// DecodeRequest parses a frame payload into a Request. Returned byte
// slices alias payload. Malformed input yields ErrMalformed — never a
// panic, and never an allocation beyond the payload already read.
func DecodeRequest(payload []byte) (Request, error) {
	var req Request
	if len(payload) < payloadHeaderLen {
		return req, ErrMalformed
	}
	req.ID = binary.LittleEndian.Uint32(payload)
	req.Op = Opcode(payload[4])
	row := req.Op.row()
	if row.class == 0 {
		if row.retired != nil {
			return req, row.retired
		}
		return req, ErrMalformed
	}
	body, ok := payload[payloadHeaderLen:], true
	for _, f := range row.body {
		if body, ok = decodeField(f, body, &req); !ok {
			return req, ErrMalformed
		}
	}
	if len(body) != 0 {
		return req, ErrMalformed
	}
	return req, nil
}

// bytesField and uintField select the member a string or uvarint fills.
func (r *Request) bytesField(f field) *[]byte {
	return [...]*[]byte{fValue: &r.Value, fLo: &r.Lo, fHi: &r.Hi}[f]
}

func (r *Request) uintField(f field) *uint64 {
	return [...]*uint64{fLimit: &r.Limit, fMinSeq: &r.MinSeq, fBuckets: &r.Buckets, fTTLMillis: &r.TTLMillis}[f]
}

// appendField encodes one body field of r.
func appendField(dst []byte, f field, r *Request) []byte {
	switch f {
	case fKey:
		return kv.AppendLengthPrefixed(dst, r.Key)
	case fValue, fLo, fHi:
		return kv.AppendLengthPrefixed(dst, *r.bytesField(f))
	case fLimit, fMinSeq, fBuckets, fTTLMillis:
		return binary.AppendUvarint(dst, *r.uintField(f))
	case fDelta:
		return binary.AppendVarint(dst, r.Delta)
	case fSeqs:
		dst = binary.AppendUvarint(dst, uint64(len(r.Seqs)))
		for _, s := range r.Seqs {
			dst = binary.AppendUvarint(dst, s)
		}
	case fKeys:
		dst = binary.AppendUvarint(dst, uint64(len(r.Keys)))
		for _, k := range r.Keys {
			dst = kv.AppendLengthPrefixed(dst, k)
		}
	case fOps:
		dst = binary.AppendUvarint(dst, uint64(len(r.Ops)))
		for _, op := range r.Ops {
			if op.Kind == kv.KindDelete {
				dst = kv.AppendLengthPrefixed(append(dst, wireBatchDelete), op.Key)
			} else {
				dst = kv.AppendLengthPrefixed(append(dst, wireBatchPut), op.Key)
				dst = kv.AppendLengthPrefixed(dst, op.Value)
			}
		}
	case fExpected:
		if !r.HasExpected {
			return append(dst, 0)
		}
		return kv.AppendLengthPrefixed(append(dst, 1), r.Expected)
	case fSub:
		dst = append(dst, r.Sub)
		if r.Sub == SketchFreq {
			dst = kv.AppendLengthPrefixed(dst, r.Key)
		}
	}
	return dst
}

// decodeField parses one body field into r and returns the rest of the
// body; ok is false for anything truncated, over its cap or miscounted.
func decodeField(f field, body []byte, r *Request) (rest []byte, ok bool) {
	switch f {
	case fKey:
		r.Key, body, ok = decodeKey(body)
	case fValue, fLo, fHi:
		*r.bytesField(f), body, ok = kv.DecodeLengthPrefixed(body)
	case fLimit, fMinSeq, fBuckets, fTTLMillis:
		v, w := binary.Uvarint(body)
		if max := uvarintMax[f]; w <= 0 || (max != 0 && v > max) {
			return nil, false
		}
		*r.uintField(f), body, ok = v, body[w:], true
	case fDelta:
		v, w := binary.Varint(body)
		if w <= 0 {
			return nil, false
		}
		r.Delta, body, ok = v, body[w:], true
	case fSeqs:
		var n uint64
		if n, body, ok = decodeCount(body, 1); !ok {
			return nil, false
		}
		r.Seqs = make([]uint64, n)
		for i := range r.Seqs {
			var w int
			if r.Seqs[i], w = binary.Uvarint(body); w <= 0 {
				return nil, false
			}
			body = body[w:]
		}
	case fKeys:
		var n uint64
		if n, body, ok = decodeCount(body, 2); !ok {
			return nil, false
		}
		r.Keys = make([][]byte, n)
		for i := range r.Keys {
			if r.Keys[i], body, ok = decodeKey(body); !ok {
				return nil, false
			}
		}
	case fOps:
		var n uint64
		if n, body, ok = decodeCount(body, 3); !ok {
			return nil, false
		}
		r.Ops = make([]core.BatchOp, n)
		for i := range r.Ops {
			if len(body) == 0 {
				return nil, false
			}
			op, kind := &r.Ops[i], body[0]
			if op.Key, body, ok = decodeKey(body[1:]); !ok {
				return nil, false
			}
			switch kind {
			case wireBatchPut:
				op.Kind = kv.KindSet
				if op.Value, body, ok = kv.DecodeLengthPrefixed(body); !ok {
					return nil, false
				}
			case wireBatchDelete:
				op.Kind = kv.KindDelete
			default:
				return nil, false
			}
		}
	case fExpected:
		if len(body) == 0 || body[0] > 1 {
			return nil, false
		}
		r.HasExpected, body, ok = body[0] == 1, body[1:], true
		if r.HasExpected {
			if r.Expected, body, ok = kv.DecodeLengthPrefixed(body); ok && r.Expected == nil {
				r.Expected = []byte{} // expected-empty, as distinct from expected-absent
			}
		}
	case fSub:
		if len(body) == 0 {
			return nil, false
		}
		r.Sub, body = body[0], body[1:]
		switch r.Sub {
		case SketchFreq:
			r.Key, body, ok = decodeKey(body)
		case SketchCard:
			ok = true
		}
	}
	return body, ok
}

// decodeKey parses a string that must not be empty.
func decodeKey(body []byte) (key, rest []byte, ok bool) {
	key, rest, ok = kv.DecodeLengthPrefixed(body)
	return key, rest, ok && len(key) > 0
}

// decodeCount parses the count of a repeated element of at least elemMin
// bytes. Refusing a count the rest of the body cannot hold bounds the
// slice the caller allocates by the frame.
func decodeCount(body []byte, elemMin int) (n uint64, rest []byte, ok bool) {
	n, w := binary.Uvarint(body)
	if w <= 0 || n > uint64((len(body)-w)/elemMin) {
		return 0, nil, false
	}
	return n, body[w:], true
}

// AppendResponse encodes resp as a frame payload (without the length
// word).
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, resp.ID)
	dst = append(dst, byte(resp.Status))
	if resp.Pairs != nil || resp.More {
		more := byte(0)
		if resp.More {
			more = 1
		}
		dst = append(dst, more)
		dst = binary.AppendUvarint(dst, uint64(len(resp.Pairs)))
		for _, p := range resp.Pairs {
			dst = kv.AppendLengthPrefixed(dst, p.Key)
			dst = kv.AppendLengthPrefixed(dst, p.Value)
		}
		return dst
	}
	return append(dst, resp.Value...)
}

// DecodeResponse parses a frame payload into a Response. scan selects the
// scan-frame body shape (the status byte alone cannot distinguish an empty
// value from an empty result set). Returned slices alias payload.
func DecodeResponse(payload []byte, scan bool) (Response, error) {
	var resp Response
	if len(payload) < payloadHeaderLen {
		return resp, ErrMalformed
	}
	resp.ID = binary.LittleEndian.Uint32(payload)
	resp.Status = Status(payload[4])
	body := payload[payloadHeaderLen:]
	if !scan || resp.Status != StatusOK {
		resp.Value = body
		return resp, nil
	}
	if len(body) < 1 {
		return resp, ErrMalformed
	}
	resp.More = body[0] != 0
	body = body[1:]
	count, w := binary.Uvarint(body)
	if w <= 0 {
		return resp, ErrMalformed
	}
	body = body[w:]
	if count > uint64(len(body)/2+1) {
		return resp, ErrMalformed
	}
	resp.Pairs = make([]KV, 0, count)
	for i := uint64(0); i < count; i++ {
		var p KV
		var ok bool
		if p.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok {
			return resp, ErrMalformed
		}
		if p.Value, body, ok = kv.DecodeLengthPrefixed(body); !ok {
			return resp, ErrMalformed
		}
		resp.Pairs = append(resp.Pairs, p)
	}
	if len(body) != 0 {
		return resp, ErrMalformed
	}
	return resp, nil
}

// MULTIGET response value slots.
const (
	wireMultiGetAbsent = 0
	wireMultiGetFound  = 1
)

// AppendMultiGetValues encodes a MULTIGET response body: uvarint count,
// then one (uint8 found[, length-prefixed value]) slot per requested key,
// in request order. A nil value encodes as absent; an empty non-nil value
// round-trips as found-and-empty.
func AppendMultiGetValues(dst []byte, vals [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		if v == nil {
			dst = append(dst, wireMultiGetAbsent)
			continue
		}
		dst = append(dst, wireMultiGetFound)
		dst = kv.AppendLengthPrefixed(dst, v)
	}
	return dst
}

// DecodeMultiGetValues parses a MULTIGET response body. Returned slices
// alias body; absent keys decode as nil entries. The allocation is
// bounded by the body regardless of the claimed count.
func DecodeMultiGetValues(body []byte) ([][]byte, error) {
	count, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, ErrMalformed
	}
	body = body[w:]
	// Every slot consumes at least the found byte.
	if count > uint64(len(body)+1) {
		return nil, ErrMalformed
	}
	vals := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(body) < 1 {
			return nil, ErrMalformed
		}
		found := body[0]
		body = body[1:]
		switch found {
		case wireMultiGetAbsent:
			vals = append(vals, nil)
		case wireMultiGetFound:
			var v []byte
			var ok bool
			if v, body, ok = kv.DecodeLengthPrefixed(body); !ok {
				return nil, ErrMalformed
			}
			if v == nil {
				v = []byte{}
			}
			vals = append(vals, v)
		default:
			return nil, ErrMalformed
		}
	}
	if len(body) != 0 {
		return nil, ErrMalformed
	}
	return vals, nil
}

// ShardSeq locates one acknowledged write in the engine's history: the
// shard that owns it and that shard's sequence watermark after the
// write. Clients pass it to GETSEQ (on any replica) for read-your-writes.
type ShardSeq struct {
	Shard int
	Seq   uint64
}

// AppendSeqAcks encodes the (shard, seq) coordinates carried in a write
// acknowledgment's body: uvarint count, then uvarint shard / uvarint seq
// per entry. Pre-replication clients ignore ack bodies, so the addition
// is backward compatible.
func AppendSeqAcks(dst []byte, acks []ShardSeq) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(acks)))
	for _, a := range acks {
		dst = binary.AppendUvarint(dst, uint64(a.Shard))
		dst = binary.AppendUvarint(dst, a.Seq)
	}
	return dst
}

// DecodeSeqAcks parses a write acknowledgment body. An empty body
// decodes as no coordinates (a server without seq acks).
func DecodeSeqAcks(body []byte) ([]ShardSeq, error) {
	if len(body) == 0 {
		return nil, nil
	}
	count, w := binary.Uvarint(body)
	if w <= 0 || count > uint64(len(body)+1) {
		return nil, ErrMalformed
	}
	body = body[w:]
	acks := make([]ShardSeq, 0, count)
	for i := uint64(0); i < count; i++ {
		shard, w := binary.Uvarint(body)
		if w <= 0 || shard > 1<<20 {
			return nil, ErrMalformed
		}
		body = body[w:]
		seq, w := binary.Uvarint(body)
		if w <= 0 {
			return nil, ErrMalformed
		}
		body = body[w:]
		acks = append(acks, ShardSeq{Shard: int(shard), Seq: seq})
	}
	if len(body) != 0 {
		return nil, ErrMalformed
	}
	return acks, nil
}
