// Package server implements the network serving layer over the storage
// engine: a length-prefixed binary KV protocol with per-connection
// pipelining, a group-commit loop that coalesces concurrent writes into
// one engine batch and a single WAL fsync, token-bucket backpressure,
// connection limits, read/write deadlines, graceful drain on shutdown,
// and live metrics over HTTP.
//
// Wire format (both directions):
//
//	uint32 LE frameLen      // length of everything after these 4 bytes
//	uint32 LE requestID     // echoed verbatim in the response
//	uint8     opcode/status
//	body...                 // opcode-specific, see below
//
// Because every response carries the request ID, a client may keep many
// requests in flight on one connection (pipelining) and match responses
// out of order. Request ID 0 (ConnErrID) is reserved for connection-level
// errors: the server uses it to report that framing was lost before
// hanging up, so clients must never assign it to a request. Request
// bodies use the engine's uvarint length-prefixed byte strings:
//
//	GET        key
//	PUT        key value
//	DELETE     key
//	BATCH      uvarint(n) then n× (uint8 kind, key[, value])  // kind 0=put 1=delete
//	STATS      (empty)
//	PING       (empty)
//	TRACE      key
//	MULTIGET   uvarint(n) then n× key    // batched point reads
//	SCANSTREAM lo hi uvarint(limit)      // server-streamed scan; limit 0 = server default
//	PUTTTL     key value uvarint(ttlMillis)
//	INCR       key varint(delta)         // atomic counter add
//	CAS        key uint8(hasExpected)[, expected] newValue
//	SKETCH     uint8(sub)[, key]         // sub 1=freq(key) 2=card
//
// Response bodies: GET returns the raw value; STATS returns JSON; TRACE
// returns the JSON-encoded read-path trace (StatusOK even when the key is
// absent — the trace itself reports found/not-found); MULTIGET returns
// uvarint(n), then n× (uint8 found[, value]) aligned with the request's
// keys; INCR returns varint(result); SKETCH returns uvarint(estimate);
// CAS answers StatusConflict on mismatch; error statuses carry the
// message as raw bytes. SCANSTREAM answers with an open-ended sequence of
// scan frames on the request's ID, each uint8(more), uvarint(count), then
// count× (key value) — more=1 means another frame follows, the frame with
// more=0 ends the stream — so a full scan costs one request whatever the
// range size. PROTOCOL.md is the
// complete wire reference; cmd/doccheck cross-checks its opcode table
// against the constants below.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lsmkv/internal/core"
	"lsmkv/internal/kv"
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
	OpScan  Opcode = 5 // reserved
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
	// key (absent keys start at zero) inside the key's group-commit loop;
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
	// opMax bounds the per-opcode metric arrays.
	opMax = 19
)

func (o Opcode) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpBatch:
		return "batch"
	case OpStats:
		return "stats"
	case OpTrace:
		return "trace"
	case OpCheckpoint:
		return "checkpoint"
	case OpReplSync:
		return "replsync"
	case OpGetSeq:
		return "getseq"
	case OpMerkle:
		return "merkle"
	case OpMultiGet:
		return "multiget"
	case OpScanStream:
		return "scanstream"
	case OpPutTTL:
		return "putttl"
	case OpIncr:
		return "incr"
	case OpCas:
		return "cas"
	case OpSketch:
		return "sketch"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
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

// DefaultMaxFrameBytes bounds a single request or response frame.
const DefaultMaxFrameBytes = 16 << 20

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
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
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

// WriteFrame writes the length prefix followed by payload.
func WriteFrame(w *bufio.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendRequest encodes req as a frame payload (without the length word).
func AppendRequest(dst []byte, req *Request) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, req.ID)
	dst = append(dst, byte(req.Op))
	switch req.Op {
	case OpGet, OpDelete, OpTrace:
		dst = kv.AppendLengthPrefixed(dst, req.Key)
	case OpPut:
		dst = kv.AppendLengthPrefixed(dst, req.Key)
		dst = kv.AppendLengthPrefixed(dst, req.Value)
	case OpBatch:
		dst = binary.AppendUvarint(dst, uint64(len(req.Ops)))
		for _, op := range req.Ops {
			if op.Kind == kv.KindDelete {
				dst = append(dst, wireBatchDelete)
				dst = kv.AppendLengthPrefixed(dst, op.Key)
			} else {
				dst = append(dst, wireBatchPut)
				dst = kv.AppendLengthPrefixed(dst, op.Key)
				dst = kv.AppendLengthPrefixed(dst, op.Value)
			}
		}
	case OpCheckpoint:
		dst = kv.AppendLengthPrefixed(dst, req.Key)
	case OpReplSync:
		dst = appendSeqVector(dst, req.Seqs)
	case OpGetSeq:
		dst = kv.AppendLengthPrefixed(dst, req.Key)
		dst = binary.AppendUvarint(dst, req.MinSeq)
	case OpMerkle:
		dst = binary.AppendUvarint(dst, req.Buckets)
		dst = appendSeqVector(dst, req.Seqs)
	case OpMultiGet:
		dst = binary.AppendUvarint(dst, uint64(len(req.Keys)))
		for _, k := range req.Keys {
			dst = kv.AppendLengthPrefixed(dst, k)
		}
	case OpScanStream:
		dst = kv.AppendLengthPrefixed(dst, req.Lo)
		dst = kv.AppendLengthPrefixed(dst, req.Hi)
		dst = binary.AppendUvarint(dst, req.Limit)
	case OpPutTTL:
		dst = kv.AppendLengthPrefixed(dst, req.Key)
		dst = kv.AppendLengthPrefixed(dst, req.Value)
		dst = binary.AppendUvarint(dst, req.TTLMillis)
	case OpIncr:
		dst = kv.AppendLengthPrefixed(dst, req.Key)
		dst = binary.AppendVarint(dst, req.Delta)
	case OpCas:
		dst = kv.AppendLengthPrefixed(dst, req.Key)
		if req.HasExpected {
			dst = append(dst, 1)
			dst = kv.AppendLengthPrefixed(dst, req.Expected)
		} else {
			dst = append(dst, 0)
		}
		dst = kv.AppendLengthPrefixed(dst, req.Value)
	case OpSketch:
		dst = append(dst, req.Sub)
		if req.Sub == SketchFreq {
			dst = kv.AppendLengthPrefixed(dst, req.Key)
		}
	}
	return dst
}

func appendSeqVector(dst []byte, seqs []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(seqs)))
	for _, s := range seqs {
		dst = binary.AppendUvarint(dst, s)
	}
	return dst
}

// decodeSeqVector parses a uvarint-counted sequence vector with
// allocation bounded by the remaining body.
func decodeSeqVector(body []byte) ([]uint64, []byte, bool) {
	count, w := binary.Uvarint(body)
	if w <= 0 || count > uint64(len(body)+1) {
		return nil, body, false
	}
	body = body[w:]
	seqs := make([]uint64, 0, count)
	for i := uint64(0); i < count; i++ {
		s, w := binary.Uvarint(body)
		if w <= 0 {
			return nil, body, false
		}
		body = body[w:]
		seqs = append(seqs, s)
	}
	return seqs, body, true
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
	body := payload[payloadHeaderLen:]
	var ok bool
	switch req.Op {
	case OpPing, OpStats:
	case OpGet, OpDelete, OpTrace:
		if req.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(req.Key) == 0 {
			return req, ErrMalformed
		}
	case OpPut:
		if req.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(req.Key) == 0 {
			return req, ErrMalformed
		}
		if req.Value, body, ok = kv.DecodeLengthPrefixed(body); !ok {
			return req, ErrMalformed
		}
	case OpScan:
		return req, errScanRetired
	case OpBatch:
		count, w := binary.Uvarint(body)
		if w <= 0 {
			return req, ErrMalformed
		}
		body = body[w:]
		// Every op consumes at least 2 bytes, so a count beyond that is a
		// lie; checking before allocating bounds the slice by the frame.
		if count > uint64(len(body)/2+1) {
			return req, ErrMalformed
		}
		req.Ops = make([]core.BatchOp, 0, count)
		for i := uint64(0); i < count; i++ {
			if len(body) < 1 {
				return req, ErrMalformed
			}
			kind := body[0]
			body = body[1:]
			var op core.BatchOp
			switch kind {
			case wireBatchPut:
				op.Kind = kv.KindSet
				if op.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(op.Key) == 0 {
					return req, ErrMalformed
				}
				if op.Value, body, ok = kv.DecodeLengthPrefixed(body); !ok {
					return req, ErrMalformed
				}
			case wireBatchDelete:
				op.Kind = kv.KindDelete
				if op.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(op.Key) == 0 {
					return req, ErrMalformed
				}
			default:
				return req, ErrMalformed
			}
			req.Ops = append(req.Ops, op)
		}
	case OpCheckpoint:
		if req.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(req.Key) == 0 {
			return req, ErrMalformed
		}
	case OpReplSync:
		if req.Seqs, body, ok = decodeSeqVector(body); !ok {
			return req, ErrMalformed
		}
	case OpGetSeq:
		if req.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(req.Key) == 0 {
			return req, ErrMalformed
		}
		var w int
		if req.MinSeq, w = binary.Uvarint(body); w <= 0 {
			return req, ErrMalformed
		}
		body = body[w:]
	case OpMerkle:
		var w int
		if req.Buckets, w = binary.Uvarint(body); w <= 0 {
			return req, ErrMalformed
		}
		body = body[w:]
		if req.Seqs, body, ok = decodeSeqVector(body); !ok {
			return req, ErrMalformed
		}
	case OpMultiGet:
		count, w := binary.Uvarint(body)
		if w <= 0 {
			return req, ErrMalformed
		}
		body = body[w:]
		// Every key consumes at least 2 bytes (length prefix + one byte —
		// empty keys are rejected below), so a larger count is a lie;
		// checking before allocating bounds the slice by the frame.
		if count > uint64(len(body)/2+1) {
			return req, ErrMalformed
		}
		req.Keys = make([][]byte, 0, count)
		for i := uint64(0); i < count; i++ {
			var k []byte
			if k, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(k) == 0 {
				return req, ErrMalformed
			}
			req.Keys = append(req.Keys, k)
		}
	case OpScanStream:
		if req.Lo, body, ok = kv.DecodeLengthPrefixed(body); !ok {
			return req, ErrMalformed
		}
		if req.Hi, body, ok = kv.DecodeLengthPrefixed(body); !ok {
			return req, ErrMalformed
		}
		var w int
		if req.Limit, w = binary.Uvarint(body); w <= 0 {
			return req, ErrMalformed
		}
		body = body[w:]
	case OpPutTTL:
		if req.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(req.Key) == 0 {
			return req, ErrMalformed
		}
		if req.Value, body, ok = kv.DecodeLengthPrefixed(body); !ok {
			return req, ErrMalformed
		}
		var w int
		if req.TTLMillis, w = binary.Uvarint(body); w <= 0 {
			return req, ErrMalformed
		}
		body = body[w:]
	case OpIncr:
		if req.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(req.Key) == 0 {
			return req, ErrMalformed
		}
		var w int
		if req.Delta, w = binary.Varint(body); w <= 0 {
			return req, ErrMalformed
		}
		body = body[w:]
	case OpCas:
		if req.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(req.Key) == 0 {
			return req, ErrMalformed
		}
		if len(body) < 1 {
			return req, ErrMalformed
		}
		marker := body[0]
		body = body[1:]
		switch marker {
		case 0:
		case 1:
			req.HasExpected = true
			if req.Expected, body, ok = kv.DecodeLengthPrefixed(body); !ok {
				return req, ErrMalformed
			}
			if req.Expected == nil {
				req.Expected = []byte{}
			}
		default:
			return req, ErrMalformed
		}
		if req.Value, body, ok = kv.DecodeLengthPrefixed(body); !ok {
			return req, ErrMalformed
		}
	case OpSketch:
		if len(body) < 1 {
			return req, ErrMalformed
		}
		req.Sub = body[0]
		body = body[1:]
		switch req.Sub {
		case SketchFreq:
			if req.Key, body, ok = kv.DecodeLengthPrefixed(body); !ok || len(req.Key) == 0 {
				return req, ErrMalformed
			}
		case SketchCard:
		default:
			return req, ErrMalformed
		}
	default:
		return req, ErrMalformed
	}
	if len(body) != 0 {
		return req, ErrMalformed
	}
	return req, nil
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
