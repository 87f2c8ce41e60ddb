package server

import (
	"bytes"
	"testing"

	"lsmkv/internal/core"
)

// FuzzDecodeRequest: arbitrary frame payloads must either decode or
// return ErrMalformed — never panic, and never allocate beyond the input
// (the decoder only ever subslices its payload and bounds the ops slice
// by the remaining bytes). Valid decodes must survive a re-encode/decode
// round trip unchanged (uvarints admit non-minimal encodings, so the
// bytes themselves need not be canonical).
func FuzzDecodeRequest(f *testing.F) {
	seeds := []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpStats},
		{ID: 3, Op: OpGet, Key: []byte("key")},
		{ID: 4, Op: OpDelete, Key: []byte("k")},
		{ID: 5, Op: OpPut, Key: []byte("k"), Value: []byte("value")},
		{ID: 7, Op: OpBatch, Ops: []core.BatchOp{
			core.PutOp([]byte("a"), []byte("1")),
			core.DeleteOp([]byte("b")),
		}},
		{ID: 8, Op: OpMultiGet, Keys: [][]byte{[]byte("a"), []byte("bb")}},
		{ID: 9, Op: OpScanStream, Lo: []byte("a"), Hi: []byte("z"), Limit: 4},
		{ID: 10, Op: OpPutTTL, Key: []byte("k"), Value: []byte("v"), TTLMillis: 1500},
		{ID: 11, Op: OpIncr, Key: []byte("k"), Delta: -7},
		{ID: 12, Op: OpCas, Key: []byte("k"), HasExpected: true, Expected: []byte("old"), Value: []byte("new")},
		{ID: 13, Op: OpCas, Key: []byte("k"), Value: []byte("new")},
		{ID: 14, Op: OpSketch, Sub: SketchFreq, Key: []byte("k")},
		{ID: 15, Op: OpSketch, Sub: SketchCard},
	}
	for _, req := range seeds {
		f.Add(AppendRequest(nil, &req))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 99, 1, 2, 3})
	f.Add([]byte{6, 0, 0, 0, byte(OpScan), 1, 'a', 1, 'z', 10}) // retired opcode, once-valid body
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(batchFrameWithIncrKind(2)) // BATCH op kinds are put and delete only
	f.Add(batchFrameWithIncrKind(byte(OpIncr)))

	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		for _, op := range req.Ops {
			if op.RMW != nil {
				t.Fatalf("a BATCH body decoded into a read-modify-write op (payload %x)", payload)
			}
		}
		re := AppendRequest(nil, &req)
		req2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v (payload %x)", err, re)
		}
		if !requestsEqual(&req, &req2) {
			t.Fatalf("round trip changed request:\n in  %+v\n out %+v", req, req2)
		}
	})
}

func requestsEqual(a, b *Request) bool {
	if a.ID != b.ID || a.Op != b.Op || a.Limit != b.Limit ||
		!bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Value, b.Value) ||
		!bytes.Equal(a.Lo, b.Lo) || !bytes.Equal(a.Hi, b.Hi) ||
		a.TTLMillis != b.TTLMillis || a.Delta != b.Delta ||
		a.HasExpected != b.HasExpected || !bytes.Equal(a.Expected, b.Expected) ||
		a.Sub != b.Sub ||
		len(a.Ops) != len(b.Ops) || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i].Kind != b.Ops[i].Kind ||
			!bytes.Equal(a.Ops[i].Key, b.Ops[i].Key) ||
			!bytes.Equal(a.Ops[i].Value, b.Ops[i].Value) {
			return false
		}
	}
	for i := range a.Keys {
		if !bytes.Equal(a.Keys[i], b.Keys[i]) {
			return false
		}
	}
	return true
}

// FuzzMultiGetRequest drills into the MULTIGET request body and the
// MULTIGET value-list response body specifically: both decoders must
// reject truncated or lying frames with ErrMalformed (never panic, and
// never over-allocate on a claimed-huge count), and anything that does
// decode must survive a re-encode/decode round trip, including the
// absent (nil) versus present-but-empty value distinction.
func FuzzMultiGetRequest(f *testing.F) {
	reqs := []Request{
		{ID: 1, Op: OpMultiGet, Keys: [][]byte{[]byte("k")}},
		{ID: 2, Op: OpMultiGet, Keys: [][]byte{[]byte("a"), []byte("long-key-here"), []byte("z")}},
	}
	for _, req := range reqs {
		f.Add(AppendRequest(nil, &req))
	}
	// Response-shaped seeds (exercised via the value-list decoder below).
	f.Add(AppendMultiGetValues(nil, [][]byte{nil, {}, []byte("v")}))
	// Truncations and lies: claimed count far beyond the body.
	f.Add([]byte{1, 0, 0, 0, 13, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{1, 0, 0, 0, 13, 2, 1, 'a'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if req, err := DecodeRequest(payload); err == nil && req.Op == OpMultiGet {
			re := AppendRequest(nil, &req)
			req2, err := DecodeRequest(re)
			if err != nil {
				t.Fatalf("re-encoded MULTIGET failed to decode: %v (payload %x)", err, re)
			}
			if !requestsEqual(&req, &req2) {
				t.Fatalf("round trip changed MULTIGET:\n in  %+v\n out %+v", req, req2)
			}
		}
		// The same bytes fed to the response-side value-list decoder.
		vals, err := DecodeMultiGetValues(payload)
		if err != nil {
			return
		}
		re := AppendMultiGetValues(nil, vals)
		vals2, err := DecodeMultiGetValues(re)
		if err != nil {
			t.Fatalf("re-encoded value list failed to decode: %v", err)
		}
		if len(vals2) != len(vals) {
			t.Fatalf("round trip changed value count: %d != %d", len(vals2), len(vals))
		}
		for i := range vals {
			if (vals[i] == nil) != (vals2[i] == nil) {
				t.Fatalf("round trip changed absent/present at %d", i)
			}
			if !bytes.Equal(vals[i], vals2[i]) {
				t.Fatalf("round trip changed value %d", i)
			}
		}
	})
}

// FuzzIncrCasRequest drills into the read-modify-write and sketch frame
// bodies: INCR's signed varint delta, CAS's expected-marker byte (which
// must be exactly 0 or 1, and must preserve the absent-assertion versus
// present-but-empty expected distinction through a round trip), PUTTTL's
// trailing uvarint, and SKETCH's subcommand byte. Truncated or lying
// frames must come back ErrMalformed, never panic.
func FuzzIncrCasRequest(f *testing.F) {
	reqs := []Request{
		{ID: 1, Op: OpIncr, Key: []byte("k"), Delta: 1},
		{ID: 2, Op: OpIncr, Key: []byte("k"), Delta: -1 << 40},
		{ID: 3, Op: OpCas, Key: []byte("k"), HasExpected: true, Expected: []byte{}, Value: []byte("v")},
		{ID: 4, Op: OpCas, Key: []byte("k"), Value: []byte("v")},
		{ID: 5, Op: OpPutTTL, Key: []byte("k"), Value: []byte("v"), TTLMillis: 1},
		{ID: 6, Op: OpSketch, Sub: SketchFreq, Key: []byte("k")},
		{ID: 7, Op: OpSketch, Sub: SketchCard},
	}
	for _, req := range reqs {
		f.Add(AppendRequest(nil, &req))
	}
	// Truncations and lies, hand-built: frames claim more than they carry.
	f.Add([]byte{1, 0, 0, 0, byte(OpIncr), 1, 'k'})               // delta missing
	f.Add([]byte{1, 0, 0, 0, byte(OpIncr), 1, 'k', 0x80})         // delta cut mid-varint
	f.Add([]byte{1, 0, 0, 0, byte(OpCas), 1, 'k', 2, 1, 'v'})     // marker byte neither 0 nor 1
	f.Add([]byte{1, 0, 0, 0, byte(OpCas), 1, 'k', 1, 5, 'x'})     // expected truncated
	f.Add([]byte{1, 0, 0, 0, byte(OpPutTTL), 1, 'k', 1, 'v'})     // ttl missing
	f.Add([]byte{1, 0, 0, 0, byte(OpSketch), SketchFreq})         // key missing
	f.Add([]byte{1, 0, 0, 0, byte(OpSketch), SketchCard, 1, 'k'}) // trailing bytes
	f.Add([]byte{1, 0, 0, 0, byte(OpSketch), 9})                  // unknown subcommand

	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		switch req.Op {
		case OpIncr, OpCas, OpPutTTL, OpSketch:
		default:
			return
		}
		re := AppendRequest(nil, &req)
		req2, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded %v failed to decode: %v (payload %x)", req.Op, err, re)
		}
		if !requestsEqual(&req, &req2) {
			t.Fatalf("round trip changed request:\n in  %+v\n out %+v", req, req2)
		}
		if req.Op == OpCas && !req.HasExpected && req.Expected != nil {
			t.Fatalf("decoder produced expected bytes without the marker: %+v", req)
		}
	})
}

// FuzzDecodeResponse mirrors the request fuzzer for the client-side
// decoder, in both scan and non-scan shapes.
func FuzzDecodeResponse(f *testing.F) {
	okv := Response{ID: 1, Status: StatusOK, Value: []byte("v")}
	scan := Response{ID: 2, Status: StatusOK, Pairs: []KV{{Key: []byte("a"), Value: []byte("1")}}, More: true}
	f.Add(AppendResponse(nil, &okv), false)
	f.Add(AppendResponse(nil, &scan), true)
	f.Add([]byte{}, true)
	f.Add(bytes.Repeat([]byte{0xFE}, 32), true)

	f.Fuzz(func(t *testing.T, payload []byte, asScan bool) {
		resp, err := DecodeResponse(payload, asScan)
		if err != nil {
			return
		}
		if !asScan || resp.Status != StatusOK {
			return // Value aliases payload; nothing further to pin.
		}
		re := AppendResponse(nil, &resp)
		resp2, err := DecodeResponse(re, true)
		if err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		if resp2.ID != resp.ID || resp2.More != resp.More || len(resp2.Pairs) != len(resp.Pairs) {
			t.Fatalf("round trip changed response:\n in  %+v\n out %+v", resp, resp2)
		}
		for i := range resp.Pairs {
			if !bytes.Equal(resp.Pairs[i].Key, resp2.Pairs[i].Key) ||
				!bytes.Equal(resp.Pairs[i].Value, resp2.Pairs[i].Value) {
				t.Fatalf("round trip changed pair %d", i)
			}
		}
	})
}
