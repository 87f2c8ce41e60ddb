package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"lsmkv/internal/core"
)

func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	payload := AppendRequest(nil, &req)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteFrame(bw, payload); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := ReadFrame(&buf, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRequest(got)
	if err != nil {
		t.Fatalf("decode %v: %v", req.Op, err)
	}
	return dec
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpStats},
		{ID: 3, Op: OpGet, Key: []byte("k")},
		{ID: 4, Op: OpDelete, Key: []byte("gone")},
		{ID: 5, Op: OpPut, Key: []byte("k"), Value: []byte("v")},
		{ID: 6, Op: OpPut, Key: []byte("k"), Value: nil},
		{ID: 9, Op: OpBatch, Ops: []core.BatchOp{
			core.PutOp([]byte("a"), []byte("1")),
			core.DeleteOp([]byte("b")),
			core.PutOp([]byte("c"), nil),
		}},
		{ID: 10, Op: OpMultiGet, Keys: [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}},
		{ID: 11, Op: OpScanStream, Lo: []byte("a"), Hi: []byte("z"), Limit: 7},
		{ID: 12, Op: OpScanStream, Lo: nil, Hi: nil, Limit: 0},
	}
	for _, want := range cases {
		got := roundTripRequest(t, want)
		if got.ID != want.ID || got.Op != want.Op {
			t.Fatalf("header mismatch: got %+v want %+v", got, want)
		}
		if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) ||
			!bytes.Equal(got.Lo, want.Lo) || !bytes.Equal(got.Hi, want.Hi) || got.Limit != want.Limit {
			t.Fatalf("body mismatch: got %+v want %+v", got, want)
		}
		if len(got.Ops) != len(want.Ops) {
			t.Fatalf("ops mismatch: got %d want %d", len(got.Ops), len(want.Ops))
		}
		for i := range got.Ops {
			if got.Ops[i].Kind != want.Ops[i].Kind ||
				!bytes.Equal(got.Ops[i].Key, want.Ops[i].Key) ||
				!bytes.Equal(got.Ops[i].Value, want.Ops[i].Value) {
				t.Fatalf("op %d mismatch: got %+v want %+v", i, got.Ops[i], want.Ops[i])
			}
		}
		if len(got.Keys) != len(want.Keys) {
			t.Fatalf("keys mismatch: got %d want %d", len(got.Keys), len(want.Keys))
		}
		for i := range got.Keys {
			if !bytes.Equal(got.Keys[i], want.Keys[i]) {
				t.Fatalf("key %d mismatch: got %q want %q", i, got.Keys[i], want.Keys[i])
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		resp Response
		scan bool
	}{
		{Response{ID: 1, Status: StatusOK, Value: []byte("v")}, false},
		{Response{ID: 2, Status: StatusNotFound}, false},
		{Response{ID: 3, Status: StatusError, Value: []byte("boom")}, false},
		{Response{ID: 4, Status: StatusOK, Pairs: []KV{
			{Key: []byte("a"), Value: []byte("1")},
			{Key: []byte("b"), Value: nil},
		}, More: true}, true},
		{Response{ID: 5, Status: StatusOK, Pairs: []KV{}}, true},
	}
	for _, tc := range cases {
		payload := AppendResponse(nil, &tc.resp)
		got, err := DecodeResponse(payload, tc.scan)
		if err != nil {
			t.Fatalf("decode id %d: %v", tc.resp.ID, err)
		}
		if got.ID != tc.resp.ID || got.Status != tc.resp.Status || got.More != tc.resp.More {
			t.Fatalf("header mismatch: got %+v want %+v", got, tc.resp)
		}
		if len(got.Pairs) != len(tc.resp.Pairs) {
			t.Fatalf("pairs mismatch: got %d want %d", len(got.Pairs), len(tc.resp.Pairs))
		}
		for i := range got.Pairs {
			if !bytes.Equal(got.Pairs[i].Key, tc.resp.Pairs[i].Key) ||
				!bytes.Equal(got.Pairs[i].Value, tc.resp.Pairs[i].Value) {
				t.Fatalf("pair %d mismatch", i)
			}
		}
	}
}

// batchFrameWithIncrKind is a one-op BATCH frame, well formed except that
// the op's kind byte is kind and its body is an INCR's (key, delta).
func batchFrameWithIncrKind(kind byte) []byte {
	return append([]byte{0, 0, 0, 0, byte(OpBatch)}, 1, kind, 1, 'k', 2)
}

func TestDecodeRequestMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"short header":       {1, 2, 3},
		"unknown opcode":     {0, 0, 0, 0, 99},
		"get missing key":    {0, 0, 0, 0, byte(OpGet)},
		"get empty key":      append([]byte{0, 0, 0, 0, byte(OpGet)}, 0),
		"put missing value":  append([]byte{0, 0, 0, 0, byte(OpPut)}, 1, 'k'),
		"retired paged scan": append([]byte{0, 0, 0, 0, byte(OpScan)}, 1, 'a', 1, 'z', 10),
		"ping trailing junk": append([]byte{0, 0, 0, 0, byte(OpPing)}, 0xFF),
		"batch lying count":  append([]byte{0, 0, 0, 0, byte(OpBatch)}, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),
		"batch bad kind":     append([]byte{0, 0, 0, 0, byte(OpBatch)}, 1, 7, 1, 'k'),
		"batch truncated":    append([]byte{0, 0, 0, 0, byte(OpBatch)}, 2, 0, 1, 'k', 0),
		"key length overrun": append([]byte{0, 0, 0, 0, byte(OpGet)}, 200),

		// A BATCH body holds puts and deletes only: no op kind reaches
		// core.BatchOp.RMW, however INCR-shaped the rest of the op is.
		"batch unassigned kind": batchFrameWithIncrKind(2),
		"batch incr as kind":    batchFrameWithIncrKind(byte(OpIncr)),

		"multiget missing count": {0, 0, 0, 0, byte(OpMultiGet)},
		"multiget lying count":   append([]byte{0, 0, 0, 0, byte(OpMultiGet)}, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F),
		"multiget empty key":     append([]byte{0, 0, 0, 0, byte(OpMultiGet)}, 1, 0),
		"multiget truncated key": append([]byte{0, 0, 0, 0, byte(OpMultiGet)}, 2, 1, 'a', 5, 'b'),
		"multiget trailing junk": append([]byte{0, 0, 0, 0, byte(OpMultiGet)}, 1, 1, 'k', 0xAA),

		"scanstream missing limit": append([]byte{0, 0, 0, 0, byte(OpScanStream)}, 1, 'a', 1, 'z'),
		"scanstream truncated hi":  append([]byte{0, 0, 0, 0, byte(OpScanStream)}, 1, 'a', 9, 'z'),
		"scanstream trailing junk": append([]byte{0, 0, 0, 0, byte(OpScanStream)}, 0, 0, 0, 1),
	}
	for name, payload := range cases {
		if _, err := DecodeRequest(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: want ErrMalformed, got %v", name, err)
		}
	}
}

// TestMultiGetValuesRoundTrip pins the MULTIGET response body: values
// round trip aligned and the absent (nil) versus present-but-empty
// ([]byte{}) distinction survives the wire.
func TestMultiGetValuesRoundTrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{nil},
		{[]byte("v")},
		{nil, {}, []byte("value"), nil, []byte("x")},
	}
	for _, want := range cases {
		got, err := DecodeMultiGetValues(AppendMultiGetValues(nil, want))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("count mismatch: got %d want %d", len(got), len(want))
		}
		for i := range want {
			if (got[i] == nil) != (want[i] == nil) {
				t.Fatalf("slot %d absent/present changed: got %v want %v", i, got[i], want[i])
			}
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("slot %d value changed: got %q want %q", i, got[i], want[i])
			}
		}
	}
}

func TestDecodeMultiGetValuesMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"lying count":     {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"missing marker":  {1},
		"bad marker":      {1, 9},
		"truncated value": {1, 1, 5, 'v'},
		"trailing junk":   {1, 0, 0xAA},
	}
	for name, body := range cases {
		if _, err := DecodeMultiGetValues(body); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: want ErrMalformed, got %v", name, err)
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Over-limit length must fail before allocating.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// A frame too short for the payload header is malformed.
	binary.LittleEndian.PutUint32(hdr[:], 2)
	if _, err := ReadFrame(bytes.NewReader(append(hdr[:], 0, 0)), 1<<20); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
	// A truncated body is an unexpected EOF, not a hang or panic.
	binary.LittleEndian.PutUint32(hdr[:], 100)
	if _, err := ReadFrame(bytes.NewReader(append(hdr[:], 1, 2, 3)), 1<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}
