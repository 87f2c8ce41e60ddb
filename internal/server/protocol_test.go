package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"lsmkv/internal/core"
	"lsmkv/internal/replica"
)

// fieldValues returns the boundary values a request-body field is
// exercised with: the smallest it admits first, then what its shape makes
// interesting (empty against non-empty strings, the largest uvarint its
// cap allows, nil against empty expected, both SKETCH forms).
func fieldValues(f field) []func(*Request) {
	key := func(k string) func(*Request) { return func(r *Request) { r.Key = []byte(k) } }
	switch f {
	case fKey:
		return []func(*Request){key("k"), key("a-longer-key")}
	case fValue, fLo, fHi:
		return []func(*Request){
			func(r *Request) { *r.bytesField(f) = []byte{} },
			func(r *Request) { *r.bytesField(f) = []byte("some bytes") },
		}
	case fLimit, fMinSeq, fBuckets, fTTLMillis:
		max := uvarintMax[f]
		if max == 0 {
			max = math.MaxUint64
		}
		return []func(*Request){
			func(r *Request) { *r.uintField(f) = 0 },
			func(r *Request) { *r.uintField(f) = max },
		}
	case fDelta:
		return []func(*Request){
			func(r *Request) { r.Delta = math.MinInt64 },
			func(r *Request) { r.Delta = math.MaxInt64 },
		}
	case fSeqs:
		return []func(*Request){
			func(r *Request) { r.Seqs = []uint64{} },
			func(r *Request) { r.Seqs = []uint64{0, 7, math.MaxUint64} },
		}
	case fKeys:
		return []func(*Request){
			func(r *Request) { r.Keys = [][]byte{} },
			func(r *Request) { r.Keys = [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")} },
		}
	case fOps:
		return []func(*Request){
			func(r *Request) { r.Ops = []core.BatchOp{} },
			func(r *Request) {
				r.Ops = []core.BatchOp{
					core.PutOp([]byte("a"), []byte("1")),
					core.DeleteOp([]byte("b")),
					core.PutOp([]byte("c"), []byte{}),
				}
			},
		}
	case fExpected:
		return []func(*Request){
			func(r *Request) {}, // expected-absent
			func(r *Request) { r.HasExpected, r.Expected = true, []byte{} },
			func(r *Request) { r.HasExpected, r.Expected = true, []byte("old") },
		}
	case fSub:
		return []func(*Request){
			func(r *Request) { r.Sub = SketchCard },
			func(r *Request) { r.Sub, r.Key = SketchFreq, []byte("k") },
		}
	}
	panic("fieldValues: unknown field")
}

// TestRequestRoundTrip builds requests for every row of the opcode table
// from the row's own field list — so a new opcode is covered by being
// declared — and checks that each survives encode, framing and decode
// exactly, nil-versus-empty included.
func TestRequestRoundTrip(t *testing.T) {
	for _, op := range Opcodes() {
		row := op.row()
		if row.retired != nil {
			continue
		}
		// Variant v takes each field's v-th value (its last, once past them).
		variants := 1
		for _, f := range row.body {
			variants = max(variants, len(fieldValues(f)))
		}
		for v := 0; v < variants; v++ {
			want := Request{ID: uint32(op)<<8 | uint32(v), Op: op}
			for _, f := range row.body {
				vals := fieldValues(f)
				vals[min(v, len(vals)-1)](&want)
			}
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := WriteFrame(bw, AppendRequest(nil, &want)); err != nil {
				t.Fatal(err)
			}
			bw.Flush()
			payload, err := ReadFrame(&buf, MaxFrameBytes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeRequest(payload)
			if err != nil {
				t.Fatalf("%v variant %d: decode: %v", op, v, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v variant %d round trip:\n got  %+v\n want %+v", op, v, got, want)
			}
		}
	}
}

// TestRequestGoldenBytes pins one encoded request per opcode to the
// bytes the parent of the one-table codec (PR 27) produced for it: the
// table changed how the codec is written, not what it writes.
func TestRequestGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		req Request
		hex string
	}{
		{Request{ID: 1, Op: OpPing}, "0100000001"},
		{Request{ID: 2, Op: OpGet, Key: []byte("k")}, "0200000002016b"},
		{Request{ID: 3, Op: OpPut, Key: []byte("k"), Value: []byte("val")}, "0300000003016b0376616c"},
		{Request{ID: 4, Op: OpDelete, Key: []byte("gone")}, "040000000404676f6e65"},
		{Request{ID: 6, Op: OpBatch, Ops: []core.BatchOp{
			core.PutOp([]byte("a"), []byte("1")), core.DeleteOp([]byte("b")), core.PutOp([]byte("c"), nil),
		}}, "060000000603000161013101016200016300"},
		{Request{ID: 7, Op: OpStats}, "0700000007"},
		{Request{ID: 8, Op: OpTrace, Key: []byte("k")}, "0800000008016b"},
		{Request{ID: 9, Op: OpCheckpoint, Key: []byte("nightly")}, "0900000009076e696768746c79"},
		{Request{ID: 10, Op: OpReplSync, Seqs: []uint64{0, 7, 1 << 33}}, "0a0000000a0300078080808020"},
		{Request{ID: 11, Op: OpGetSeq, Key: []byte("k"), MinSeq: 300}, "0b0000000b016bac02"},
		{Request{ID: 12, Op: OpMerkle, Buckets: 256, Seqs: []uint64{9, 9}}, "0c0000000c8002020909"},
		{Request{ID: 13, Op: OpMultiGet, Keys: [][]byte{[]byte("a"), []byte("bb")}}, "0d0000000d020161026262"},
		{Request{ID: 14, Op: OpScanStream, Lo: []byte("a"), Hi: []byte("z"), Limit: 7}, "0e0000000e0161017a07"},
		{Request{ID: 15, Op: OpPutTTL, Key: []byte("k"), Value: []byte("v"), TTLMillis: 1500}, "0f0000000f016b0176dc0b"},
		{Request{ID: 16, Op: OpIncr, Key: []byte("k"), Delta: -7}, "1000000010016b0d"},
		{Request{ID: 17, Op: OpCas, Key: []byte("k"), HasExpected: true, Expected: []byte("old"), Value: []byte("new")}, "1100000011016b01036f6c64036e6577"},
		{Request{ID: 0x11000011, Op: OpCas, Key: []byte("k"), Value: []byte("new")}, "1100001111016b00036e6577"},
		{Request{ID: 18, Op: OpSketch, Sub: SketchFreq, Key: []byte("k")}, "120000001201016b"},
		{Request{ID: 0x12000012, Op: OpSketch, Sub: SketchCard}, "120000121202"},
	} {
		if got := hex.EncodeToString(AppendRequest(nil, &tc.req)); got != tc.hex {
			t.Errorf("%v encodes as %s, want %s", tc.req.Op, got, tc.hex)
		}
	}
}

// TestGetCodecAllocs: the table loop keeps a GET's encode and decode off
// the heap (benchmark/ times this pair as server.codec_req_ns).
func TestGetCodecAllocs(t *testing.T) {
	req := &Request{ID: 7, Op: OpGet, Key: []byte("key-000042")}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendRequest(buf[:0], req)
		if r, err := DecodeRequest(buf); err != nil || len(r.Key) == 0 {
			t.Fatal("GET did not round trip")
		}
	}); n != 0 {
		t.Fatalf("GET encode+decode allocates %v times per op, want 0", n)
	}
}

// TestOneOpcodeTable keeps opTable the only per-opcode structure, beside
// core's TestOneWritePath / TestOneReadPath / TestOneMaintenancePath:
// every number has a row or is unassigned on purpose, a row has the one
// handler its class calls, and no non-test source of the packages that
// speak the protocol switches on, compares against, or keys a second
// table by an Op* constant.
func TestOneOpcodeTable(t *testing.T) {
	names := map[string]Opcode{}
	for op := Opcode(1); op < opMax; op++ {
		row := op.row()
		if row.name == "" {
			t.Errorf("opcode %d has no row: give it one, or mark the number retired", op)
			continue
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("opcodes %d and %d are both named %q", prev, op, row.name)
		}
		names[row.name] = op
		handlers := map[string]bool{"ops": row.ops != nil, "serve": row.serve != nil, "stream": row.stream != nil}
		want := map[Class]string{ClassRead: "serve", ClassAdmin: "serve", ClassWrite: "ops", ClassRMW: "ops", ClassStream: "stream"}[row.class]
		for h, set := range handlers {
			if set != (h == want) {
				t.Errorf("%v (class %v): handler %s set=%v, want only %q", op, row.class, h, set, want)
			}
		}
		if (row.class == 0) != (row.retired != nil) {
			t.Errorf("%v: class %v but retired=%v; a row is live or retired", op, row.class, row.retired)
		}
	}

	isOp := func(e ast.Expr) bool {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		id, ok := e.(*ast.Ident)
		return ok && len(id.Name) > 2 && strings.HasPrefix(id.Name, "Op") && unicode.IsUpper(rune(id.Name[2]))
	}
	tables := 0
	for _, dir := range []string{".", "../client", "../../cmd/lsmctl", "../../cmd/doccheck", "../../cmd/lsmserver"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CaseClause:
						for _, e := range n.List {
							if isOp(e) {
								t.Errorf("%s: case on an opcode; put what it decides in the opTable row", fset.Position(e.Pos()))
							}
						}
					case *ast.BinaryExpr:
						if (n.Op == token.EQL || n.Op == token.NEQ) && (isOp(n.X) || isOp(n.Y)) {
							t.Errorf("%s: comparison against an opcode; put what it decides in the opTable row", fset.Position(n.Pos()))
						}
					case *ast.CompositeLit:
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok && isOp(kv.Key) {
								tables++
								return true
							}
						}
					}
					return true
				})
			}
		}
	}
	if tables != 1 {
		t.Errorf("%d composite literals are keyed by Op* constants, want exactly one (opTable)", tables)
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

		// The two capped uvarints: one past the cap is malformed, so it
		// never sizes an allocation or wraps an expiry.
		"merkle buckets over cap": AppendRequest(nil, &Request{Op: OpMerkle, Buckets: replica.MaxMerkleBuckets + 1}),
		"putttl millis over cap":  AppendRequest(nil, &Request{Op: OpPutTTL, Key: []byte("k"), TTLMillis: MaxTTLMillis + 1}),

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
