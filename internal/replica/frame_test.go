package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestRecordsFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a longer record payload with some bytes")}
	body := AppendRecordsFrame(nil, 3, payloads)
	f, err := DecodeFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameRecords || f.Shard != 3 {
		t.Fatalf("kind=%d shard=%d", f.Kind, f.Shard)
	}
	if len(f.Records) != len(payloads) {
		t.Fatalf("decoded %d records, want %d", len(f.Records), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(f.Records[i], payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, f.Records[i], payloads[i])
		}
	}
}

func TestHeartbeatFrameRoundTrip(t *testing.T) {
	seqs := []uint64{0, 7, 1 << 40}
	f, err := DecodeFrame(AppendHeartbeatFrame(nil, seqs))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameHeartbeat || len(f.Seqs) != 3 || f.Seqs[2] != 1<<40 {
		t.Fatalf("heartbeat round trip: %+v", f)
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	f, err := DecodeFrame(AppendErrorFrame(nil, "stream fatal: re-bootstrap"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameError || f.Err != "stream fatal: re-bootstrap" {
		t.Fatalf("error round trip: %+v", f)
	}
}

func TestDecodeFrameMalformed(t *testing.T) {
	valid := AppendRecordsFrame(nil, 1, [][]byte{[]byte("payload")})
	cases := map[string][]byte{
		"empty":          {},
		"unknown kind":   {99, 1, 2, 3},
		"truncated hdr":  valid[:len(valid)-10],
		"trailing bytes": append(append([]byte(nil), valid...), 0xff),
		"huge count": func() []byte {
			b := []byte{FrameRecords}
			b = binary.AppendUvarint(b, 0)
			return binary.AppendUvarint(b, 1<<40)
		}(),
		"heartbeat trailing": append(AppendHeartbeatFrame(nil, []uint64{1}), 0),
	}
	for name, body := range cases {
		if _, err := DecodeFrame(body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, err)
		}
	}
}

func TestDecodeFrameCRC(t *testing.T) {
	body := AppendRecordsFrame(nil, 0, [][]byte{[]byte("payload bytes")})
	// Flip one bit inside the record payload: the per-record CRC must
	// catch it before the record reaches an apply path.
	body[len(body)-1] ^= 0x01
	if _, err := DecodeFrame(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt record accepted: %v", err)
	}
}

// FuzzReplFrame throws arbitrary bytes at the frame decoder: it must
// never panic, and any body it accepts as a records frame must re-encode
// to an equivalent frame.
func FuzzReplFrame(f *testing.F) {
	f.Add(AppendRecordsFrame(nil, 2, [][]byte{[]byte("k1v1"), []byte("k2")}))
	f.Add(AppendHeartbeatFrame(nil, []uint64{1, 2, 3}))
	f.Add(AppendErrorFrame(nil, "oops"))
	f.Add([]byte{})
	f.Add([]byte{FrameRecords, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		switch fr.Kind {
		case FrameRecords:
			again, err := DecodeFrame(AppendRecordsFrame(nil, fr.Shard, fr.Records))
			if err != nil {
				t.Fatalf("re-encode of accepted records frame rejected: %v", err)
			}
			if again.Shard != fr.Shard || len(again.Records) != len(fr.Records) {
				t.Fatalf("re-encode mismatch: %+v vs %+v", again, fr)
			}
		case FrameHeartbeat:
			if _, err := DecodeFrame(AppendHeartbeatFrame(nil, fr.Seqs)); err != nil {
				t.Fatalf("re-encode of accepted heartbeat rejected: %v", err)
			}
		}
	})
}
