package server

import (
	"errors"
	"testing"
)

func TestSeqAcksRoundTrip(t *testing.T) {
	acks := []ShardSeq{{Shard: 0, Seq: 12}, {Shard: 7, Seq: 1 << 40}}
	got, err := DecodeSeqAcks(AppendSeqAcks(nil, acks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != acks[0] || got[1] != acks[1] {
		t.Fatalf("acks round trip: %+v", got)
	}
	// Empty body: an old server that sends no ack block.
	if got, err := DecodeSeqAcks(nil); err != nil || got != nil {
		t.Fatalf("empty acks: %v, %v", got, err)
	}
	for name, body := range map[string][]byte{
		"truncated":  AppendSeqAcks(nil, acks)[:3],
		"trailing":   append(AppendSeqAcks(nil, acks), 0xff),
		"huge count": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, err := DecodeSeqAcks(body); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}
