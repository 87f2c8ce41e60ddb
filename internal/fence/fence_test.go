package fence

import (
	"fmt"
	"testing"
	"testing/quick"
)

func buildIndex(keys ...string) *Index {
	var b Builder
	for i, k := range keys {
		b.Add([]byte(k), BlockHandle{Offset: uint64(i * 4096), Length: 4096})
	}
	return b.Build()
}

func TestIndexFind(t *testing.T) {
	x := buildIndex("b", "f", "m")
	cases := []struct {
		key  string
		want int
	}{
		{"a", -1}, // before all blocks
		{"b", 0},
		{"c", 0},
		{"e", 0},
		{"f", 1},
		{"l", 1},
		{"m", 2},
		{"z", 2},
	}
	for _, c := range cases {
		if got := x.Find([]byte(c.key)); got != c.want {
			t.Errorf("Find(%q)=%d want %d", c.key, got, c.want)
		}
	}
}

func TestIndexEncodeDecodeRoundTrip(t *testing.T) {
	var b Builder
	for i := 0; i < 300; i++ {
		b.Add([]byte(fmt.Sprintf("key%06d", i*7)), BlockHandle{Offset: uint64(i * 4096), Length: 4000 + uint64(i)})
	}
	enc := b.Encode()
	x, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 300 {
		t.Fatalf("decoded %d entries want 300", x.Len())
	}
	for i := 0; i < 300; i++ {
		e := x.Entry(i)
		if string(e.FirstKey) != fmt.Sprintf("key%06d", i*7) {
			t.Fatalf("entry %d key mismatch: %q", i, e.FirstKey)
		}
		if e.Handle.Offset != uint64(i*4096) || e.Handle.Length != 4000+uint64(i) {
			t.Fatalf("entry %d handle mismatch: %+v", i, e.Handle)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	var b Builder
	b.Add([]byte("abc"), BlockHandle{Offset: 1, Length: 2})
	enc := b.Encode()
	for n := 1; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", n)
		}
	}
	// Trailing garbage is also corruption.
	if _, err := Decode(append(append([]byte(nil), enc...), 0xff)); err == nil {
		t.Error("trailing garbage decoded without error")
	}
}

func TestBlockHandleRoundTrip(t *testing.T) {
	f := func(off, length uint64) bool {
		enc := BlockHandle{Offset: off, Length: length}.EncodeTo(nil)
		h, rest, ok := DecodeBlockHandle(enc)
		return ok && len(rest) == 0 && h.Offset == off && h.Length == length
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexFindConsistentWithLinearScan(t *testing.T) {
	// Property: Find agrees with a linear scan over any sorted fence set.
	x := buildIndex("ba", "de", "de1", "mm", "zz")
	probe := func(key string) int {
		want := -1
		for i := 0; i < x.Len(); i++ {
			if string(x.Entry(i).FirstKey) <= key {
				want = i
			}
		}
		return want
	}
	keys := []string{"", "a", "ba", "ba0", "de", "de0", "de1", "de11", "mm", "n", "zz", "zzz"}
	for _, k := range keys {
		if got, want := x.Find([]byte(k)), probe(k); got != want {
			t.Errorf("Find(%q)=%d want %d", k, got, want)
		}
	}
}

func TestHashIndexLookup(t *testing.T) {
	var b HashIndexBuilder
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		b.Add([]byte(keys[i]), i%20) // restart ordinals 0..19
	}
	enc := b.Encode(nil)
	idx, payloadLen, ok := ParseHashIndex(enc)
	if !ok || payloadLen != 0 {
		t.Fatalf("ParseHashIndex failed: ok=%v payloadLen=%d", ok, payloadLen)
	}
	misses, fallbacks := 0, 0
	for i, k := range keys {
		restart, res := idx.Lookup([]byte(k))
		switch res {
		case LookupMiss:
			t.Fatalf("present key %q reported as definite miss", k)
		case LookupFallback:
			fallbacks++
		case LookupHit:
			if restart != i%20 {
				t.Fatalf("key %q: restart %d want %d", k, restart, i%20)
			}
		}
	}
	// Absent keys should frequently be definite misses (that is the point
	// of the structure) and must never return a wrong definite answer.
	for i := 0; i < 200; i++ {
		_, res := idx.Lookup([]byte(fmt.Sprintf("ghost%04d", i)))
		if res == LookupMiss {
			misses++
		}
	}
	if misses == 0 {
		t.Error("hash index produced no definite misses for absent keys")
	}
	if fallbacks == len(keys) {
		t.Error("every present key collided; table sizing is broken")
	}
}

func TestHashIndexEmptyBuilder(t *testing.T) {
	var b HashIndexBuilder
	if out := b.Encode(nil); len(out) != 0 {
		t.Errorf("empty builder encoded %d bytes", len(out))
	}
	if _, _, ok := ParseHashIndex(nil); ok {
		t.Error("parsing nil must fail")
	}
}

func TestHashIndexPayloadSplit(t *testing.T) {
	payload := []byte("block-payload-bytes")
	var b HashIndexBuilder
	b.Add([]byte("k1"), 3)
	b.Add([]byte("k2"), 5)
	full := b.Encode(append([]byte(nil), payload...))
	idx, payloadLen, ok := ParseHashIndex(full)
	if !ok {
		t.Fatal("parse failed")
	}
	if payloadLen != len(payload) {
		t.Fatalf("payloadLen=%d want %d", payloadLen, len(payload))
	}
	if _, res := idx.Lookup([]byte("k1")); res == LookupMiss {
		t.Error("present key reported missing after payload split")
	}
}

func TestHashIndexReset(t *testing.T) {
	var b HashIndexBuilder
	b.Add([]byte("a"), 1)
	b.Reset()
	if out := b.Encode(nil); len(out) != 0 {
		t.Error("builder not empty after Reset")
	}
}

func TestHashIndexSkipsHighRestarts(t *testing.T) {
	var b HashIndexBuilder
	b.Add([]byte("a"), MaxHashIndexRestarts+1)
	if out := b.Encode(nil); len(out) != 0 {
		t.Error("restart ordinal beyond addressable range must be skipped")
	}
}
