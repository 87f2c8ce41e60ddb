package sstable

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lsmkv/internal/kv"
)

// buildBlock encodes entries and decodes the block.
func buildBlock(t testing.TB, restartInterval int, hashIndex bool, entries []kv.Entry) *block {
	t.Helper()
	bb := newBlockBuilder(restartInterval, hashIndex)
	for _, e := range entries {
		bb.add(e.Key, e.Value)
	}
	blk := new(block)
	if err := decodeBlockInto(blk, bb.finish()); err != nil {
		t.Fatalf("decodeBlockInto: %v", err)
	}
	return blk
}

func sortedEntries(n int, seed int64) []kv.Entry {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]kv.Entry, 0, n)
	seq := kv.SeqNum(n + 1)
	var prev string
	for i := 0; i < n; i++ {
		// Random keys with shared prefixes to stress prefix compression.
		k := fmt.Sprintf("pre%04d/%02d", rng.Intn(n), rng.Intn(4))
		if k <= prev {
			continue
		}
		prev = k
		seq--
		entries = append(entries, kv.Entry{
			Key:   kv.MakeInternalKey([]byte(k), seq, kv.KindSet),
			Value: []byte(fmt.Sprintf("val-%d", i)),
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		return kv.CompareInternal(entries[i].Key, entries[j].Key) < 0
	})
	return entries
}

func TestBlockRoundTripAllEntries(t *testing.T) {
	for _, interval := range []int{1, 4, 16} {
		for _, hashIdx := range []bool{false, true} {
			entries := sortedEntries(500, 7)
			blk := buildBlock(t, interval, hashIdx, entries)
			it := &blockIter{b: blk}
			i := 0
			for ok := it.First(); ok; ok = it.Next() {
				if kv.CompareInternal(it.Key(), entries[i].Key) != 0 {
					t.Fatalf("interval=%d hash=%v entry %d: key %s want %s",
						interval, hashIdx, i, it.Key(), entries[i].Key)
				}
				if string(it.Value()) != string(entries[i].Value) {
					t.Fatalf("entry %d value mismatch", i)
				}
				i++
			}
			if it.Error() != nil {
				t.Fatal(it.Error())
			}
			if i != len(entries) {
				t.Fatalf("iterated %d of %d entries", i, len(entries))
			}
		}
	}
}

func TestBlockSeekGEMatchesLinearScan(t *testing.T) {
	entries := sortedEntries(300, 9)
	blk := buildBlock(t, 8, false, entries)
	it := &blockIter{b: blk}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		target := kv.MakeSearchKey(
			[]byte(fmt.Sprintf("pre%04d/%02d", rng.Intn(350), rng.Intn(5))),
			kv.MaxSeqNum)
		// Linear-scan truth.
		want := -1
		for i, e := range entries {
			if kv.CompareInternal(e.Key, target) >= 0 {
				want = i
				break
			}
		}
		ok := it.SeekGE(target)
		if want == -1 {
			if ok {
				t.Fatalf("SeekGE(%s) found %s want exhausted", target, it.Key())
			}
			continue
		}
		if !ok {
			t.Fatalf("SeekGE(%s) exhausted, want %s", target, entries[want].Key)
		}
		if kv.CompareInternal(it.Key(), entries[want].Key) != 0 {
			t.Fatalf("SeekGE(%s) = %s want %s", target, it.Key(), entries[want].Key)
		}
	}
}

func TestBlockDecodeRejectsCorruption(t *testing.T) {
	entries := sortedEntries(50, 11)
	bb := newBlockBuilder(8, true)
	for _, e := range entries {
		bb.add(e.Key, e.Value)
	}
	raw := bb.finish()
	// Every single-byte flip must be caught by the CRC.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		mut := append([]byte(nil), raw...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		if err := decodeBlockInto(new(block), mut); err == nil {
			t.Fatal("bit flip not detected")
		}
	}
	// Truncations must fail too.
	for _, n := range []int{0, 1, 4, len(raw) / 2, len(raw) - 1} {
		if err := decodeBlockInto(new(block), raw[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
}

// TestBlockPropertyQuick: arbitrary key/value bytes survive the block
// encoding (via testing/quick over short random pairs).
func TestBlockPropertyQuick(t *testing.T) {
	f := func(keys [][]byte, values [][]byte) bool {
		// Build a sorted, deduped entry list from the fuzz input.
		n := len(keys)
		if len(values) < n {
			n = len(values)
		}
		if n == 0 {
			return true
		}
		uniq := map[string][]byte{}
		for i := 0; i < n; i++ {
			if len(keys[i]) == 0 {
				continue
			}
			uniq[string(keys[i])] = values[i]
		}
		var sortedKeys []string
		for k := range uniq {
			sortedKeys = append(sortedKeys, k)
		}
		sort.Strings(sortedKeys)
		bb := newBlockBuilder(4, true)
		var entries []kv.Entry
		for i, k := range sortedKeys {
			e := kv.Entry{
				Key:   kv.MakeInternalKey([]byte(k), kv.SeqNum(i+1), kv.KindSet),
				Value: uniq[k],
			}
			entries = append(entries, e)
			bb.add(e.Key, e.Value)
		}
		if len(entries) == 0 {
			return true
		}
		blk := new(block)
		if decodeBlockInto(blk, bb.finish()) != nil {
			return false
		}
		it := &blockIter{b: blk}
		i := 0
		for ok := it.First(); ok; ok = it.Next() {
			if i >= len(entries) ||
				kv.CompareInternal(it.Key(), entries[i].Key) != 0 ||
				string(it.Value()) != string(entries[i].Value) {
				return false
			}
			i++
		}
		return i == len(entries) && it.Error() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
