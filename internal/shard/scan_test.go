package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lsmkv/internal/core"
	"lsmkv/internal/vfs"
)

// TestScanMatchesOracle is the cross-shard scan property test: a random
// workload of puts, overwrites, and deletes — with tombstones landing on
// both sides of shard boundaries — applied both to a sharded database and
// to a flat map. Every merged scan (bounded, unbounded, empty, reversed
// bounds, single-key) must agree with the sorted oracle byte for byte,
// at shard counts 1, 3, and 8. Run under -race by `make test`.
func TestScanMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xc0ffee + n)))
			fs := vfs.NewMem()
			db := openShards(t, fs, "db", n)
			defer db.Close()

			oracle := map[string]string{}
			const keyspace = 800
			key := func(i int) string { return fmt.Sprintf("k%04d", i) }

			for op := 0; op < 4000; op++ {
				i := rng.Intn(keyspace)
				k := key(i)
				switch {
				case rng.Intn(4) == 0: // delete — tombstones everywhere,
					// including keys never written (no-op tombstones).
					if err := db.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(oracle, k)
				default:
					v := fmt.Sprintf("v%d-%d", i, op)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					oracle[k] = v
				}
				// Occasionally flush so scans read through memtables, L0,
				// and compacted levels, not just memory.
				if op%1500 == 1499 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}

			expect := func(lo, hi string, unboundedHi bool) [][2]string {
				var keys []string
				for k := range oracle {
					if k >= lo && (unboundedHi || k <= hi) {
						keys = append(keys, k)
					}
				}
				sort.Strings(keys)
				out := make([][2]string, len(keys))
				for i, k := range keys {
					out[i] = [2]string{k, oracle[k]}
				}
				return out
			}
			collect := func(lo, hi []byte) [][2]string {
				var got [][2]string
				if err := db.Scan(lo, hi, func(k, v []byte) bool {
					got = append(got, [2]string{string(k), string(v)})
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return got
			}
			compare := func(name string, got, want [][2]string) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d entries, want %d", name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: entry %d = %v, want %v", name, i, got[i], want[i])
					}
				}
			}

			compare("full", collect([]byte("k"), []byte("l")), expect("k", "l", false))
			compare("unbounded", collect(nil, nil), expect("", "", true))
			compare("mid-range", collect([]byte(key(200)), []byte(key(600))), expect(key(200), key(600), false))
			compare("empty-range", collect([]byte("zz"), []byte("zzz")), nil)
			compare("reversed", collect([]byte("k0500"), []byte("k0100")), nil)
			compare("single-key", collect([]byte(key(100)), []byte(key(100))), expect(key(100), key(100), false))

			// Early termination stops the merge cleanly mid-stream.
			seen := 0
			if err := db.Scan(nil, nil, func(k, v []byte) bool {
				seen++
				return seen < 10
			}); err != nil {
				t.Fatal(err)
			}
			if want := min(10, len(oracle)); seen != want {
				t.Fatalf("early-stop scan visited %d, want %d", seen, want)
			}
		})
	}
}

// TestScannerShardTagging: the merged Scanner reports, for every key, the
// shard that served it — and that shard is the router's answer.
func TestScannerShardTagging(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 4)
	defer db.Close()
	for i := 0; i < 300; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := db.newScanner(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var prev []byte
	count := 0
	for sc.Next() {
		if prev != nil && bytes.Compare(prev, sc.Key()) >= 0 {
			t.Fatalf("merge out of order: %q then %q", prev, sc.Key())
		}
		if want := db.ShardOf(sc.Key()); sc.Shard() != want {
			t.Fatalf("key %q tagged shard %d, routed to %d", sc.Key(), sc.Shard(), want)
		}
		prev = append(prev[:0], sc.Key()...)
		count++
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if count != 300 {
		t.Fatalf("scanner saw %d keys, want 300", count)
	}
}

// TestSnapshotScanIsolation: a snapshot vector's merged scan does not see
// writes, overwrites, or deletes that land after the snapshot — per shard.
func TestSnapshotScanIsolation(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 3)
	defer db.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.NewSnapshot()
	defer snap.Release()

	// Mutate heavily after the snapshot.
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			db.Put(tkey(i), []byte("AFTER"))
		case 1:
			db.Delete(tkey(i))
		}
	}
	db.Put([]byte("zzz-new"), []byte("new"))

	got := 0
	err := snap.Scan(nil, nil, func(k, v []byte) bool {
		if string(k) == "zzz-new" {
			t.Fatal("snapshot saw a post-snapshot insert")
		}
		i := got
		if string(k) != string(tkey(i)) || string(v) != string(tval(i)) {
			t.Fatalf("snapshot entry %d: %q=%q, want %q=%q", i, k, v, tkey(i), tval(i))
		}
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("snapshot scan saw %d keys, want %d", got, n)
	}
	// Point reads through the snapshot agree.
	if v, err := snap.Get(tkey(0)); err != nil || string(v) != string(tval(0)) {
		t.Fatalf("snapshot Get: %q, %v", v, err)
	}
	// And the live view has moved on.
	if v, _ := db.Get(tkey(0)); string(v) != "AFTER" {
		t.Fatalf("live Get: %q, want AFTER", v)
	}
	if _, err := db.Get(tkey(1)); err != core.ErrNotFound {
		t.Fatalf("live deleted key: %v", err)
	}
}

// TestScannerCloseMidStream: closing the merged scanner halfway through
// releases all per-shard scanners; Next afterward returns false and a
// second Close is a no-op. DB.Close after that succeeds (nothing pinned).
func TestScannerCloseMidStream(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 4)
	for i := 0; i < 200; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	sc, err := db.newScanner(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !sc.Next() {
			t.Fatalf("stream ended early at %d", i)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if sc.Next() {
		t.Fatal("Next after Close returned true")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close after abandoned scan: %v", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
