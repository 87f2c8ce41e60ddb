package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/vfs"
)

// TestScanMatchesOracle is the read-path property test: one seeded
// history of puts, overwrites, TTL puts under an injected clock, deletes
// (tombstones landing on both sides of shard boundaries), long values
// (moved to the value log when separation is on) and flushes, applied
// both to a sharded database and to a flat map. Every read form — Get,
// GetTraced, MultiGet, MultiGetTraced, Snapshot.Get, and Scan and
// Snapshot.Scan over bounded, unbounded, empty, reversed and single-key
// ranges — must agree with the oracle byte for byte, at shard counts 1, 3
// and 8, with and without value separation, before and after a reopen.
// Run under -race by `make test`.
func TestScanMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		for _, separate := range []bool{false, true} {
			n, separate := n, separate
			t.Run(fmt.Sprintf("shards=%d/vlog=%v", n, separate), func(t *testing.T) {
				runReadOracle(t, n, separate)
			})
		}
	}
}

func runReadOracle(t *testing.T, n int, separate bool) {
	rng := rand.New(rand.NewSource(int64(0xc0ffee + n)))
	var now atomic.Int64 // the injected clock, unix nanos; compactions read it too
	now.Store(1_000_000)
	opts := testOpts(vfs.NewMem(), "db")
	opts.Clock = now.Load
	opts.ValueSeparation = separate
	opts.ValueThreshold = 48
	db, err := Open(opts, n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()

	type version struct {
		value  string
		expiry int64 // 0 = none
	}
	oracle := map[string]version{}
	const keyspace = 800
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }

	for op := 0; op < 4000; op++ {
		i := rng.Intn(keyspace)
		k := key(i)
		v := fmt.Sprintf("v%d-%d", i, op)
		if rng.Intn(3) == 0 {
			v += strings.Repeat("x", 64) // past ValueThreshold
		}
		switch rng.Intn(8) {
		case 0, 1: // delete — tombstones everywhere, including keys
			// never written (no-op tombstones).
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(oracle, k)
		case 2: // some expire before the history ends, some after
			ttl := time.Duration(1 + rng.Intn(3000))
			if err := db.PutTTL([]byte(k), []byte(v), ttl); err != nil {
				t.Fatal(err)
			}
			oracle[k] = version{v, now.Load() + int64(ttl)}
		default:
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			oracle[k] = version{v, 0}
		}
		now.Add(1)
		// Occasionally flush so reads go through memtables, L0, and
		// compacted levels, not just memory.
		if op%1500 == 1499 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func(k string) (string, bool) {
		ver, ok := oracle[k]
		return ver.value, ok && (ver.expiry == 0 || now.Load() < ver.expiry)
	}

	expect := func(lo, hi string, unboundedHi bool) [][2]string {
		var keys []string
		for k := range oracle {
			if _, ok := live(k); ok && k >= lo && (unboundedHi || k <= hi) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		out := make([][2]string, len(keys))
		for i, k := range keys {
			out[i] = [2]string{k, oracle[k].value}
		}
		return out
	}
	type scanFn func(lo, hi []byte, fn func(k, v []byte) bool) error
	collect := func(scan scanFn, lo, hi []byte) [][2]string {
		var got [][2]string
		if err := scan(lo, hi, func(k, v []byte) bool {
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
	// point checks one read form's answer for key k against the oracle.
	point := func(form, k string, v []byte, err error) {
		t.Helper()
		want, ok := live(k)
		switch {
		case !ok && err != core.ErrNotFound:
			t.Fatalf("%s(%s) = %q, %v; want ErrNotFound", form, k, v, err)
		case ok && (err != nil || string(v) != want):
			t.Fatalf("%s(%s) = %q, %v; want %q", form, k, v, err, want)
		}
	}
	// batched is point for the batched forms: nil means absent.
	batched := func(form, k string, v []byte) {
		t.Helper()
		if want, ok := live(k); ok != (v != nil) || string(v) != want && ok {
			t.Fatalf("%s[%s] = %q, want %q (live %v)", form, k, v, want, ok)
		}
	}

	verify := func(stage string) {
		snap := db.NewSnapshot()
		defer snap.Release()
		keys := make([][]byte, keyspace+1) // one key past the written range
		for i := range keys {
			keys[i] = []byte(key(i))
		}
		mvals, err := db.MultiGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		tvals, trs, err := db.MultiGetTraced(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, kb := range keys {
			k := string(kb)
			v, err := db.Get(kb)
			point(stage+" Get", k, v, err)
			v, tr, err := db.GetTraced(kb)
			point(stage+" GetTraced", k, v, err)
			if _, ok := live(k); tr == nil || tr.Found != ok || tr.Shard != db.ShardOf(kb) {
				t.Fatalf("%s GetTraced(%s) trace %+v, live %v", stage, k, tr, ok)
			}
			v, err = snap.Get(kb)
			point(stage+" Snapshot.Get", k, v, err)
			batched(stage+" MultiGet", k, mvals[i])
			batched(stage+" MultiGetTraced", k, tvals[i])
			if trs[i] == nil {
				t.Fatalf("%s MultiGetTraced(%s): no trace", stage, k)
			}
		}
		for form, scan := range map[string]scanFn{"Scan": db.Scan, "Snapshot.Scan": snap.Scan} {
			form = stage + " " + form
			compare(form+" full", collect(scan, []byte("k"), []byte("l")), expect("k", "l", false))
			compare(form+" unbounded", collect(scan, nil, nil), expect("", "", true))
			compare(form+" mid-range", collect(scan, []byte(key(200)), []byte(key(600))), expect(key(200), key(600), false))
			compare(form+" empty-range", collect(scan, []byte("zz"), []byte("zzz")), nil)
			compare(form+" reversed", collect(scan, []byte("k0500"), []byte("k0100")), nil)
			compare(form+" single-key", collect(scan, []byte(key(100)), []byte(key(100))), expect(key(100), key(100), false))
		}
	}
	verify("live")

	// Early termination stops the merge cleanly mid-stream.
	seen := 0
	if err := db.Scan(nil, nil, func(k, v []byte) bool {
		seen++
		return seen < 10
	}); err != nil {
		t.Fatal(err)
	}
	if want := min(10, len(expect("", "", true))); seen != want {
		t.Fatalf("early-stop scan visited %d, want %d", seen, want)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(opts, n); err != nil {
		t.Fatal(err)
	}
	verify("reopened")
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
