package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ttlDB opens a small DB whose clock is the returned atomic (unix
// nanos), so tests advance time explicitly instead of sleeping.
func ttlDB(t *testing.T) (*DB, *atomic.Int64) {
	t.Helper()
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	opts := smallOpts(t.TempDir())
	opts.Clock = func() int64 { return now.Load() }
	return openDB(t, opts), &now
}

// TestTTLLazyExpiry: a TTL'd key serves normally before its deadline and
// reads as absent the instant the clock passes it — no compaction needed.
func TestTTLLazyExpiry(t *testing.T) {
	db, now := ttlDB(t)
	defer db.Close()

	if err := db.PutTTL([]byte("session"), []byte("alive"), time.Minute); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("session"))
	if err != nil || string(got) != "alive" {
		t.Fatalf("pre-expiry Get = %q, %v", got, err)
	}

	// The longest TTL there is means "keep it": the expiry saturates
	// instead of wrapping into the past.
	if err := db.PutTTL([]byte("forever"), []byte("kept"), time.Duration(math.MaxInt64)); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("forever")); err != nil || string(got) != "kept" {
		t.Fatalf("Get after a maximal-TTL put = %q, %v", got, err)
	}

	now.Add(int64(time.Minute) + 1)
	if _, err := db.Get([]byte("session")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-expiry Get = %v, want ErrNotFound", err)
	}

	// The lazy filter must hold across a flush too (entry now in a table).
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("session")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-flush expired Get = %v, want ErrNotFound", err)
	}
}

// TestTTLShadowsOlderVersion: an expired TTL entry acts as a tombstone
// for the versions below it — the old plain value must not resurface.
func TestTTLShadowsOlderVersion(t *testing.T) {
	db, now := ttlDB(t)
	defer db.Close()

	if err := db.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutTTL([]byte("k"), []byte("new"), time.Second); err != nil {
		t.Fatal(err)
	}
	now.Add(int64(2 * time.Second))
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired TTL let the old version through: %v", err)
	}
	found := false
	db.Scan([]byte("k"), []byte("k"), func(_, _ []byte) bool { found = true; return true })
	if found {
		t.Fatal("scan surfaced a version shadowed by an expired TTL entry")
	}
}

// TestTTLScanStripsExpiry: scans skip expired entries and hand live ones
// to the callback with the expiry prefix already stripped.
func TestTTLScanStripsExpiry(t *testing.T) {
	db, now := ttlDB(t)
	defer db.Close()

	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("t%02d", i))
		ttl := time.Minute
		if i%2 == 1 {
			ttl = time.Second // will expire
		}
		if err := db.PutTTL(k, []byte(fmt.Sprintf("v%02d", i)), ttl); err != nil {
			t.Fatal(err)
		}
	}
	now.Add(int64(10 * time.Second))

	var keys []string
	err := db.Scan([]byte("t"), []byte("u"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		if want := "v" + string(k[1:]); string(v) != want {
			t.Fatalf("scan value for %s = %q, want %q (expiry prefix leaked?)", k, v, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 {
		t.Fatalf("scan returned %d keys (%v), want the 5 unexpired", len(keys), keys)
	}
	for _, k := range keys {
		if k[2]%2 == 1 {
			t.Fatalf("expired key %s surfaced in scan", k)
		}
	}
}

// TestTTLCompactionReclaims: a bottommost compaction drops expired
// entries (and the versions they shadow), counts them in expired_drops,
// and stamps the count on the compaction event.
func TestTTLCompactionReclaims(t *testing.T) {
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	opts := smallOpts(t.TempDir())
	opts.Clock = func() int64 { return now.Load() }
	opts.MemtableBytes = 4 << 10
	db := openDB(t, opts)
	defer db.Close()

	// Two generations of the same keys: a plain base, then TTL'd
	// overwrites destined to expire.
	const n = 60
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.PutTTL(key(i), val(i), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	now.Add(int64(time.Hour)) // everything TTL'd is now expired
	// This flush puts a second run in L0 and triggers the merge, which now
	// sees every TTL'd entry past its deadline.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if db.stats.ExpiredDrops.Load() == 0 {
		t.Fatal("no expired entries dropped by compaction")
	}

	// Every key must read absent — the expired newest version hides the
	// base version, dropped or not.
	for i := 0; i < n; i++ {
		if _, err := db.Get(key(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d visible after expiry: %v", i, err)
		}
	}

	// The compaction event trail records the reclamation.
	sawDetail := false
	for _, e := range db.Events() {
		if strings.Contains(e.Detail, "expired_drops=") {
			sawDetail = true
		}
	}
	if !sawDetail {
		t.Fatal("no compaction event carries expired_drops=")
	}
}

// TestTTLNotYetExpiredSurvivesCompaction: compaction must keep TTL
// entries whose deadline is still ahead.
func TestTTLNotYetExpiredSurvivesCompaction(t *testing.T) {
	db, _ := ttlDB(t)
	defer db.Close()

	if err := db.PutTTL([]byte("keep"), []byte("me"), time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	for i := 40; i < 80; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Flush()
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("keep"))
	if err != nil || string(got) != "me" {
		t.Fatalf("unexpired TTL key lost by compaction: %q, %v", got, err)
	}
}

// TestBatchRejectsBadTTLOp: a KindSetTTL batch op without room for the
// expiry prefix must be rejected before any of the batch applies.
func TestBatchRejectsBadTTLOp(t *testing.T) {
	db, _ := ttlDB(t)
	defer db.Close()
	err := db.ApplyBatch([]BatchOp{{Kind: 3, Key: []byte("k"), Value: []byte("short")}}, false)
	if err == nil {
		t.Fatal("batch accepted a TTL op with no expiry prefix")
	}
}

// TestIncr: absent keys start at zero, deltas accumulate, negative
// deltas subtract, and non-counter values are rejected.
func TestIncr(t *testing.T) {
	db, _ := ttlDB(t)
	defer db.Close()

	n, err := db.Incr([]byte("c"), 5)
	if err != nil || n != 5 {
		t.Fatalf("first incr = %d, %v; want 5", n, err)
	}
	n, err = db.Incr([]byte("c"), -2)
	if err != nil || n != 3 {
		t.Fatalf("second incr = %d, %v; want 3", n, err)
	}
	// The stored value is a plain 8-byte counter a Get can read.
	v, err := db.Get([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if dec, ok := DecodeCounter(v); !ok || dec != 3 {
		t.Fatalf("stored counter = %v (%d), want 3", v, dec)
	}

	db.Put([]byte("s"), []byte("not a counter"))
	if _, err := db.Incr([]byte("s"), 1); !errors.Is(err, ErrNotCounter) {
		t.Fatalf("incr of non-counter = %v, want ErrNotCounter", err)
	}
}

// TestCompareAndSwap covers the success, mismatch, and absence-assertion
// paths.
func TestCompareAndSwap(t *testing.T) {
	db, _ := ttlDB(t)
	defer db.Close()

	// nil expected asserts absence: first CAS creates.
	if err := db.CompareAndSwap([]byte("k"), nil, []byte("v1")); err != nil {
		t.Fatalf("create cas: %v", err)
	}
	// Same assertion now conflicts.
	if err := db.CompareAndSwap([]byte("k"), nil, []byte("v2")); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("absent-assert on present key = %v, want ErrCASMismatch", err)
	}
	// Matching expected swaps.
	if err := db.CompareAndSwap([]byte("k"), []byte("v1"), []byte("v2")); err != nil {
		t.Fatalf("swap: %v", err)
	}
	if v, _ := db.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("after swap: %q", v)
	}
	// Stale expected conflicts and changes nothing.
	if err := db.CompareAndSwap([]byte("k"), []byte("v1"), []byte("v3")); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("stale cas = %v, want ErrCASMismatch", err)
	}
	if v, _ := db.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("conflicted cas mutated the value: %q", v)
	}
}
