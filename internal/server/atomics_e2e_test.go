package server_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/vfs"
)

// TestIncrConcurrent: 8 writers hammer one counter, half of them through
// independent connections and half through the embedded API of the very
// engine being served. Both surfaces end in the engine's one commit
// function, which serializes the read-modify-write, so the returned
// values are exactly a permutation of 1..N — the same set a serial oracle
// would hand out, in some order.
func TestIncrConcurrent(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, db := startServer(t, vfs.NewMem(), shards, nil)

			// Enough increments that losing one to a surface that skipped
			// the lock is near certain (the embedded Incr and the wire INCR
			// did not exclude each other once: 20 of 20 runs lost updates).
			const writers = 16
			const perWriter = 250
			results := make([][]int64, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					incr := db.Incr
					if w%2 == 0 {
						cl, err := client.Dial(srv.Addr(), nil)
						if err != nil {
							t.Error(err)
							return
						}
						defer cl.Close()
						incr = cl.Incr
					}
					for i := 0; i < perWriter; i++ {
						n, err := incr([]byte("hits"), 1)
						if err != nil {
							t.Errorf("writer %d incr: %v", w, err)
							return
						}
						results[w] = append(results[w], n)
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			var all []int64
			for _, rs := range results {
				// Within one writer the counter must be monotone: it never
				// sees its own increment go backwards.
				for i := 1; i < len(rs); i++ {
					if rs[i] <= rs[i-1] {
						t.Fatalf("per-writer regression: %d then %d", rs[i-1], rs[i])
					}
				}
				all = append(all, rs...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			for i, v := range all {
				if v != int64(i+1) {
					t.Fatalf("returned values are not a permutation of 1..%d: position %d holds %d", writers*perWriter, i, v)
				}
			}

			cl := dialTest(t, srv, nil)
			v, err := cl.Get([]byte("hits"))
			if err != nil || len(v) != 8 {
				t.Fatalf("final read: %q, %v", v, err)
			}
			if got := int64(binary.LittleEndian.Uint64(v)); got != writers*perWriter {
				t.Fatalf("final counter = %d, want %d", got, writers*perWriter)
			}
		})
	}
}

// TestCasConcurrent: 8 writers, half over the wire and half on the served
// engine's embedded API, each push through a fixed number of successful
// CAS increments on a shared decimal cell, retrying on conflict. Lost
// updates would leave the final value short.
func TestCasConcurrent(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, db := startServer(t, vfs.NewMem(), shards, nil)

			const writers = 8
			const perWriter = 20
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					get, cas := db.Get, db.CompareAndSwap
					if w%2 == 0 {
						cl, err := client.Dial(srv.Addr(), nil)
						if err != nil {
							t.Error(err)
							return
						}
						defer cl.Close()
						get, cas = cl.Get, cl.CompareAndSwap
					}
					for done := 0; done < perWriter; {
						cur, err := get([]byte("cell"))
						var expected []byte
						n := 0
						switch {
						case err == nil:
							if n, err = atoiBytes(cur); err != nil {
								t.Errorf("writer %d: bad cell %q", w, cur)
								return
							}
							expected = cur
						case errors.Is(err, core.ErrNotFound):
							expected = nil // assert absence
						default:
							t.Errorf("writer %d get: %v", w, err)
							return
						}
						err = cas([]byte("cell"), expected, []byte(fmt.Sprint(n+1)))
						switch {
						case err == nil:
							done++
						case errors.Is(err, core.ErrCASMismatch):
							// lost the race; re-read and retry
						default:
							t.Errorf("writer %d cas: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			cl := dialTest(t, srv, nil)
			v, err := cl.Get([]byte("cell"))
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := atoiBytes(v); n != writers*perWriter {
				t.Fatalf("final cell = %q, want %d successful CAS increments", v, writers*perWriter)
			}
		})
	}
}

func atoiBytes(b []byte) (int, error) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("not a number: %q", b)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// TestCasErrors: conflict paths map to the non-transient ErrCASMismatch
// and a failed CAS never mutates the cell.
func TestCasErrors(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 1, nil)
	cl := dialTest(t, srv, nil)

	// Absence assertion on an absent key creates.
	if err := cl.CompareAndSwap([]byte("k"), nil, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Absence assertion on a present key conflicts.
	if err := cl.CompareAndSwap([]byte("k"), nil, []byte("v2")); !errors.Is(err, client.ErrCASMismatch) {
		t.Fatalf("want ErrCASMismatch, got %v", err)
	}
	// Stale expected conflicts.
	if err := cl.CompareAndSwap([]byte("k"), []byte("stale"), []byte("v2")); !errors.Is(err, client.ErrCASMismatch) {
		t.Fatalf("want ErrCASMismatch, got %v", err)
	}
	if v, err := cl.Get([]byte("k")); err != nil || string(v) != "v1" {
		t.Fatalf("failed CAS mutated the cell: %q, %v", v, err)
	}
	// Matching expected swaps.
	if err := cl.CompareAndSwap([]byte("k"), []byte("v1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// INCR of a non-counter value is rejected without committing.
	if _, err := cl.Incr([]byte("k"), 1); err == nil {
		t.Fatal("incr accepted a non-counter value")
	}
	if v, _ := cl.Get([]byte("k")); string(v) != "v2" {
		t.Fatalf("failed INCR mutated the cell: %q", v)
	}
}

// TestPutTTLOverWire: a TTL'd key is served until its deadline and then
// reads as absent; the server stamps the absolute expiry from the
// client-supplied duration.
func TestPutTTLOverWire(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 1, nil)
	cl := dialTest(t, srv, nil)

	if err := cl.PutTTL([]byte("lease"), []byte("held"), 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Get([]byte("lease")); err != nil || string(v) != "held" {
		t.Fatalf("pre-expiry get = %q, %v", v, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cl.Get([]byte("lease"))
		if errors.Is(err, client.ErrNotFound) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("key still served long past its TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The longest TTL a duration can hold means "keep it": the expiry
	// saturates instead of wrapping into the past, where the write would
	// be acknowledged and then read as not found.
	if err := cl.PutTTL([]byte("forever"), []byte("kept"), time.Duration(math.MaxInt64)); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Get([]byte("forever")); err != nil || string(v) != "kept" {
		t.Fatalf("get after a maximal-TTL put = %q, %v", v, err)
	}
}

// TestSketchOverWire: the per-shard write sketches answer frequency and
// cardinality queries over the wire and surface in STATS.
func TestSketchOverWire(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 2, nil)
	cl := dialTest(t, srv, nil)

	const distinct = 200
	for i := 0; i < distinct; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := cl.Put([]byte("hot"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	freq, err := cl.SketchFreq([]byte("hot"))
	if err != nil {
		t.Fatal(err)
	}
	// Count-min overestimates but never undercounts.
	if freq < 50 {
		t.Fatalf("hot-key frequency estimate %d, want >= 50", freq)
	}
	cold, err := cl.SketchFreq([]byte("k000"))
	if err != nil {
		t.Fatal(err)
	}
	if cold > 10 {
		t.Fatalf("cold-key frequency estimate %d, want ~1", cold)
	}

	card, err := cl.SketchCard()
	if err != nil {
		t.Fatal(err)
	}
	if card < distinct*9/10 || card > distinct*12/10 {
		t.Fatalf("cardinality estimate %d, want ~%d", card, distinct+1)
	}

	body, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Sketches []struct {
			DistinctKeys uint64 `json:"distinct_keys"`
		} `json:"sketches"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Sketches) != 2 {
		t.Fatalf("STATS carries %d sketch entries, want one per shard", len(payload.Sketches))
	}
	var sum uint64
	for _, s := range payload.Sketches {
		sum += s.DistinctKeys
	}
	if sum != card {
		t.Fatalf("STATS sketch sum %d != SKETCH card %d", sum, card)
	}
}
