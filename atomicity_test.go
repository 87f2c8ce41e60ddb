package lsmkv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// The tests in this file race writes on one key, or scans against
// multi-key batches, through the public DB, and require every outcome to
// match some serial order of the operations. `make test` runs them under
// -race.

// forEachSeparation runs body against a fresh store with value separation
// off, and on with a threshold low enough that every value the tests write
// — 8-byte counters, CAS values — goes to the value log.
func forEachSeparation(t *testing.T, body func(t *testing.T, db *DB)) {
	for _, sep := range []bool{false, true} {
		t.Run(fmt.Sprintf("separation=%v", sep), func(t *testing.T) {
			db, err := Open(t.TempDir(), &Options{ValueSeparation: sep, ValueThreshold: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			body(t, db)
		})
	}
}

func counter(n int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(n)) }

// TestAtomicityIncrVsPut: an Incr loop races one Put(k, 2^40). In every
// serial order the Put is either the last write or is followed by an
// Incr that read at least 2^40, so once the Put has returned the counter
// never reads below 2^40.
func TestAtomicityIncrVsPut(t *testing.T) {
	const trials, big = 300, int64(1) << 40
	forEachSeparation(t, func(t *testing.T, db *DB) {
		lost := 0
		for trial := 0; trial < trials; trial++ {
			k := []byte(fmt.Sprintf("ctr%03d", trial))
			var putDone atomic.Bool
			started, done := make(chan struct{}), make(chan error, 1)
			go func() {
				var err error
				for i, after := 0, 0; after < 3 && err == nil; i++ {
					if i == 1 {
						close(started)
					}
					if putDone.Load() {
						after++
					}
					_, err = db.Incr(k, 1)
				}
				done <- err
			}()
			<-started
			if err := db.Put(k, counter(big)); err != nil {
				t.Fatal(err)
			}
			putDone.Store(true)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			v, err := db.Get(k)
			if err != nil || len(v) != 8 {
				t.Fatalf("trial %d: Get = %x, %v", trial, v, err)
			}
			if n := int64(binary.LittleEndian.Uint64(v)); n < big {
				lost++
			}
		}
		if lost > 0 {
			t.Errorf("in %d of %d trials an Incr erased a Put that had returned: the counter ended below 2^40", lost, trials)
		}
	})
}

// TestAtomicityCASVsWrite: a CAS loop — each CAS expects the value the
// loop last wrote or read, and writes a value never written before —
// races one Put(k, "put") or Delete(k). The racing write happens, so
// unless it is the last write in the serial order, some successful CAS
// must come after it and expect what it left: "put", or absence. A CAS
// chain that ends the history without one skipped over the write.
func TestAtomicityCASVsWrite(t *testing.T) {
	const trials = 300
	forEachSeparation(t, func(t *testing.T, db *DB) {
		contradictions := 0
		for trial := 0; trial < trials; trial++ {
			k := []byte(fmt.Sprintf("cas%03d", trial))
			isDelete := trial%2 == 1
			var left []byte // what the racing write leaves; nil for absence
			if !isDelete {
				left = []byte("put")
			}
			cur := []byte("v-0")
			if err := db.Put(k, cur); err != nil {
				t.Fatal(err)
			}
			var writeDone atomic.Bool
			var sawWrite bool // a successful CAS expected what the write left
			started, done := make(chan struct{}), make(chan error, 1)
			go func() {
				var err error
				for i, after := 1, 0; after < 3 && err == nil; i++ {
					if i == 2 {
						close(started)
					}
					if writeDone.Load() {
						after++
					}
					next := []byte(fmt.Sprintf("v-%d", i))
					switch err = db.CompareAndSwap(k, cur, next); {
					case err == nil:
						sawWrite = sawWrite || bytes.Equal(cur, left) && (cur == nil) == (left == nil)
						cur = next
					case errors.Is(err, ErrCASMismatch):
						if cur, err = db.Get(k); errors.Is(err, ErrNotFound) {
							cur, err = nil, nil
						}
					}
				}
				done <- err
			}()
			<-started
			var err error
			if isDelete {
				err = db.Delete(k)
			} else {
				err = db.Put(k, left)
			}
			if err != nil {
				t.Fatal(err)
			}
			writeDone.Store(true)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			final, err := db.Get(k)
			if errors.Is(err, ErrNotFound) {
				final, err = nil, nil
			}
			if err != nil {
				t.Fatal(err)
			}
			writeIsLast := bytes.Equal(final, left) && (final == nil) == (left == nil)
			if !writeIsLast && !sawWrite {
				contradictions++
			}
		}
		if contradictions > 0 {
			t.Errorf("in %d of %d trials a CAS chain skipped over a Put or Delete that had returned", contradictions, trials)
		}
	})
}

// TestAtomicityScanVsBatch: a writer applies batches that set all of 64
// keys to one new version; a scan sees every key at one version, never
// two versions of one batch.
func TestAtomicityScanVsBatch(t *testing.T) {
	const keys, scans = 64, 300
	// A small memtable keeps the versions a scan steps over few: flushes
	// and merges collapse them.
	db, err := Open(t.TempDir(), &Options{MemtableBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batch := func(version int) []BatchOp {
		ops := make([]BatchOp, keys)
		for i := range ops {
			ops[i] = PutOp([]byte(fmt.Sprintf("b%02d", i)), []byte(fmt.Sprintf("v%06d", version)))
		}
		return ops
	}
	if err := db.ApplyBatch(batch(0), false); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		var err error
		for v := 1; !stop.Load() && err == nil; v++ {
			err = db.ApplyBatch(batch(v), false)
		}
		done <- err
	}()
	torn := 0
	for s := 0; s < scans; s++ {
		versions := map[string]int{}
		if err := db.Scan(nil, nil, func(k, v []byte) bool {
			versions[string(v)]++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(versions) != 1 {
			torn++
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if torn > 0 {
		t.Errorf("%d of %d scans saw two versions of one batch", torn, scans)
	}
}
