package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"lsmkv/internal/crashtest"
	"lsmkv/internal/vfs"
)

// gcOpts is a value-separated store whose log rolls every few writes, so a
// short workload leaves many sealed segments for GC to work through.
func gcOpts(dir string) Options {
	opts := smallOpts(dir)
	opts.ValueSeparation = true
	opts.ValueThreshold = 100
	opts.VlogSegmentBytes = 8 << 10
	return opts
}

// gcValue is a separated value that names its key and version.
func gcValue(k, version int) []byte {
	return append([]byte(fmt.Sprintf("k%03d-v%06d-", k, version)), bytes.Repeat([]byte{'p'}, 400)...)
}

// gcUntilDone runs value-log GC until it reports nothing left to collect,
// and reports an error (after the caller's own checks, so they get to
// speak first) when that takes more calls than limit.
func gcUntilDone(t *testing.T, db *DB, limit int) (collected int, check func()) {
	t.Helper()
	for ; collected <= limit; collected++ {
		ok, err := db.RunValueLogGC()
		if err != nil {
			t.Fatalf("RunValueLogGC (call %d): %v", collected+1, err)
		}
		if !ok {
			return collected, func() {}
		}
	}
	return collected, func() { t.Helper(); t.Errorf("RunValueLogGC still collecting after %d calls", limit) }
}

// TestGCNeverOverwritesARacingWrite: writers keep overwriting their keys
// while GC runs flat out; every key must end at the last value its writer
// had acknowledged. The parent checked liveness, then relocated with a
// blind Put that could land after a newer write.
func TestGCNeverOverwritesARacingWrite(t *testing.T) {
	const writers, keysPerWriter, rounds = 4, 8, 80
	opts := gcOpts(t.TempDir())
	opts.SyncWAL = true // an fsync per commit: the parent's blind Put queued behind several
	db := openDB(t, opts)
	defer db.Close()

	final := make([]int, writers*keysPerWriter) // last acknowledged version per key
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for version := 1; version <= rounds; version++ {
				for k := w * keysPerWriter; k < (w+1)*keysPerWriter; k++ {
					if err := db.Put(key(k), gcValue(k, version)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					final[k] = version
				}
			}
		}(w)
	}
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.RunValueLogGC(); err != nil {
				t.Errorf("RunValueLogGC: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-gcDone

	for k, version := range final {
		got, err := db.Get(key(k))
		if err != nil || !bytes.Equal(got, gcValue(k, version)) {
			t.Errorf("key %d: got %.16q, %v; want version %d", k, got, err, version)
		}
	}
}

// TestGCKeepsWhatASnapshotReads: a snapshot's values live in segments GC
// empties after everything is overwritten; they stay readable until the
// snapshot is released, and go after. The parent unlinked them at once.
func TestGCKeepsWhatASnapshotReads(t *testing.T) {
	const keys = 64
	db := openDB(t, gcOpts(t.TempDir()))
	defer db.Close()
	for k := 0; k < keys; k++ {
		if err := db.Put(key(k), gcValue(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.NewSnapshot()
	for k := 0; k < keys; k++ {
		if err := db.Put(key(k), gcValue(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	n, terminated := gcUntilDone(t, db, 2*len(db.vlog.Segments()))
	if n == 0 {
		t.Fatal("GC collected nothing though every first version is dead")
	}
	held := db.vlog.SizeBytes()
	for k := 0; k < keys; k++ {
		got, err := snap.Get(key(k))
		if err != nil || !bytes.Equal(got, gcValue(k, 1)) {
			t.Fatalf("snapshot read of key %d after GC: %.16q, %v", k, got, err)
		}
		if got, err = db.Get(key(k)); err != nil || !bytes.Equal(got, gcValue(k, 2)) {
			t.Fatalf("read of key %d after GC: %.16q, %v", k, got, err)
		}
	}
	terminated()
	snap.Release()
	gcUntilDone(t, db, 2*len(db.vlog.Segments()))
	if after := db.vlog.SizeBytes(); after >= held {
		t.Errorf("segments held for the snapshot were not removed after Release: %d -> %d bytes", held, after)
	}
}

// TestGCKeepsWhatAScannerReads: a scanner opened before a collection still
// resolves the pointers its pinned view holds after it.
func TestGCKeepsWhatAScannerReads(t *testing.T) {
	const keys = 64
	db := openDB(t, gcOpts(t.TempDir()))
	defer db.Close()
	for version := 1; version <= 2; version++ {
		for k := 0; k < keys; k++ {
			if err := db.Put(key(k), gcValue(k, version)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	sc, err := db.NewScanner(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, terminated := gcUntilDone(t, db, 2*len(db.vlog.Segments()))
	n := 0
	for sc.Next() {
		if !bytes.Equal(sc.Value(), gcValue(n, 2)) {
			t.Fatalf("scanner at key %d after GC: %.16q", n, sc.Value())
		}
		n++
	}
	if err := sc.Close(); err != nil || n != keys {
		t.Fatalf("scanner saw %d of %d keys, err %v", n, keys, err)
	}
	terminated()
}

// TestGCTerminates: collecting until false takes a number of calls
// proportional to the segment count, shrinks the log, and leaves a log
// with nothing dead in it alone. The parent's "oldest segment" re-collected
// the segments its own relocations had just filled, for ever.
func TestGCTerminates(t *testing.T) {
	db := openDB(t, gcOpts(t.TempDir()))
	defer db.Close()
	for i := 0; i < 600; i++ {
		if err := db.Put(key(i%40), gcValue(i%40, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	segments, before := len(db.vlog.Segments()), db.vlog.SizeBytes()
	collected, terminated := gcUntilDone(t, db, 2*segments)
	terminated()
	if after := db.vlog.SizeBytes(); collected == 0 || after >= before/2 {
		t.Errorf("GC collected %d of %d segments, %d -> %d bytes; 14 of every 15 values were dead", collected, segments, before, after)
	}
	if ok, err := db.RunValueLogGC(); ok || err != nil {
		t.Errorf("a log with nothing dead was collected again: %v, %v", ok, err)
	}
	for k := 0; k < 40; k++ {
		if got, err := db.Get(key(k)); err != nil || !bytes.Equal(got, gcValue(k, 560+k)) {
			t.Fatalf("key %d after GC: %.16q, %v", k, got, err)
		}
	}
	// The events say what each collection cost.
	for _, e := range db.Events() {
		if e.Type == "vlog-gc" {
			var seg, relE, relB, deadE, deadB int
			if n, _ := fmt.Sscanf(e.Detail, "segment=%d relocated=%d/%d dead=%d/%d", &seg, &relE, &relB, &deadE, &deadB); n != 5 || deadE == 0 || e.InputBytes == 0 {
				t.Errorf("vlog-gc event %q (input %d bytes): want segment/relocated/dead with something dead", e.Detail, e.InputBytes)
			}
		}
	}
}

// TestGCResumesPastCleanSegments: a log whose oldest segments hold nothing
// dead is not read from the start by every call. Collecting it all costs a
// small number of passes over the log (each call resumes after the segment
// the last one emptied), not one pass per collected segment.
func TestGCResumesPastCleanSegments(t *testing.T) {
	fs := vfs.NewFaulty(vfs.NewMem())
	db, err := Open(gcCrashOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	put := func(k, version int) {
		t.Helper()
		if err := db.Put(key(k), gcValue(k, version)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 100; k < 300; k++ { // written once: some fifty clean segments
		put(k, 1)
	}
	for version := 1; version <= 4; version++ { // then a dozen with garbage
		for k := 0; k < 16; k++ {
			put(k, version)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	start := fs.OpCount()
	collected, terminated := gcUntilDone(t, db, 2*len(db.vlog.Segments()))
	terminated()
	db.WaitIdle()
	all := fs.OpCount() - start
	start = fs.OpCount()
	if ok, err := db.RunValueLogGC(); ok || err != nil {
		t.Fatalf("a log with nothing dead was collected again: %v, %v", ok, err)
	}
	pass := fs.OpCount() - start // what reading the whole log once costs
	if collected < 6 || all > 4*pass {
		t.Errorf("collecting %d segments took %d filesystem ops; one pass over the log takes %d", collected, all, pass)
	}
}

const gcCrashKeys = 24

// gcCrashOpts is crashDBOpts with SyncWAL off and a value log of 2 KiB
// segments.
func gcCrashOpts(fs vfs.FS) Options {
	opts := crashDBOpts(fs, false)
	opts.ValueSeparation = true
	opts.ValueThreshold = 100
	opts.VlogSegmentBytes = 2 << 10
	return opts
}

// TestCrashGCKeepsDurableValues: with SyncWAL off, a crash at any point of
// a collection — between relocating a value and logging its pointer,
// before the log is synced, after the segment is unlinked — leaves every
// value acknowledged as durable readable, which needs the records that
// re-point out of a segment synced before the segment is unlinked.
//
// The workload writes three synced generations of separated values —
// acknowledged as durable whatever SyncWAL (off) says — and a fourth, of
// the first keys only, that is not synced: the segments those keys' third
// versions fill are left dead by nothing but unsynced overwrites. Then it
// collects the log until nothing is left, power failing anywhere in the
// collection. Every key must read as its durable version or a later one
// (the oracle's window check): an unsynced write may survive or not, but
// never leave its key pointing into a removed segment.
func TestCrashGCKeepsDurableValues(t *testing.T) {
	crashtest.Check(t, crashtest.Case{Seed: 11000, Iters: 25, Tails: crashtest.Alternate,
		Check:  (*crashtest.History).Window,
		Reopen: reopenWith(gcCrashOpts),
		Run: func(e *crashtest.Env) {
			db, err := Open(gcCrashOpts(e.FS))
			if err != nil {
				return
			}
			defer db.Close() // ignore errors: the FS may be frozen
			for version := 1; version <= 4; version++ {
				for k := 0; k < gcCrashKeys; k++ {
					synced := version < 4
					if !synced && k >= gcCrashKeys*2/3 {
						break
					}
					if gcPut(e, db, k, version, synced) != nil {
						return
					}
				}
			}
			e.WindowStart()
			for calls := 0; calls < 100; calls++ { // it ends long before
				ok, err := db.RunValueLogGC()
				if calls == 0 && err == nil && !ok {
					e.Errorf("value-log GC collected nothing: no crash point lands in a collection")
				}
				if err != nil || !ok {
					break
				}
			}
		},
	})
}

// gcPut writes version of key k, acknowledged when synced.
func gcPut(e *crashtest.Env, db *DB, k, version int, synced bool) error {
	op := e.Issue(crashtest.Put(string(key(k)), string(gcValue(k, version))))
	if err := db.ApplyBatch([]BatchOp{PutOp(key(k), gcValue(k, version))}, synced); err != nil {
		return err
	}
	if synced {
		e.Ack(op)
	}
	return nil
}

// TestGCSyncsTheOverwritesItReliesOn: a segment whose every entry was
// overwritten without a sync holds nothing live, so collecting it relocates
// nothing and commits nothing — and must still make those overwrites durable
// before the segment goes, or a crash reverts the keys to pointers into it.
func TestGCSyncsTheOverwritesItReliesOn(t *testing.T) {
	err := crashtest.Run(crashtest.Case{
		Check:  (*crashtest.History).Window,
		Reopen: reopenWith(gcCrashOpts),
		Run: func(e *crashtest.Env) {
			db, err := Open(gcCrashOpts(e.FS))
			if err != nil {
				e.Errorf("open: %v", err)
				return
			}
			defer db.Close() // ignore errors: the FS is frozen
			for version := 1; version <= 2; version++ {
				for k := 0; k < 8; k++ {
					if err := gcPut(e, db, k, version, version == 1); err != nil {
						e.Errorf("put: %v", err)
						return
					}
				}
			}
			if n, _ := gcUntilDone(t, db, 2*len(db.vlog.Segments())); n == 0 {
				e.Errorf("GC collected nothing though every first version is dead")
			}
			e.CrashNow()
		},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
}
