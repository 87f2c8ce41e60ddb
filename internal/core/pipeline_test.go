package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lsmkv/internal/vfs"
)

// TestCommitPipelineStress drives everything that shares the commit
// pipeline and the published read state at once — writers (Put, batches,
// INCR, CAS), readers (Get, Scan, snapshots), Flush, Checkpoint, Retune —
// and closes the engine in mid-traffic. Run it under -race. It asserts:
//
//   - per key, reads are monotone and bounded: a read never returns a
//     version older than one acknowledged before the read began (or than
//     one this reader saw before), nor one newer than the last issued;
//   - a snapshot reads the same version twice;
//   - the commit hook sees every batch once, in sequence order, gap-free;
//   - after reopen no acknowledged write is lost — including the ones
//     acknowledged while Close was already under way — and the shared
//     counter equals the number of acknowledged INCRs exactly.
func TestCommitPipelineStress(t *testing.T) {
	const (
		writers       = 4
		keysPerWriter = 24
		opsBeforeStop = 500 // per writer, before Close is called under them
	)
	fs := vfs.NewMem()
	opts := concurrentDBOpts(fs, false)
	db := openDB(t, opts)

	var hookMu sync.Mutex
	var hookNext, hookCalls uint64
	var hookErr error
	db.SetCommitHook(func(first uint64, count int, _ []byte) {
		hookMu.Lock()
		defer hookMu.Unlock()
		if hookNext != 0 && first != hookNext && hookErr == nil {
			hookErr = fmt.Errorf("hook call %d starts at seq %d, want %d", hookCalls, first, hookNext)
		}
		hookNext = first + uint64(count)
		hookCalls++
	})

	// Writer w owns keys w*keysPerWriter … and gives each a version that
	// only grows; issued is stored before the write, acked after it.
	nKeys := writers * keysPerWriter
	issued := make([]atomic.Int64, nKeys)
	acked := make([]atomic.Int64, nKeys)
	var ackedIncrs atomic.Int64
	name := func(k int) []byte { return []byte(fmt.Sprintf("k%03d", k)) }
	value := func(k int, version int64) []byte {
		return []byte(fmt.Sprintf("%d#%s", version, strings.Repeat("p", 20+k%40)))
	}
	versionOf := func(v []byte) int64 {
		n, err := strconv.ParseInt(string(v[:strings.IndexByte(string(v), '#')]), 10, 64)
		if err != nil {
			return -1
		}
		return n
	}
	// check judges one read of key k: lo is what was acknowledged before
	// the read began, seen (nil for a one-off) the reader's own history.
	check := func(form string, k int, lo int64, v []byte, err error, seen []int64) error {
		var got int64
		switch {
		case errors.Is(err, ErrNotFound):
		case err != nil:
			return err
		default:
			got = versionOf(v)
		}
		if hi := issued[k].Load(); got < lo || got > hi {
			return fmt.Errorf("%s k%03d: version %d outside [acked %d, issued %d]", form, k, got, lo, hi)
		}
		if seen != nil {
			if got < seen[k] {
				return fmt.Errorf("%s k%03d: version %d after this reader saw %d", form, k, got, seen[k])
			}
			seen[k] = got
		}
		return nil
	}

	var wg sync.WaitGroup
	var ready sync.WaitGroup // writers that reached opsBeforeStop
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	stopped := func(err error) bool { return errors.Is(err, ErrClosed) }

	ready.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := w * keysPerWriter
			casKey := []byte(fmt.Sprintf("cas%d", w))
			var casVersion int64
			for op := 0; ; op++ {
				if op == opsBeforeStop {
					ready.Done()
				}
				var err error
				switch r := rng.Intn(10); {
				case r < 5: // one Put
					k := base + rng.Intn(keysPerWriter)
					n := issued[k].Add(1)
					if err = db.Put(name(k), value(k, n)); err == nil {
						acked[k].Store(n)
					}
				case r < 8: // a batch over a few of this writer's keys
					ks := rng.Perm(keysPerWriter)[:2+rng.Intn(5)]
					ops := make([]BatchOp, len(ks))
					ns := make([]int64, len(ks))
					for i, j := range ks {
						ns[i] = issued[base+j].Add(1)
						ops[i] = PutOp(name(base+j), value(base+j, ns[i]))
					}
					if err = db.ApplyBatch(ops, rng.Intn(2) == 0); err == nil {
						for i, j := range ks {
							acked[base+j].Store(ns[i])
						}
					}
				case r < 9: // the counter every writer shares
					if _, err = db.Incr([]byte("ctr"), 1); err == nil {
						ackedIncrs.Add(1)
					}
				default: // CAS on a key only this writer writes: must succeed
					next := value(0, casVersion+1)
					var expected []byte
					if casVersion > 0 {
						expected = value(0, casVersion)
					}
					if err = db.CompareAndSwap(casKey, expected, next); err == nil {
						casVersion++
					} else if errors.Is(err, ErrCASMismatch) {
						report(fmt.Errorf("writer %d: CAS from version %d lost to nobody: %v", w, casVersion, err))
						return
					}
				}
				if err != nil {
					if !stopped(err) {
						report(fmt.Errorf("writer %d op %d: %v", w, op, err))
					}
					if op < opsBeforeStop {
						ready.Done()
					}
					return
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			seen := make([]int64, nKeys)
			for {
				var err error
				switch rng.Intn(4) {
				case 0, 1:
					k := rng.Intn(nKeys)
					lo := acked[k].Load()
					v, gerr := db.Get(name(k))
					if err = gerr; !stopped(err) {
						err = check("Get", k, lo, v, gerr, seen)
					}
				case 2:
					from := rng.Intn(nKeys - 8)
					lo := make([]int64, 8)
					for i := range lo {
						lo[i] = acked[from+i].Load()
					}
					got := map[int][]byte{}
					err = db.Scan(name(from), name(from+7), func(k, v []byte) bool {
						i, _ := strconv.Atoi(string(k[1:]))
						got[i] = v
						return true
					})
					for i := 0; err == nil && i < 8; i++ {
						v, ok := got[from+i]
						var gerr error
						if !ok {
							gerr = ErrNotFound
						}
						err = check("Scan", from+i, lo[i], v, gerr, seen)
					}
				case 3:
					k := rng.Intn(nKeys)
					lo := acked[k].Load()
					snap := db.NewSnapshot()
					v1, err1 := snap.Get(name(k))
					v2, err2 := snap.Get(name(k))
					snap.Release()
					if err = err1; stopped(err1) || stopped(err2) {
						err = ErrClosed
					} else if err = check("Snapshot.Get", k, lo, v1, err1, nil); err == nil && (string(v1) != string(v2) || !errors.Is(err2, err1)) {
						err = fmt.Errorf("snapshot read k%03d twice: %q (%v), then %q (%v)", k, v1, err1, v2, err2)
					}
				}
				if err != nil {
					if !stopped(err) {
						report(err)
					}
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // maintenance
		defer wg.Done()
		for round := 0; ; round++ {
			err := db.Flush()
			if err == nil {
				_, err = db.Checkpoint(fmt.Sprintf("ckpt-%d", round))
			}
			if err == nil {
				err = db.Retune(Tunables{SizeRatio: 3 + round%3, L0CompactionTrigger: 2 + round%2})
			}
			if err != nil {
				// A checkpoint that Close overtakes may find its files gone;
				// that is a failed checkpoint, not a fault.
				if !stopped(err) && db.checkOpen() == nil {
					report(fmt.Errorf("maintenance round %d: %v", round, err))
				}
				return
			}
		}
	}()

	ready.Wait()
	if err := db.Close(); err != nil {
		t.Errorf("Close under traffic: %v", err)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	// Half the batches asked for an fsync, so fsync time was measured; how
	// long commits queued for commitMu depends on the scheduler.
	if st := db.Stats(); st.WALSyncs == 0 || st.WALSyncNs <= 0 {
		t.Errorf("%d WAL syncs took %d ns", st.WALSyncs, st.WALSyncNs)
	} else {
		t.Logf("%d WAL syncs, mean %d ns; commits waited %d ns for commitMu", st.WALSyncs, st.WALSyncNs/st.WALSyncs, st.CommitWaitNs)
	}
	hookMu.Lock()
	if hookErr != nil || hookCalls == 0 {
		t.Errorf("commit hook stream: %d calls, %v", hookCalls, hookErr)
	}
	hookMu.Unlock()

	db = openDB(t, opts)
	defer db.Close()
	if got, want := db.LastSeq(), hookNext-1; got < want {
		t.Errorf("reopened at seq %d, the hook saw commits up to %d", got, want)
	}
	for k := 0; k < nKeys; k++ {
		v, err := db.Get(name(k))
		if err := check("Get after reopen", k, acked[k].Load(), v, err, nil); err != nil {
			t.Error(err)
		}
	}
	v, err := db.Get([]byte("ctr"))
	if n, ok := DecodeCounter(v); err != nil || !ok || n != ackedIncrs.Load() {
		t.Errorf("shared counter after reopen: %d (%v), want the %d acknowledged INCRs", n, err, ackedIncrs.Load())
	}
}
