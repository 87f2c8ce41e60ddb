package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/kv"
	"lsmkv/internal/vfs"
)

// hookRecorder captures the commit stream: copies of every payload with
// its sequence framing, in delivery order.
type hookRecorder struct {
	mu       sync.Mutex
	firsts   []uint64
	counts   []int
	payloads [][]byte
}

func (h *hookRecorder) hook(firstSeq uint64, count int, payload []byte) {
	h.mu.Lock()
	h.firsts = append(h.firsts, firstSeq)
	h.counts = append(h.counts, count)
	h.payloads = append(h.payloads, append([]byte(nil), payload...))
	h.mu.Unlock()
}

func (h *hookRecorder) snapshot() (firsts []uint64, counts []int, payloads [][]byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.firsts...), append([]int(nil), h.counts...),
		append([][]byte(nil), h.payloads...)
}

// TestCommitHookStream checks that the hook sees every write in sequence
// order with contiguous framing, and that the engine's write surfaces are
// one path: a seeded history of put / put-ttl / delete / incr / cas
// (conflicts and non-counters included) is applied (a) op by op through
// the single-write API, (b) as one ApplyBatch, and (c) as ApplyReplicated
// of the hook payloads (a) and (b) produced. The per-op RMW outcomes, the
// hook payloads (a's, concatenated, against b's one record), the
// watermark and the full scan must all agree, with a flat-map oracle and
// with each other, before and after reopen, with and without value
// separation.
func TestCommitHookStream(t *testing.T) {
	for _, separate := range []bool{false, true} {
		t.Run(fmt.Sprintf("separation=%v", separate), func(t *testing.T) {
			const now = int64(1_000_000)
			optsFor := func() Options {
				opts := smallOpts(t.TempDir())
				opts.Clock = func() int64 { return now }
				opts.ValueSeparation = separate
				opts.ValueThreshold = 64
				return opts
			}

			// The history, with the outcome a serial map oracle gives each op.
			rng := rand.New(rand.NewSource(14))
			oracle := map[string][]byte{}
			var history []BatchOp
			var wantResult []int64
			var wantErr []error
			for i := 0; i < 600; i++ {
				k := key(rng.Intn(40))
				var op BatchOp
				var result int64
				var opErr error
				switch r := rng.Intn(100); {
				case r < 35:
					v := val(i)
					if rng.Intn(2) == 0 {
						v = bytes.Repeat([]byte{byte('a' + i%26)}, 64+rng.Intn(200)) // separated when on
					}
					op = PutOp(k, v)
					oracle[string(k)] = v
				case r < 45:
					expiry := now + int64(rng.Intn(3)-1)*1000 // a third expired already, a third expiring now
					op = PutTTLOp(k, val(i), expiry)
					if delete(oracle, string(k)); expiry > now {
						oracle[string(k)] = val(i)
					}
				case r < 60:
					op = DeleteOp(k)
					delete(oracle, string(k))
				case r < 80:
					if rng.Intn(4) > 0 {
						k = []byte(fmt.Sprintf("ctr%d", rng.Intn(4)))
					}
					op = IncrOp(k, int64(rng.Intn(9)-4))
					cur, ok := oracle[string(k)]
					if n, isCounter := DecodeCounter(cur); ok && !isCounter {
						opErr = ErrNotCounter
					} else {
						result = n + op.RMW.Delta
						oracle[string(k)] = AppendCounter(nil, result)
					}
				default:
					cur, ok := oracle[string(k)]
					expected := cur
					if !ok {
						expected = nil
					}
					if rng.Intn(3) == 0 {
						expected = []byte("stale")
					}
					op = CASOp(k, expected, val(i))
					if ok != (expected != nil) || !bytes.Equal(cur, expected) {
						opErr = ErrCASMismatch
					} else {
						oracle[string(k)] = val(i)
					}
				}
				history = append(history, op)
				wantResult = append(wantResult, result)
				wantErr = append(wantErr, opErr)
			}
			checkOutcome := func(path string, i int, result int64, err error) {
				t.Helper()
				if !errors.Is(err, wantErr[i]) || result != wantResult[i] {
					t.Fatalf("%s: op %d gave (%d, %v), oracle (%d, %v)", path, i, result, err, wantResult[i], wantErr[i])
				}
			}

			// (a) op by op.
			aOpts, aRec := optsFor(), &hookRecorder{}
			a := openDB(t, aOpts)
			a.SetCommitHook(aRec.hook)
			for i, op := range history {
				var result int64
				var err error
				switch {
				case op.RMW != nil && op.RMW.Incr:
					result, err = a.Incr(op.Key, op.RMW.Delta)
				case op.RMW != nil:
					err = a.CompareAndSwap(op.Key, op.RMW.Expected, op.Value)
				case op.Kind == kv.KindDelete:
					err = a.Delete(op.Key)
				case op.Kind == kv.KindSetTTL:
					expiry, payload, _ := kv.SplitExpiryValue(op.Value)
					err = a.PutAtExpiry(op.Key, payload, expiry)
				default:
					err = a.Put(op.Key, op.Value)
				}
				checkOutcome("single", i, result, err)
			}

			// (b) the same history as one batch.
			bOpts, bRec := optsFor(), &hookRecorder{}
			b := openDB(t, bOpts)
			b.SetCommitHook(bRec.hook)
			if err := b.ApplyBatch(history, false); err != nil {
				t.Fatal(err)
			}
			for i, op := range history {
				if op.RMW != nil {
					checkOutcome("batch", i, op.RMW.Result, op.RMW.Err)
				}
			}

			// The hook stream is contiguous, and a's records concatenated are
			// b's one record byte for byte.
			aFirsts, aCounts, aPayloads := aRec.snapshot()
			next := uint64(1)
			var committed []BatchOp
			for i := range aFirsts {
				if aFirsts[i] != next {
					t.Fatalf("commit %d starts at seq %d, want %d (stream must be contiguous)", i, aFirsts[i], next)
				}
				next += uint64(aCounts[i])
				_, ops, err := decodeBatch(aPayloads[i])
				if err != nil || len(ops) != aCounts[i] {
					t.Fatalf("commit %d: %d ops, err %v, hook said %d", i, len(ops), err, aCounts[i])
				}
				committed = append(committed, ops...)
			}
			if got := a.LastSeq(); got != next-1 {
				t.Fatalf("engine watermark %d, want %d", got, next-1)
			}
			bFirsts, bCounts, bPayloads := bRec.snapshot()
			if len(bPayloads) != 1 || bFirsts[0] != 1 || bCounts[0] != len(committed) {
				t.Fatalf("batch hook: %d records, first %v, counts %v; want one record of %d ops at seq 1",
					len(bPayloads), bFirsts, bCounts, len(committed))
			}
			if !bytes.Equal(bPayloads[0], encodeBatch(1, committed)) {
				t.Fatal("the batch's hook payload is not the single writes' payloads concatenated")
			}

			// (c) both streams replayed on followers.
			replay := func(firsts []uint64, counts []int, payloads [][]byte) (*DB, Options) {
				opts := optsFor()
				dst := openDB(t, opts)
				for i, p := range payloads {
					w, err := dst.ApplyReplicated(p)
					if err != nil {
						t.Fatalf("apply commit %d: %v", i, err)
					}
					if want := firsts[i] + uint64(counts[i]) - 1; w != want {
						t.Fatalf("apply commit %d returned watermark %d, want %d", i, w, want)
					}
				}
				return dst, opts
			}
			ca, caOpts := replay(aFirsts, aCounts, aPayloads)
			cb, cbOpts := replay(bFirsts, bCounts, bPayloads)

			dbs := []*DB{a, b, ca, cb}
			opts := []Options{aOpts, bOpts, caOpts, cbOpts}
			check := func(when string) {
				t.Helper()
				n := 0
				if err := a.Scan(nil, nil, func(k, v []byte) bool {
					if want, ok := oracle[string(k)]; !ok || !bytes.Equal(v, want) {
						t.Fatalf("%s: scan has %q=%q, oracle %q (present %v)", when, k, v, want, ok)
					}
					n++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if n != len(oracle) {
					t.Fatalf("%s: scan has %d keys, oracle %d", when, n, len(oracle))
				}
				for _, db := range dbs[1:] {
					if got, want := db.LastSeq(), a.LastSeq(); got != want {
						t.Fatalf("%s: watermark %d, single-write path has %d", when, got, want)
					}
					assertSameContent(t, a, db)
				}
			}
			check("live")
			for i := range dbs {
				if err := dbs[i].Close(); err != nil {
					t.Fatal(err)
				}
				dbs[i] = openDB(t, opts[i])
				defer dbs[i].Close()
			}
			a = dbs[0]
			check("reopened")
		})
	}
}

// TestCommitHookValueSeparation checks the hook payload carries logical
// values, not vlog pointers: a follower without the primary's value log
// must still resolve everything.
func TestCommitHookValueSeparation(t *testing.T) {
	opts := smallOpts(t.TempDir())
	opts.ValueSeparation = true
	opts.ValueThreshold = 64
	src := openDB(t, opts)
	defer src.Close()
	rec := &hookRecorder{}
	src.SetCommitHook(rec.hook)

	big := make([]byte, 512)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	for i := 0; i < 50; i++ {
		if err := src.Put(key(i), big); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.ApplyBatch([]BatchOp{PutOp(key(100), big), PutOp(key(101), val(101))}, false); err != nil {
		t.Fatal(err)
	}

	// The follower has no value separation at all.
	dst := openDB(t, smallOpts(t.TempDir()))
	defer dst.Close()
	_, _, payloads := rec.snapshot()
	for i, p := range payloads {
		if _, err := dst.ApplyReplicated(p); err != nil {
			t.Fatalf("apply commit %d: %v", i, err)
		}
	}
	got, err := dst.Get(key(10))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(big) {
		t.Fatalf("follower resolved %d bytes, want the logical %d-byte value", len(got), len(big))
	}
	assertSameContent(t, src, dst)
}

// TestApplyReplicatedDupAndGap checks idempotence below the watermark and
// gap rejection above it.
func TestApplyReplicatedDupAndGap(t *testing.T) {
	src := openDB(t, smallOpts(t.TempDir()))
	defer src.Close()
	rec := &hookRecorder{}
	src.SetCommitHook(rec.hook)
	for i := 0; i < 10; i++ {
		if err := src.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, payloads := rec.snapshot()

	dst := openDB(t, smallOpts(t.TempDir()))
	defer dst.Close()

	// A record beyond watermark+1 is a gap.
	if _, err := dst.ApplyReplicated(payloads[5]); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap apply: got %v, want ErrReplicaGap", err)
	}
	for _, p := range payloads[:5] {
		if _, err := dst.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate delivery is a no-op that reports the current watermark.
	w, err := dst.ApplyReplicated(payloads[2])
	if err != nil {
		t.Fatalf("duplicate apply: %v", err)
	}
	if w != 5 {
		t.Fatalf("duplicate apply watermark %d, want 5", w)
	}
	for _, p := range payloads[5:] {
		if _, err := dst.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
	}
	assertSameContent(t, src, dst)
}

// TestReplicatedWatermarkDurable checks the follower recovers its applied
// watermark across a restart: replicated records live in its WAL.
func TestReplicatedWatermarkDurable(t *testing.T) {
	src := openDB(t, smallOpts(t.TempDir()))
	defer src.Close()
	rec := &hookRecorder{}
	src.SetCommitHook(rec.hook)
	for i := 0; i < 64; i++ {
		if err := src.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, payloads := rec.snapshot()

	dstOpts := smallOpts(t.TempDir())
	dst := openDB(t, dstOpts)
	for _, p := range payloads {
		if _, err := dst.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
	}
	want := dst.LastSeq()
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	dst = openDB(t, dstOpts)
	defer dst.Close()
	if got := dst.LastSeq(); got != want {
		t.Fatalf("recovered watermark %d, want %d", got, want)
	}
	assertSameContent(t, src, dst)
	// Duplicate redelivery after restart is still a no-op.
	if _, err := dst.ApplyReplicated(payloads[len(payloads)-1]); err != nil {
		t.Fatalf("redelivery after restart: %v", err)
	}
}

func TestWaitForSeq(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	if err := db.Put(key(1), val(1)); err != nil {
		t.Fatal(err)
	}

	// Already reached: immediate.
	if err := db.WaitForSeq(1, time.Second); err != nil {
		t.Fatal(err)
	}
	// Not reached within the deadline: timeout.
	if err := db.WaitForSeq(100, 20*time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("got %v, want ErrWaitTimeout", err)
	}
	// Reached by a concurrent write: wakes.
	done := make(chan error, 1)
	go func() { done <- db.WaitForSeq(2, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if err := db.Put(key(2), val(2)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("wait woken by write: %v", err)
	}
}

func TestWaitForSeqClose(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	done := make(chan error, 1)
	go func() { done <- db.WaitForSeq(1000, 10*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("wait across close: got %v, want ErrClosed", err)
	}
}

func TestNewSnapshotAt(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	for i := 0; i < 10; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Pin at seq 5: later writes invisible.
	snap, err := db.NewSnapshotAt(5)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if _, err := snap.Get(key(4)); err != nil {
		t.Fatalf("key 4 at seq 5: %v", err)
	}
	if _, err := snap.Get(key(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("key 9 at seq 5: got %v, want ErrNotFound", err)
	}
	// Beyond the watermark: error.
	if _, err := db.NewSnapshotAt(10_000); err == nil {
		t.Fatal("snapshot ahead of watermark must fail")
	}
}

// assertSameContent scans both databases and requires identical logical
// content.
func assertSameContent(t *testing.T, a, b *DB) {
	t.Helper()
	type pair struct{ k, v string }
	collect := func(db *DB) []pair {
		var out []pair
		if err := db.Scan(nil, nil, func(k, v []byte) bool {
			out = append(out, pair{string(k), string(v)})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	pa, pb := collect(a), collect(b)
	if len(pa) != len(pb) {
		t.Fatalf("content differs: %d vs %d entries", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("entry %d differs: %q=%q vs %q=%q", i, pa[i].k, pa[i].v, pb[i].k, pb[i].v)
		}
	}
}

// TestCommitHookConcurrent hammers the hook from many writers and checks
// the stream replays to identical content — the ordering contract under
// contention.
func TestCommitHookConcurrent(t *testing.T) {
	src := openDB(t, smallOpts(t.TempDir()))
	defer src.Close()
	rec := &hookRecorder{}
	src.SetCommitHook(rec.hook)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("w%d-k%04d", w, i))
				if i%10 == 9 {
					if err := src.Delete(k); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := src.Put(k, val(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	firsts, counts, payloads := rec.snapshot()
	next := uint64(1)
	for i := range firsts {
		if firsts[i] != next {
			t.Fatalf("commit %d starts at %d, want %d", i, firsts[i], next)
		}
		next += uint64(counts[i])
	}
	dst := openDB(t, smallOpts(t.TempDir()))
	defer dst.Close()
	for _, p := range payloads {
		if _, err := dst.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
	}
	assertSameContent(t, src, dst)
}

// TestCheckpointBasic takes a checkpoint and opens it as a database.
func TestCheckpointBasic(t *testing.T) {
	fs := vfs.NewMem()
	opts := crashDBOpts(fs, true)
	db := openDB(t, opts)
	defer db.Close()
	for i := 0; i < 500; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := db.Checkpoint("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Files == 0 || info.Bytes == 0 {
		t.Fatalf("empty checkpoint info: %+v", info)
	}
	if info.LastSeq != db.LastSeq() {
		t.Fatalf("checkpoint LastSeq %d, engine %d", info.LastSeq, db.LastSeq())
	}

	copts := opts
	copts.Dir = "ckpt"
	ck := openDB(t, copts)
	defer ck.Close()
	if got := ck.LastSeq(); got != info.LastSeq {
		t.Fatalf("checkpoint recovered watermark %d, want %d", got, info.LastSeq)
	}
	assertSameContent(t, db, ck)
}

// TestCheckpointUnderWrites checkpoints while writers run, then verifies
// the copy opens cleanly and holds a consistent prefix: every key present
// has its correct value, and the watermark bounds what must be present.
func TestCheckpointUnderWrites(t *testing.T) {
	fs := vfs.NewMem()
	opts := crashDBOpts(fs, true)
	db := openDB(t, opts)
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Put(key(i%1000), val(i)); err != nil {
				return
			}
		}
	}()

	time.Sleep(5 * time.Millisecond)
	info, err := db.Checkpoint("ckpt")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	copts := opts
	copts.Dir = "ckpt"
	ck := openDB(t, copts)
	defer ck.Close()
	if got := ck.LastSeq(); got < info.LastSeq {
		t.Fatalf("checkpoint watermark %d below marker %d", got, info.LastSeq)
	}
	// The first 100 keys were all written before the checkpoint started;
	// each must be present with a valid value for its key.
	for i := 0; i < 100; i++ {
		if _, err := ck.Get(key(i)); err != nil {
			t.Fatalf("key %d missing from checkpoint: %v", i, err)
		}
	}
	// Source keeps working and retains everything.
	if _, err := db.Get(key(50)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointLinkFallback checks checkpoints work on filesystems
// without hard links (vfs.Mem does not implement Linker): sstables are
// copied instead.
func TestCheckpointLinkFallback(t *testing.T) {
	fs := vfs.NewMem()
	if _, ok := vfs.FS(fs).(vfs.Linker); ok {
		t.Fatal("test premise broken: Mem now implements Linker")
	}
	opts := crashDBOpts(fs, true)
	db := openDB(t, opts)
	defer db.Close()
	for i := 0; i < 400; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	info, err := db.Checkpoint("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Linked != 0 {
		t.Fatalf("Mem cannot hard-link, yet %d files were linked", info.Linked)
	}
	copts := opts
	copts.Dir = "ckpt"
	ck := openDB(t, copts)
	defer ck.Close()
	assertSameContent(t, db, ck)
}

// TestCheckpointHardLinks checks sstables are hard-linked on a real
// filesystem.
func TestCheckpointHardLinks(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(dir)
	db := openDB(t, opts)
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	info, err := db.Checkpoint(dir + "-ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if info.Linked == 0 {
		t.Fatal("no files hard-linked on a real filesystem")
	}
	copts := smallOpts(dir + "-ckpt")
	ck := openDB(t, copts)
	defer ck.Close()
	assertSameContent(t, db, ck)
}
