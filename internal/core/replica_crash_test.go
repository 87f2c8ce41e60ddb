package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lsmkv/internal/checkpoint"
	"lsmkv/internal/crashtest"
	"lsmkv/internal/vfs"
)

// TestCrashMidCheckpoint simulates power loss at a random point during an
// online CHECKPOINT and checks both halves of the safety contract:
//
//   - the source database is untouched — it reopens and serves every
//     acknowledged write (checkpointing is strictly read-only on source
//     files; hard links / copies cannot corrupt what they read);
//   - the half-written checkpoint directory is detectable (no CHECKPOINT
//     marker) and Sweep removes it, so a markerless directory can never
//     be mistaken for a backup.
//
// It keeps its own crash loop because the crashtest oracle cannot state
// the second half: what matters is the checkpoint's marker and what
// Sweep leaves, a property of a second directory, not of the history.
func TestCrashMidCheckpoint(t *testing.T) {
	for iter := 0; iter < crashtest.Iters(25); iter++ {
		iter := iter
		t.Run(fmt.Sprintf("seed=%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(iter)))
			mem := vfs.NewMem()
			faulty := vfs.NewFaulty(mem)
			db, err := Open(crashDBOpts(faulty, true))
			if err != nil {
				t.Fatal(err)
			}
			const nKeys = 200
			for i := 0; i < nKeys; i++ {
				if err := db.Put([]byte(crashKey(i%32)), []byte(fmt.Sprintf("v%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if iter%3 == 0 {
				db.Flush() // some iterations checkpoint sstables, not just WAL
			}

			// Crash a random number of filesystem ops into the checkpoint.
			faulty.CrashAfter(int64(1 + rng.Intn(40)))
			_, ckErr := db.Checkpoint("ckpts/ckpt")
			db.Close() // frozen fs: errors expected and ignored

			img := mem.CrashImage(rng)

			// Source safety: reopens and holds the last write of every key.
			src, err := Open(crashDBOpts(img, true))
			if err != nil {
				t.Fatalf("source reopen after crash mid-checkpoint: %v", err)
			}
			want := map[string]string{}
			for i := 0; i < nKeys; i++ {
				want[crashKey(i%32)] = fmt.Sprintf("v%04d", i)
			}
			for k, v := range want {
				got, err := src.Get([]byte(k))
				if err != nil {
					t.Fatalf("source lost %q after crash mid-checkpoint: %v", k, err)
				}
				if string(got) != v {
					t.Fatalf("source %q = %q, want %q", k, got, v)
				}
			}
			src.Close()

			// Checkpoint atomicity: with the commit marker present the copy
			// must open as a full database; without it the directory is
			// partial, detectable, and sweepable.
			if checkpoint.IsComplete(img, "ckpts/ckpt") {
				if ckErr != nil {
					// The marker renamed durably before a later op (e.g.
					// directory sync) crashed; completeness is what counts.
					t.Logf("marker durable despite error: %v", ckErr)
				}
				ck, err := Open(crashDBOpts(img, true))
				_ = ck
				if err != nil {
					t.Fatalf("reopen source alongside complete checkpoint: %v", err)
				}
				ck.Close()
				ck2, err := func() (*DB, error) {
					o := crashDBOpts(img, true)
					o.Dir = "ckpts/ckpt"
					return Open(o)
				}()
				if err != nil {
					t.Fatalf("marked-complete checkpoint failed to open: %v", err)
				}
				ck2.Close()
			} else {
				swept, err := checkpoint.Sweep(img, "ckpts")
				if err != nil {
					t.Fatalf("sweep: %v", err)
				}
				for _, s := range swept {
					if s == "db" {
						t.Fatal("sweep removed the live database directory")
					}
				}
				if checkpoint.IsComplete(img, "ckpts/ckpt") {
					t.Fatal("partial checkpoint still present after sweep")
				}
				// The swept image still opens.
				src2, err := Open(crashDBOpts(img, true))
				if err != nil {
					t.Fatalf("source reopen after sweep: %v", err)
				}
				src2.Close()
			}
		})
	}
}

// TestFollowerCrashMidApply crashes a follower at a random point while it
// applies a replicated commit stream, then checks recovery lands on a
// consistent sequence prefix and that redelivering the full stream from
// the start reconverges to the primary's exact content — the at-least-
// once delivery contract ApplyReplicated's idempotence provides.
//
// It keeps its own crash loop because the crashtest oracle cannot state
// that contract: it is about the watermark landing on a commit boundary
// and about redelivering the stream after the crash, not about the
// recovered state alone.
func TestFollowerCrashMidApply(t *testing.T) {
	// Capture a primary's commit stream once.
	src := openDB(t, crashDBOpts(vfs.NewMem(), true))
	defer src.Close()
	rec := &hookRecorder{}
	src.SetCommitHook(rec.hook)
	for i := 0; i < 300; i++ {
		k := []byte(crashKey(i % 32))
		if i%7 == 3 {
			if err := src.Delete(k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := src.Put(k, []byte(fmt.Sprintf("v%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	firsts, counts, payloads := rec.snapshot()

	for iter := 0; iter < crashtest.Iters(25); iter++ {
		iter := iter
		t.Run(fmt.Sprintf("seed=%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + iter)))
			mem := vfs.NewMem()
			faulty := vfs.NewFaulty(mem)
			fol, err := Open(crashDBOpts(faulty, true))
			if err != nil {
				t.Fatal(err)
			}
			faulty.CrashAfter(int64(5 + rng.Intn(400)))
			applied := 0
			for _, p := range payloads {
				if _, err := fol.ApplyReplicated(p); err != nil {
					break
				}
				applied++
			}
			fol.Close()

			img := mem.CrashImage(rng)
			fol2, err := Open(crashDBOpts(img, true))
			if err != nil {
				t.Fatalf("follower reopen after crash mid-apply: %v", err)
			}
			defer fol2.Close()

			// Consistent prefix: the recovered watermark must be the end of
			// some commit (never inside one — batches are atomic), and at
			// least everything acknowledged (WAL sync on).
			w := fol2.LastSeq()
			ok := w == 0
			for i := range firsts {
				if w == firsts[i]+uint64(counts[i])-1 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("recovered watermark %d is inside a commit batch", w)
			}
			if applied > 0 {
				minWant := firsts[applied-1] + uint64(counts[applied-1]) - 1
				if w < minWant {
					t.Fatalf("recovered watermark %d below acknowledged %d", w, minWant)
				}
			}

			// Reconverge: redeliver the whole stream; duplicates no-op.
			for i, p := range payloads {
				if _, err := fol2.ApplyReplicated(p); err != nil {
					t.Fatalf("redelivery of commit %d: %v", i, err)
				}
			}
			assertSameContent(t, src, fol2)
		})
	}
}
