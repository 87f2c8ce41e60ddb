package core

import (
	"fmt"
	"testing"
	"time"

	"lsmkv/internal/crashtest"
	"lsmkv/internal/vfs"
)

// TestCrashTTLNoResurrection: at every crash point — including inside
// the compaction that physically drops expired entries — a key whose
// expired overwrite was acknowledged never serves any version again.
// The dangerous window is mid-merge: the output table exists but the
// manifest still lists the inputs; a non-atomic install could drop the
// expired entry while reviving the base version under it.
//
// The workload writes a plain base version of every key, flushes, then
// overwrites each with a short-TTL version, advances the injected clock
// past the deadline, and flushes again, which triggers the merge that
// drops the expired entries. The image is read two hours on, so each TTL
// overwrite is in the history as the deletion it has become.
func TestCrashTTLNoResurrection(t *testing.T) {
	const keys = 24
	t0 := time.Now().UnixNano()
	opts := func(fs vfs.FS, clock *int64) Options {
		o := crashDBOpts(fs, true)
		o.Clock = func() int64 { return *clock }
		return o
	}
	crashtest.Check(t, crashtest.Case{Seed: 9000, Iters: 25, Tails: crashtest.Alternate,
		Reopen: reopenWith(func(img vfs.FS) Options {
			later := t0 + int64(2*time.Hour) // past every deadline
			return opts(img, &later)
		}),
		Run: func(e *crashtest.Env) {
			clock := t0
			db, err := Open(opts(e.FS, &clock))
			if err != nil {
				return
			}
			defer db.Close() // ignore errors: the FS may be frozen
			key := func(i int) string { return fmt.Sprintf("t%02d", i) }
			for i := range keys {
				op := e.Issue(crashtest.Put(key(i), "base"))
				if db.Put([]byte(key(i)), []byte("base")) != nil {
					return
				}
				e.Ack(op)
			}
			if db.Flush() != nil {
				return
			}
			for i := range keys {
				op := e.Issue(crashtest.Del(key(i)))
				if db.PutTTL([]byte(key(i)), []byte("doomed"), time.Second) != nil {
					return
				}
				e.Ack(op)
			}
			clock += int64(time.Hour)
			if db.Flush() != nil { // second L0 run: triggers the expiring merge
				return
			}
			db.WaitIdle()
		},
	})
}
