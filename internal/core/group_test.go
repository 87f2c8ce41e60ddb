package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/vfs"
)

// slowSyncFS charges every file Sync a fixed delay, so writers that
// arrive during an fsync queue behind it and group commit has something
// to group.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (s slowSyncFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	return slowSyncFile{f, s.delay}, err
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestConcurrentSyncedPutsShareFsyncs: 64 goroutines each Put with
// SyncWAL on a disk whose fsync takes a millisecond. The writers that
// arrive during one fsync commit as the next group, so the engine pays
// far fewer fsyncs than it takes Puts — where every Put paying its own
// fsync would make the two equal.
func TestConcurrentSyncedPutsShareFsyncs(t *testing.T) {
	opts := smallOpts("db")
	opts.FS = slowSyncFS{FS: vfs.NewMem(), delay: time.Millisecond}
	opts.MemtableBytes = 4 << 20
	opts.SyncWAL = true
	db := openDB(t, opts)
	defer db.Close()

	const writers, each = 64, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := db.Put(key(w*each+i), val(i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := db.Stats()
	ops := int64(writers * each)
	if st.WALSyncs > ops/3 {
		t.Errorf("%d synced Puts from %d goroutines paid %d WAL fsyncs, want at most %d", ops, writers, st.WALSyncs, ops/3)
	}
	if st.BatchedOps != ops || st.BatchCommits != st.WALSyncs {
		t.Errorf("groups: %d ops in %d groups, want %d ops in one group per fsync (%d)", st.BatchedOps, st.BatchCommits, ops, st.WALSyncs)
	}
	t.Logf("%d Puts, %d fsyncs, mean group %.1f", ops, st.WALSyncs, float64(st.BatchedOps)/float64(st.BatchCommits))
}

// TestGroupMembersKeepTheirOwnOutcome: a mismatching CAS, an INCR of a
// non-counter, a plain Put and an op with an empty key are submitted
// together. The empty key is refused at Submit; the other three commit
// as one group, one WAL record, and each writer learns only its own
// failure.
func TestGroupMembersKeepTheirOwnOutcome(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	if err := db.Put([]byte("text"), []byte("not a counter")); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()

	cas := []BatchOp{CASOp([]byte("cas"), []byte("expected"), []byte("new"))}
	incr := []BatchOp{IncrOp([]byte("text"), 1)}
	put := []BatchOp{PutOp([]byte("put"), []byte("v"))}
	empty := []BatchOp{PutOp(nil, []byte("v"))}
	ws := []*Write{db.Submit(cas, false), db.Submit(incr, false), db.Submit(put, false), db.Submit(empty, false)}
	var errs [4]error
	for i, w := range ws {
		_, errs[i] = w.Wait()
	}

	if errs[3] == nil {
		t.Error("an empty key was accepted")
	}
	for i, err := range errs[:3] {
		if err != nil {
			t.Errorf("writer %d: the group failed: %v", i, err)
		}
	}
	if !errors.Is(cas[0].RMW.Err, ErrCASMismatch) {
		t.Errorf("CAS: %v, want ErrCASMismatch", cas[0].RMW.Err)
	}
	if !errors.Is(incr[0].RMW.Err, ErrNotCounter) {
		t.Errorf("INCR: %v, want ErrNotCounter", incr[0].RMW.Err)
	}
	if v, err := db.Get([]byte("put")); err != nil || string(v) != "v" {
		t.Errorf("Put: %q, %v", v, err)
	}
	if _, err := db.Get([]byte("cas")); !errors.Is(err, ErrNotFound) {
		t.Errorf("the failed CAS wrote: %v", err)
	}
	d := db.Stats().Sub(before)
	if d.WALRecords != 1 || d.BatchCommits != 1 || d.BatchedOps != 1 {
		t.Errorf("%d WAL records, %d groups of %d ops; want the one surviving op in one record", d.WALRecords, d.BatchCommits, d.BatchedOps)
	}
}

// TestSubmitOrderIsCommitOrder: one goroutine submits two writes of one
// key and waits for neither in between; the second one wins.
func TestSubmitOrderIsCommitOrder(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	k := []byte("k")
	w1 := db.Submit([]BatchOp{PutOp(k, []byte("1"))}, false)
	w2 := db.Submit([]BatchOp{PutOp(k, []byte("2"))}, false)
	seq2, err2 := w2.Wait()
	seq1, err1 := w1.Wait()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v, err := db.Get(k); err != nil || string(v) != "2" {
		t.Fatalf("Get after Submit(1), Submit(2) = %q, %v; want 2", v, err)
	}
	if seq1 < 1 || seq2 < 2 || seq2 > db.LastSeq() {
		t.Errorf("seqs %d, %d: want each at least its own write's, watermark %d", seq1, seq2, db.LastSeq())
	}
}

// TestSubmitLeadsWhenTheQueueIsFull: a goroutine that submits more writes
// than the queue holds, waiting for none, is not left blocked forever:
// the Submit that finds the queue full commits a group to make room.
func TestSubmitLeadsWhenTheQueueIsFull(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	done := make(chan error, 1)
	go func() {
		ws := make([]*Write, maxQueued+10)
		for i := range ws {
			ws[i] = db.Submit([]BatchOp{PutOp(key(i), val(i))}, false)
		}
		for _, w := range ws {
			if _, err := w.Wait(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Submit blocked on a full queue that no one leads")
	}
	for _, i := range []int{0, maxQueued, maxQueued + 9} {
		if v, err := db.Get(key(i)); err != nil || string(v) != string(val(i)) {
			t.Fatalf("write %d: %q, %v", i, v, err)
		}
	}
}
