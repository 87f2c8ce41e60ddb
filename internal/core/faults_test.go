package core

import (
	"errors"
	"fmt"
	"testing"

	"lsmkv/internal/iostat"
	"lsmkv/internal/vfs"
)

// Error-injection tests: a single injected filesystem failure must
// surface as an error (not silent data loss), and the DB must either
// stay usable or shut down cleanly — never hang, never panic.

func faultyDB(t *testing.T, walSync bool) (*DB, *vfs.Faulty) {
	t.Helper()
	fs := vfs.NewFaulty(vfs.NewMem())
	db, err := Open(crashDBOpts(fs, walSync))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db, fs
}

// TestFaultWALSyncSurfacesFromPut: with SyncWAL on, a failed WAL fsync
// must fail the Put that required it, and the DB must remain usable for
// later writes once the fault clears.
func TestFaultWALSyncSurfacesFromPut(t *testing.T) {
	db, fs := faultyDB(t, true)
	defer db.Close()

	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatalf("pre-fault Put: %v", err)
	}
	fs.Inject(vfs.Rule{Op: vfs.OpSync, Path: ".wal", N: 1})
	err := db.Put([]byte("b"), []byte("2"))
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Put with failing WAL sync: err=%v, want ErrInjected", err)
	}
	// One-shot fault: the engine must still accept writes afterwards.
	if err := db.Put([]byte("c"), []byte("3")); err != nil {
		t.Fatalf("post-fault Put: %v", err)
	}
	if v, err := db.Get([]byte("c")); err != nil || string(v) != "3" {
		t.Fatalf("post-fault Get: %q, %v", v, err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFaultWALAppendSurfacesFromPut: a failed WAL write (not sync) must
// surface from the write path. The log is poisoned afterwards — a record
// may have been half-written, and appending past it would corrupt the
// tail — so later Puts keep failing rather than silently losing
// durability. Close must still terminate, and a reopen on the same store
// must recover everything acknowledged before the fault.
func TestFaultWALAppendSurfacesFromPut(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewFaulty(mem)
	db, err := Open(crashDBOpts(fs, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatalf("pre-fault Put: %v", err)
	}
	fs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".wal", N: 1})
	if err := db.Put([]byte("b"), []byte("2")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Put with failing WAL write: err=%v, want ErrInjected", err)
	}
	// The log is poisoned: further appends must error, not succeed with
	// questionable durability.
	if err := db.Put([]byte("c"), []byte("3")); err == nil {
		t.Fatal("Put after failed WAL append succeeded on a poisoned log")
	}
	db.Close()

	// Reopen: the acknowledged write survives; the failed ones are gone.
	db, err = Open(crashDBOpts(mem, true))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	if v, err := db.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get a after reopen: %q, %v", v, err)
	}
	if _, err := db.Get([]byte("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get b after reopen: err=%v, want ErrNotFound", err)
	}
}

// TestFaultManifestRenameFailsFlush: a failed manifest rename must fail
// the flush that tried to install the new version — which then was not a
// flush: no event, no count (the parent recorded the event before the
// install) — and Close must still terminate.
func TestFaultManifestRenameFailsFlush(t *testing.T) {
	db, fs := faultyDB(t, false)

	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(vfs.Rule{Op: vfs.OpRename, Path: "MANIFEST", Repeat: true})
	if err := db.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Flush with failing manifest rename: err=%v, want ErrInjected", err)
	}
	if n := db.Stats().Flushes; n != 0 {
		t.Errorf("Flushes = %d after the only flush failed to install", n)
	}
	for _, e := range db.Events() {
		if e.Type == iostat.EventFlush {
			t.Errorf("flush event recorded for a flush that failed to install: %v", e)
		}
	}
	// The background error is sticky: later maintenance waits surface it.
	if err := db.WaitIdle(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("WaitIdle after failed flush: err=%v, want ErrInjected", err)
	}
	db.Close() // must terminate despite the persistent fault
}

// TestFaultManifestSyncFailsFlush: the manifest temp-file fsync is on the
// flush path too (it is what makes the rename crash-safe).
func TestFaultManifestSyncFailsFlush(t *testing.T) {
	db, fs := faultyDB(t, false)

	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(vfs.Rule{Op: vfs.OpSync, Path: "MANIFEST", Repeat: true})
	if err := db.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Flush with failing manifest sync: err=%v, want ErrInjected", err)
	}
	db.Close()
}

// TestFaultCompactionSSTSyncSurfaces: an fsync failure on a compaction
// output file must abort the compaction and surface via the background
// error, leaving reads of already-durable data working.
func TestFaultCompactionSSTSyncSurfaces(t *testing.T) {
	db, fs := faultyDB(t, false)

	// Three put+flush rounds create three L0 runs (sst syncs 1-3),
	// overflowing L0Trigger=2; the fourth .sst sync is the compaction
	// output file. The background error may surface from the Flush that
	// overlaps the compaction or from WaitIdle — either way it must
	// surface, not vanish.
	fs.Inject(vfs.Rule{Op: vfs.OpSync, Path: ".sst", N: 4, Repeat: true})
	var surfaced error
	for round := 0; round < 3 && surfaced == nil; round++ {
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("k%02d", i)
			if err := db.Put([]byte(k), []byte(fmt.Sprintf("r%d-%s", round, k))); err != nil {
				t.Fatalf("Put round %d: %v", round, err)
			}
		}
		surfaced = db.Flush()
	}
	if surfaced == nil {
		surfaced = db.WaitIdle()
	}
	if !errors.Is(surfaced, vfs.ErrInjected) {
		t.Fatalf("failing compaction sync never surfaced: %v", surfaced)
	}
	// Data from completed flushes is still readable after the failed
	// compaction.
	if v, err := db.Get([]byte("k05")); err != nil || string(v) != "r1-k05" && string(v) != "r2-k05" {
		t.Fatalf("Get after failed compaction: %q, %v", v, err)
	}
	db.Close()
}

// TestFaultOpenSurvivesListError: an injected error during Open's WAL
// scan must fail Open cleanly, not panic or leak.
func TestFaultOpenSurvivesListError(t *testing.T) {
	mem := vfs.NewMem()
	// Seed a valid database.
	db, err := Open(crashDBOpts(mem, false))
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("a"), []byte("1"))
	db.Close()

	fs := vfs.NewFaulty(mem)
	fs.Inject(vfs.Rule{Op: vfs.OpList, Repeat: true})
	if _, err := Open(crashDBOpts(fs, false)); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Open with failing List: err=%v, want ErrInjected", err)
	}
	// With the fault cleared the same image opens fine.
	db, err = Open(crashDBOpts(mem, false))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if v, err := db.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get after reopen: %q, %v", v, err)
	}
	db.Close()
}

// TestFaultWALRotationFailsNoCommittedWrite: the write that fills the
// memtable is logged, synced, inserted and visible before the log is
// rotated, so a failed rotation (here: the successor's Create) must not
// be reported as that write's failure — a caller told "error" retries,
// and an INCR then counts twice. The failure becomes the sticky
// background error instead: the next write is refused before it touches
// anything. Every acknowledged write, and no refused one, is in the store
// before and after reopen.
func TestFaultWALRotationFailsNoCommittedWrite(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewFaulty(mem)
	db, err := Open(crashDBOpts(fs, true))
	if err != nil {
		t.Fatal(err)
	}
	// Open created the first log; the next .wal Create is the first rotation.
	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: ".wal", N: 1})
	refused := -1
	for i := 0; i < 1000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			if !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Put %d: err=%v, want the injected rotation failure", i, err)
			}
			refused = i
			break
		}
	}
	if refused < 1 {
		t.Fatalf("the 4 KiB memtable never filled and rotated (refused=%d)", refused)
	}
	if err := db.Put(key(refused), val(refused)); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Put after the failed rotation: err=%v, want it sticky", err)
	}
	check := func(when string, db *DB) {
		t.Helper()
		for i := 0; i < refused; i++ {
			if err := readBack(db.Get, i); err != nil {
				t.Fatalf("%s: acknowledged write %d of %d: %v", when, i, refused, err)
			}
		}
		if v, err := db.Get(key(refused)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: the refused write is in the store: %q, %v", when, v, err)
		}
	}
	check("after the failed rotation", db)
	db.Close()

	db, err = Open(crashDBOpts(mem, true))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	check("after reopen", db)
}

// TestCloseReportsAFailedFlush: Close flushes what the memtables hold, and
// a flush that fails in the background is Close's error. Without a WAL
// nothing else keeps those writes, so a nil Close would call them durable.
func TestCloseReportsAFailedFlush(t *testing.T) {
	fs := vfs.NewFaulty(vfs.NewMem())
	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: ".sst", Repeat: true})
	opts := crashDBOpts(fs, false)
	opts.DisableWAL = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Close after a failed flush: %v, want ErrInjected", err)
	}
}
