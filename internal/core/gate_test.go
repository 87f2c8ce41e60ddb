package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsmkv/internal/vfs"
)

// gateFS parks one filesystem operation — the first Sync, Create or
// Rename, per op, whose path contains match once the gate is armed — until
// the test releases it, so a test can hold the engine inside that I/O and
// look at what else still moves.
type gateFS struct {
	vfs.FS
	op      vfs.Op
	match   string
	armed   atomic.Bool
	parked  chan struct{} // closed when the operation has parked
	release chan struct{} // closed to let it go
}

func newGateFS(inner vfs.FS, op vfs.Op, match string) *gateFS {
	return &gateFS{FS: inner, op: op, match: match, parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) pass(op vfs.Op, path string) {
	if op == g.op && strings.Contains(path, g.match) && g.armed.CompareAndSwap(true, false) {
		close(g.parked)
		<-g.release
	}
}

func (g *gateFS) Create(name string) (vfs.File, error) {
	g.pass(vfs.OpCreate, name)
	f, err := g.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g, name: name}, nil
}

func (g *gateFS) Rename(oldname, newname string) error {
	g.pass(vfs.OpRename, newname)
	return g.FS.Rename(oldname, newname)
}

type gateFile struct {
	vfs.File
	g    *gateFS
	name string
}

func (f *gateFile) Sync() error {
	f.g.pass(vfs.OpSync, f.name)
	return f.File.Sync()
}

// TestReadsDoNotWaitForIO holds the engine inside each slow I/O of the
// write side and requires every read form to finish meanwhile, seeing
// every write acknowledged before: the commit's WAL fsync and a
// rotation's log create run under commitMu only, and a version install,
// which does save the manifest under db.mu, is invisible to reads because
// pin takes no mutex.
func TestReadsDoNotWaitForIO(t *testing.T) {
	const acked = 200 // keys written before the gate closes, half of them flushed
	rows := []struct {
		name  string
		op    vfs.Op
		match string
		// park starts the operation that runs into the gate and returns its
		// outcome.
		park func(db *DB) error
		// newSnapshot: NewSnapshot takes db.mu, which the parked operation
		// must not hold. A version install does hold it, by design.
		newSnapshot bool
		// unseen, when set, is a key the parked operation is writing: not
		// readable until its log record is synced.
		unseen []byte
	}{
		{name: "wal-sync", op: vfs.OpSync, match: ".wal", newSnapshot: true, unseen: key(acked),
			park: func(db *DB) error { return db.ApplyBatch([]BatchOp{PutOp(key(acked), val(acked))}, true) }},
		{name: "wal-create", op: vfs.OpCreate, match: ".wal", newSnapshot: true,
			park: func(db *DB) error { return db.Flush() }},
		{name: "manifest-rename", op: vfs.OpRename, match: "MANIFEST",
			park: func(db *DB) error { return db.Flush() }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			gate := newGateFS(vfs.NewMem(), row.op, row.match)
			opts := smallOpts("db")
			opts.FS = gate
			db := openDB(t, opts)
			defer db.Close()
			for i := 0; i < acked; i++ {
				if err := db.Put(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
				if i == acked/2 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := db.NewSnapshot()
			defer before.Release()
			want := db.LastSeq()

			gate.armed.Store(true)
			parkErr := make(chan error, 1)
			go func() { parkErr <- row.park(db) }()
			released := false
			letGo := func() {
				if !released {
					released = true
					close(gate.release)
				}
			}
			defer letGo()
			select {
			case <-gate.parked:
			case err := <-parkErr:
				t.Fatalf("the operation finished (%v) without reaching the gate", err)
			case <-time.After(10 * time.Second):
				t.Fatal("the operation never reached the gate")
			}

			reads := map[string]func() error{
				"Get": func() error { return readBack(db.Get, 7) },
				"32 Gets": func() error {
					for i := 0; i < 32; i++ {
						if err := readBack(db.Get, i*acked/32); err != nil {
							return err
						}
					}
					return nil
				},
				"Scan": func() error {
					n := 0
					err := db.Scan(key(0), key(acked-1), func(k, v []byte) bool { n++; return true })
					if err == nil && n != acked {
						err = fmt.Errorf("saw %d of %d acknowledged keys", n, acked)
					}
					return err
				},
				"Snapshot.Get": func() error { return readBack(before.Get, acked-1) },
				"LastSeq": func() error {
					if got := db.LastSeq(); got != want {
						return fmt.Errorf("LastSeq = %d, want %d", got, want)
					}
					return nil
				},
			}
			if row.newSnapshot {
				reads["NewSnapshot"] = func() error {
					s := db.NewSnapshot()
					defer s.Release()
					return readBack(s.Get, acked-1)
				}
			}
			if row.unseen != nil {
				reads["Get of the parked write"] = func() error {
					if v, err := db.Get(row.unseen); !errors.Is(err, ErrNotFound) {
						return fmt.Errorf("readable before its log record is synced: %q, %v", v, err)
					}
					return nil
				}
			}
			type outcome struct {
				name string
				err  error
			}
			done := make(chan outcome, len(reads))
			for name, read := range reads {
				go func() { done <- outcome{name, read()} }()
			}
			deadline := time.After(10 * time.Second)
			for pending := len(reads); pending > 0; pending-- {
				select {
				case o := <-done:
					if o.err != nil {
						t.Errorf("%s while %s is parked: %v", o.name, row.name, o.err)
					}
				case <-deadline:
					t.Errorf("%d of %d reads still waiting with %s parked", pending, len(reads), row.name)
					letGo()
					deadline = nil // the rest finish once the gate is open
					pending++      // nothing was received this round
				}
			}

			letGo()
			select {
			case err := <-parkErr:
				if err != nil {
					t.Errorf("the parked operation failed after release: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the parked operation did not complete after release")
			}
			if row.unseen != nil {
				if err := readBack(db.Get, acked); err != nil {
					t.Errorf("the parked write after release: %v", err)
				}
			}
		})
	}
}

// readBack checks that get returns val(i) for key(i).
func readBack(get func([]byte) ([]byte, error), i int) error {
	got, err := get(key(i))
	if err == nil && !bytes.Equal(got, val(i)) {
		err = fmt.Errorf("key %d reads %q, want %q", i, got, val(i))
	}
	return err
}
