package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"lsmkv/internal/vfs"
)

// countingFS counts the opens of table files, per path, and the closes of
// the files those opens returned.
type countingFS struct {
	vfs.FS
	mu     sync.Mutex
	opens  map[string]int
	closes int
}

func newCountingFS(inner vfs.FS) *countingFS {
	return &countingFS{FS: inner, opens: map[string]int{}}
}

func (c *countingFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	c.mu.Lock()
	c.opens[name]++
	c.mu.Unlock()
	return &countedFile{File: f, fs: c}, nil
}

// counts returns the total opens and closes so far.
func (c *countingFS) counts() (opens, closes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.opens {
		opens += n
	}
	return opens, c.closes
}

type countedFile struct {
	vfs.File
	fs *countingFS
}

func (f *countedFile) Close() error {
	f.fs.mu.Lock()
	f.fs.closes++
	f.fs.mu.Unlock()
	return f.File.Close()
}

// TestTablesOpenedOnce: the version is the only index of open tables, so
// across flushes, trivial moves and merges every table file is opened
// once — an install shares the handles of the version before it — and
// Close leaves no handle open.
func TestTablesOpenedOnce(t *testing.T) {
	fs := newCountingFS(vfs.NewMem())
	opts := smallOpts("db")
	opts.FS = fs
	db := openDB(t, opts)
	const n = 6000
	for i := 0; i < n; i++ { // sequential: pushes into a level they miss are moves
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 3 { // overwrites: pushes into a level they overlap are merges
		if err := db.Put(key(i), val(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Flushes == 0 || s.TrivialMoves == 0 || s.Compactions <= s.TrivialMoves {
		t.Fatalf("history has %d flushes, %d compactions, %d of them trivial moves: want all three kinds",
			s.Flushes, s.Compactions, s.TrivialMoves)
	}
	for i := 0; i < n; i += 97 {
		want := val(i)
		if i%3 == 0 {
			want = val(i + 1)
		}
		if got, err := db.Get(key(i)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %q, %v", i, got, err)
		}
	}
	fs.mu.Lock()
	for name, k := range fs.opens {
		if k != 1 {
			t.Errorf("%s opened %d times, want once", name, k)
		}
	}
	fs.mu.Unlock()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if opens, closes := fs.counts(); opens != closes {
		t.Errorf("after Close: %d table opens, %d closes", opens, closes)
	}
}

// TestFailedTableOpenLeaksNothing: a table open that fails while a merge
// installs its outputs surfaces as the background error; the install
// closes the outputs it had already opened, Close closes the rest, and a
// reopen serves every acknowledged key.
func TestFailedTableOpenLeaksNothing(t *testing.T) {
	mem := vfs.NewMem()
	faulty := vfs.NewFaulty(mem)
	fs := newCountingFS(faulty)
	db, err := Open(crashDBOpts(fs, true))
	if err != nil {
		t.Fatal(err)
	}
	// Three flushes open tables 1-3 and overflow L0 (trigger 2); the merge
	// splits about 6 KiB into outputs of 4 KiB, so its install opens the
	// first output and fails on the second.
	faulty.Inject(vfs.Rule{Op: vfs.OpOpen, Path: ".sst", N: 5})
	acked := map[string]string{}
	var surfaced error
	for round := 0; round < 3 && surfaced == nil; round++ {
		for i := 0; i < 20 && surfaced == nil; i++ {
			k, v := fmt.Sprintf("r%d-k%02d", round, i), fmt.Sprintf("%s-%s", strings.Repeat("v", 80), crashKey(i))
			if surfaced = db.Put([]byte(k), []byte(v)); surfaced == nil {
				acked[k] = v
			}
		}
		if surfaced == nil {
			surfaced = db.Flush()
		}
	}
	if surfaced == nil {
		surfaced = db.WaitIdle()
	}
	if !errors.Is(surfaced, vfs.ErrInjected) {
		t.Fatalf("failed table open surfaced as %v, want the injected fault", surfaced)
	}
	if s := db.Stats(); s.Flushes != 3 || s.Compactions != 0 {
		t.Errorf("%d flushes and %d compactions counted, want 3 and the failed merge uncounted", s.Flushes, s.Compactions)
	}
	db.Close()
	opens, closes := fs.counts()
	if opens != 4 {
		t.Errorf("%d table opens succeeded, want 3 flushes and the merge's first output", opens)
	}
	if opens != closes {
		t.Errorf("after Close: %d table opens, %d closes", opens, closes)
	}

	db, err = Open(crashDBOpts(mem, true))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k, v := range acked {
		if got, err := db.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("after reopen Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
}
