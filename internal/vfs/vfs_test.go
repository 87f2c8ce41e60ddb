package vfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func writeAll(t *testing.T, fs FS, name string, data []byte) File {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("Create(%s): %v", name, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("Write(%s): %v", name, err)
	}
	return f
}

func TestMemRoundTrip(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	f := writeAll(t, m, "db/a", []byte("hello"))
	if _, err := f.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := ReadFile(m, "db/a")
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadFile: %q, %v", got, err)
	}
	fi, err := m.Stat("db/a")
	if err != nil || fi.Size() != 11 {
		t.Fatalf("Stat: %v, %v", fi, err)
	}
	var at [5]byte
	rf, _ := m.Open("db/a")
	if _, err := rf.ReadAt(at[:], 6); err != nil || string(at[:]) != "world" {
		t.Fatalf("ReadAt: %q, %v", at, err)
	}
	if _, err := rf.Write([]byte("x")); err == nil {
		t.Fatal("write to read-only handle must fail")
	}
}

func TestMemParentDirRequired(t *testing.T) {
	m := NewMem()
	if _, err := m.Create("missing/f"); !os.IsNotExist(err) {
		t.Fatalf("create without parent dir: %v", err)
	}
	if _, err := m.Open("absent"); !os.IsNotExist(err) {
		t.Fatalf("open missing: %v", err)
	}
	if err := m.Remove("absent"); !os.IsNotExist(err) {
		t.Fatalf("remove missing: %v", err)
	}
}

func TestMemListRenameRemove(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db/vlog")
	writeAll(t, m, "db/000001.sst", []byte("x")).Close()
	writeAll(t, m, "db/000002.wal", []byte("y")).Close()
	names, err := m.List("db")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"000001.sst", "000002.wal", "vlog"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("List: %v want %v", names, want)
	}
	if err := m.Rename("db/000002.wal", "db/000003.wal"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("db/000002.wal"); !os.IsNotExist(err) {
		t.Fatal("old name survived rename")
	}
	if got, _ := ReadFile(m, "db/000003.wal"); string(got) != "y" {
		t.Fatalf("renamed content: %q", got)
	}
	if err := m.Remove("db/000001.sst"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("db/000001.sst"); !os.IsNotExist(err) {
		t.Fatal("removed file still stats")
	}
}

func TestMemCrashDropsUnsynced(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db")
	f := writeAll(t, m, "db/wal", bytes.Repeat([]byte("d"), 100))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write(bytes.Repeat([]byte("u"), 50)) // never synced
	m.Crash()

	if _, err := m.Open("db/wal"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op after crash: %v", err)
	}
	img := m.CrashImage(nil)
	got, err := ReadFile(img, "db/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || bytes.ContainsRune(got, 'u') {
		t.Fatalf("crash image kept unsynced data: %d bytes", len(got))
	}
}

func TestMemCrashImageTornTail(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db")
	f := writeAll(t, m, "db/wal", bytes.Repeat([]byte("d"), 100))
	f.Sync()
	f.Write(bytes.Repeat([]byte("u"), 50))
	rng := rand.New(rand.NewSource(7))
	sawPartial := false
	for i := 0; i < 50; i++ {
		got, err := ReadFile(m.CrashImage(rng), "db/wal")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 100 || len(got) > 150 {
			t.Fatalf("torn image size %d outside [100,150]", len(got))
		}
		if !bytes.Equal(got[:100], bytes.Repeat([]byte("d"), 100)) {
			t.Fatal("torn image corrupted the durable prefix")
		}
		if len(got) > 100 && len(got) < 150 {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("50 torn images never produced a partial tail")
	}
}

func TestMemWriteAtOverSyncedSnapshot(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db")
	f := writeAll(t, m, "db/seg", []byte("durable-content"))
	f.Sync()
	// Overwrite the synced region without syncing: the crash image must
	// show the pre-overwrite durable bytes.
	if _, err := f.WriteAt([]byte("DESTROYS"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := ReadFile(m.CrashImage(nil), "db/seg")
	if string(got) != "durable-content" {
		t.Fatalf("overwrite leaked into crash image: %q", got)
	}
	// After a sync the overwrite is durable.
	f.Sync()
	got, _ = ReadFile(m.CrashImage(nil), "db/seg")
	if string(got) != "DESTROYScontent" {
		t.Fatalf("post-sync image: %q", got)
	}
}

func TestMemRenameAtomicDurable(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db")
	f := writeAll(t, m, "db/MANIFEST.tmp", []byte(`{"state":1}`))
	f.Sync()
	f.Close()
	m.Rename("db/MANIFEST.tmp", "db/MANIFEST")
	got, err := ReadFile(m.CrashImage(nil), "db/MANIFEST")
	if err != nil || string(got) != `{"state":1}` {
		t.Fatalf("renamed synced file lost: %q, %v", got, err)
	}
	// Without the pre-rename sync the content is gone after a crash —
	// the failure mode the manifest's sync-before-rename prevents.
	f2 := writeAll(t, m, "db/MANIFEST.tmp", []byte(`{"state":2}`))
	f2.Close()
	m.Rename("db/MANIFEST.tmp", "db/MANIFEST")
	got, _ = ReadFile(m.CrashImage(nil), "db/MANIFEST")
	if len(got) != 0 {
		t.Fatalf("unsynced renamed content survived: %q", got)
	}
}

// TestWriteFileAtomicAndRemoveTree: the durable write survives a crash
// with no temp file left beside it, and RemoveTree clears nested files
// and tolerates a missing directory.
func TestWriteFileAtomicAndRemoveTree(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db/sub")
	if err := WriteFileAtomic(m, "db/MARKER", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	img := m.CrashImage(nil)
	if got, err := ReadFile(img, "db/MARKER"); err != nil || string(got) != "v2" {
		t.Fatalf("atomic write after crash: %q, %v", got, err)
	}
	if _, err := img.Stat("db/MARKER.tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if err := WriteFile(m, "db/sub/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := RemoveTree(m, "db"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"db/MARKER", "db/sub/f"} {
		if _, err := m.Stat(name); !os.IsNotExist(err) {
			t.Fatalf("%s survived RemoveTree: %v", name, err)
		}
	}
	if err := RemoveTree(m, "absent"); err != nil {
		t.Fatalf("RemoveTree of a missing dir: %v", err)
	}
}

func TestFaultyNthMatchingOp(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db")
	fs := NewFaulty(m)
	boom := errors.New("boom")
	fs.Inject(Rule{Op: OpSync, Path: ".wal", N: 2, Err: boom})

	f, err := fs.Create("db/000001.wal")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("r1"))
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("second sync: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("third sync (rule spent): %v", err)
	}
	// Non-matching path is untouched.
	g, _ := fs.Create("db/000002.sst")
	if err := g.Sync(); err != nil {
		t.Fatalf("sst sync: %v", err)
	}
}

func TestFaultyRepeatAndDefaultErr(t *testing.T) {
	fs := NewFaulty(NewMem())
	fs.Inject(Rule{Op: OpMkdirAll, Repeat: true})
	if err := fs.MkdirAll("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if err := fs.MkdirAll("b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("repeat rule stopped firing: %v", err)
	}
}

func TestFaultyDropSync(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db")
	fs := NewFaulty(m)
	fs.Inject(Rule{Op: OpSync, Path: ".wal", Drop: true, Repeat: true})
	f, _ := fs.Create("db/000001.wal")
	f.Write([]byte("acknowledged"))
	if err := f.Sync(); err != nil {
		t.Fatalf("dropped sync must report success: %v", err)
	}
	got, _ := ReadFile(m.CrashImage(nil), "db/000001.wal")
	if len(got) != 0 {
		t.Fatalf("dropped sync still made data durable: %q", got)
	}
}

func TestFaultyPartialWrite(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db")
	fs := NewFaulty(m)
	fs.Inject(Rule{Op: OpWrite, N: 2, Partial: true})
	f, _ := fs.Create("db/f")
	if _, err := f.Write([]byte("first!")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, ErrInjected) || n != 4 {
		t.Fatalf("partial write: n=%d err=%v", n, err)
	}
	got, _ := ReadFile(m, "db/f")
	if string(got) != "first!1234" {
		t.Fatalf("content after torn write: %q", got)
	}
}

func TestFaultyCrashAfterFreezesEverything(t *testing.T) {
	m := NewMem()
	m.MkdirAll("db")
	fs := NewFaulty(m)
	f, _ := fs.Create("db/wal")
	f.Write([]byte("abc"))
	f.Sync()
	fs.CrashAfter(2)
	if _, err := f.Write([]byte("one more")); err != nil { // op 1: allowed
		t.Fatalf("op before crash point: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // op 2: crash
		t.Fatalf("crash op: %v", err)
	}
	if _, err := fs.Create("db/other"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op after crash: %v", err)
	}
	if !fs.Crashed() || !m.Crashed() {
		t.Fatal("crash did not propagate to inner Mem")
	}
	got, _ := ReadFile(m.CrashImage(nil), "db/wal")
	if string(got) != "abc" {
		t.Fatalf("crash image: %q want %q (synced prefix only)", got, "abc")
	}
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fs := OS{}
	if err := fs.MkdirAll(filepath.Join(dir, "sub")); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "sub", "f")
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadFile(fs, name)
	if err != nil || string(got) != "data" {
		t.Fatalf("ReadFile: %q, %v", got, err)
	}
	rw, err := fs.OpenReadWrite(name)
	if err != nil {
		t.Fatal(err)
	}
	rw.WriteAt([]byte("D"), 0)
	rw.Close()
	names, err := fs.List(filepath.Join(dir, "sub"))
	if err != nil || len(names) != 1 || names[0] != "f" {
		t.Fatalf("List: %v, %v", names, err)
	}
	if err := fs.Rename(name, name+"2"); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadFile(fs, name+"2"); string(got) != "Data" {
		t.Fatalf("after WriteAt+Rename: %q", got)
	}
	if err := fs.Remove(name + "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(name + "2"); !os.IsNotExist(err) {
		t.Fatalf("stat removed: %v", err)
	}
}

func TestMemReadAtPartialTail(t *testing.T) {
	m := NewMem()
	m.MkdirAll("d")
	f := writeAll(t, m, "d/f", []byte("abc"))
	var buf [8]byte
	n, err := f.ReadAt(buf[:], 1)
	if n != 2 || err != io.EOF {
		t.Fatalf("short ReadAt: n=%d err=%v", n, err)
	}
	if string(buf[:n]) != "bc" {
		t.Fatalf("short ReadAt content: %q", buf[:n])
	}
}
