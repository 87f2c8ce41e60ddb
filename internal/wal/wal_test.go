package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lsmkv/internal/vfs"
)

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Create(vfs.Default, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%04d-%s", i, string(make([]byte, i%37))))
		want = append(want, p)
		if err := w.AddRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	complete, err := Replay(vfs.Default, path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Error("clean log reported incomplete")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := Create(vfs.Default, path, Options{})
	w.AddRecord([]byte("complete-record"))
	w.AddRecord([]byte("this-one-will-be-torn"))
	w.Close()
	// Truncate mid second record.
	fi, _ := os.Stat(path)
	os.Truncate(path, fi.Size()-5)
	var got int
	complete, err := Replay(vfs.Default, path, func(p []byte) error { got++; return nil })
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if complete {
		t.Error("torn log reported complete")
	}
	if got != 1 {
		t.Errorf("replayed %d records want 1", got)
	}
}

func TestWALMidCorruptionSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := Create(vfs.Default, path, Options{})
	w.AddRecord([]byte("first-record-payload"))
	w.AddRecord([]byte("second-record-payload"))
	w.Close()
	data, _ := os.ReadFile(path)
	data[headerLen+2] ^= 0xff // flip a byte inside the first payload
	os.WriteFile(path, data, 0o644)
	_, err := Replay(vfs.Default, path, func(p []byte) error { return nil })
	if err != ErrCorrupt {
		t.Errorf("want ErrCorrupt, got %v", err)
	}
}

func TestWALMissingFile(t *testing.T) {
	complete, err := Replay(vfs.Default, filepath.Join(t.TempDir(), "absent"), func([]byte) error { return nil })
	if err != nil {
		t.Errorf("missing file must be a no-op: %v", err)
	}
	if !complete {
		t.Error("missing file reported incomplete")
	}
}

func TestWALSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := Create(vfs.Default, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddRecord([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Record must be on disk even before Close.
	var got int
	if _, err := Replay(vfs.Default, path, func(p []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("synced record not visible: %d", got)
	}
	w.Close()
}

func TestWALEmptyRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := Create(vfs.Default, path, Options{})
	w.AddRecord(nil)
	w.AddRecord([]byte("after-empty"))
	w.Close()
	var got [][]byte
	_, _ = Replay(vfs.Default, path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if len(got) != 2 || len(got[0]) != 0 || string(got[1]) != "after-empty" {
		t.Errorf("empty-record round trip broken: %q", got)
	}
}

func TestWALSizeTracking(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := Create(vfs.Default, path, Options{})
	if w.Size() != 0 {
		t.Error("fresh wal size not 0")
	}
	w.AddRecord(make([]byte, 100))
	if w.Size() != headerLen+100 {
		t.Errorf("Size()=%d want %d", w.Size(), headerLen+100)
	}
	w.Close()
}
