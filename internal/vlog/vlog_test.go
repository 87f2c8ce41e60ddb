package vlog

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"lsmkv/internal/vfs"
)

func TestPointerRoundTrip(t *testing.T) {
	f := func(seg, off uint64, length uint32) bool {
		p := Pointer{Segment: seg, Offset: off, Length: length}
		q, err := DecodePointer(p.Encode())
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := DecodePointer([]byte{1, 2}); err == nil {
		t.Error("short pointer must fail")
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	l, err := Open(vfs.Default, t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type rec struct {
		p     Pointer
		value []byte
	}
	var recs []rec
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key%05d", i))
		val := bytes.Repeat([]byte{byte(i)}, 10+i%500)
		p, err := l.Append(key, val)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{p, val})
	}
	for i, r := range recs {
		got, err := l.Get(r.p)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got, r.value) {
			t.Fatalf("Get(%d): value mismatch", i)
		}
	}
}

func TestSegmentRolling(t *testing.T) {
	l, err := Open(vfs.Default, t.TempDir(), 4<<10) // tiny segments
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		if _, err := l.Append([]byte("k"), make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.Segments()) < 5 {
		t.Errorf("expected multiple segments, got %v", l.Segments())
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(vfs.Default, dir, 1<<20)
	p1, _ := l.Append([]byte("k1"), []byte("v1"))
	l.Close()

	l2, err := Open(vfs.Default, dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Old pointer still resolves.
	v, err := l2.Get(p1)
	if err != nil || string(v) != "v1" {
		t.Fatalf("old pointer after reopen: %q %v", v, err)
	}
	// New appends go to the same or later segment without clobbering.
	p2, _ := l2.Append([]byte("k2"), []byte("v2"))
	v2, err := l2.Get(p2)
	if err != nil || string(v2) != "v2" {
		t.Fatalf("new append after reopen: %q %v", v2, err)
	}
	v, err = l2.Get(p1)
	if err != nil || string(v) != "v1" {
		t.Fatalf("old pointer clobbered by append after reopen: %q %v", v, err)
	}
}

func TestGCRewritesLiveOnly(t *testing.T) {
	l, err := Open(vfs.Default, t.TempDir(), 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	live := map[string]Pointer{}
	// Fill several segments; half the keys become dead.
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key%05d", i))
		p, err := l.Append(key, make([]byte, 256))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			live[string(key)] = p
		}
	}
	nSegsBefore := len(l.Segments())
	if nSegsBefore < 3 {
		t.Fatalf("need multiple segments, got %d", nSegsBefore)
	}
	var relocated []string
	seg, err := l.GC(l.Segments(), func(seg uint64, entries []Entry) (bool, error) {
		for _, e := range entries {
			if q, ok := live[string(e.Key)]; !ok || q != e.Ptr {
				continue
			}
			value, err := l.Get(e.Ptr)
			if err != nil {
				return false, err
			}
			p, err := l.Append(e.Key, value)
			if err != nil {
				return false, err
			}
			live[string(e.Key)] = p
			relocated = append(relocated, string(e.Key))
		}
		return true, nil
	})
	if err != nil || seg == 0 {
		t.Fatalf("GC: collected=%d err=%v", seg, err)
	}
	if len(relocated) == 0 {
		t.Error("GC relocated nothing; expected live entries in oldest segment")
	}
	// The candidates are offered oldest first, and the first taker ends it.
	if seg != l.Segments()[0] {
		t.Errorf("GC collected segment %d, want the first candidate %d", seg, l.Segments()[0])
	}
	if err := l.Remove(seg); err != nil {
		t.Fatal(err)
	}
	// All live pointers must still resolve after GC.
	for k, p := range live {
		if _, err := l.Get(p); err != nil {
			t.Fatalf("live key %s unreadable after GC: %v", k, err)
		}
	}
	if len(l.Segments()) >= nSegsBefore+1 {
		t.Errorf("GC did not reduce segment count: before=%d after=%d", nSegsBefore, len(l.Segments()))
	}
}

func TestGCOnSingleSegmentIsNoop(t *testing.T) {
	l, _ := Open(vfs.Default, t.TempDir(), 1<<20)
	defer l.Close()
	l.Append([]byte("k"), []byte("v"))
	collected, err := l.GC(l.Segments(), func(uint64, []Entry) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if collected != 0 {
		t.Error("GC must never collect the active segment")
	}
}

func TestGetStalePointerAfterGC(t *testing.T) {
	l, _ := Open(vfs.Default, t.TempDir(), 4<<10)
	defer l.Close()
	p0, _ := l.Append([]byte("k"), make([]byte, 512))
	for i := 0; i < 50; i++ {
		l.Append([]byte("pad"), make([]byte, 512))
	}
	// Everything is dead: nothing to relocate, the segment may go.
	seg, err := l.GC(l.Segments(), func(uint64, []Entry) (bool, error) { return true, nil })
	if err != nil || seg == 0 {
		t.Fatalf("GC: %v %v", seg, err)
	}
	if _, err := l.Get(p0); err != nil {
		t.Errorf("collected segment must stay readable until Remove: %v", err)
	}
	if err := l.Remove(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Get(p0); err == nil {
		t.Error("pointer into a collected segment must fail, not return stale data")
	}
}

func TestSizeBytesGrows(t *testing.T) {
	l, _ := Open(vfs.Default, t.TempDir(), 1<<20)
	defer l.Close()
	s0 := l.SizeBytes()
	l.Append([]byte("k"), make([]byte, 4096))
	if l.SizeBytes() <= s0 {
		t.Error("SizeBytes did not grow after append")
	}
}
