package iostat

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestEventLogBounded: the ring retains exactly the last `capacity`
// events, in chronological order, with contiguous sequence numbers.
func TestEventLogBounded(t *testing.T) {
	const capacity = DefaultEventLogSize
	l := NewEventLog()
	const total = 1000
	for i := 0; i < total; i++ {
		l.Add(Event{Type: EventFlush, FromLevel: -1, ToLevel: 0, Detail: fmt.Sprintf("n%d", i)})
	}
	if l.Len() != capacity {
		t.Fatalf("Len = %d, want %d", l.Len(), capacity)
	}
	if l.TotalAdded() != total {
		t.Fatalf("TotalAdded = %d, want %d", l.TotalAdded(), total)
	}
	evs := l.Events()
	if len(evs) != capacity {
		t.Fatalf("Events len = %d, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		want := uint64(total - capacity + i + 1)
		if e.Seq != want {
			t.Fatalf("event %d: Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Detail != fmt.Sprintf("n%d", want-1) {
			t.Fatalf("event %d: Detail = %q", i, e.Detail)
		}
	}
}

// TestEventLogUnderfilled: before wrapping, everything added is returned.
func TestEventLogUnderfilled(t *testing.T) {
	l := NewEventLog()
	for i := 0; i < 5; i++ {
		l.Add(Event{Type: EventCompaction, FromLevel: i, ToLevel: i + 1})
	}
	evs := l.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.FromLevel != i {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d: Time not stamped", i)
		}
	}
}

// TestEventLogConcurrent: concurrent adders never lose or duplicate a
// sequence number (run under -race).
func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog()
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Add(Event{Type: EventWALRotate, FromLevel: -1, ToLevel: -1})
			}
		}()
	}
	wg.Wait()
	if l.TotalAdded() != workers*per {
		t.Fatalf("TotalAdded = %d, want %d", l.TotalAdded(), workers*per)
	}
	evs := l.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestEventJSONAndString: events round-trip JSON and render a line.
func TestEventJSONAndString(t *testing.T) {
	l := NewEventLog()
	l.Add(Event{
		Type: EventCompaction, FromLevel: 1, ToLevel: 2,
		InputFiles: 4, OutputFiles: 3, InputBytes: 4096, OutputBytes: 3072,
		DurMs: 12.5, Detail: "size-trigger",
	})
	data, err := json.Marshal(l.Events())
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Type != EventCompaction || back[0].OutputBytes != 3072 {
		t.Fatalf("round trip mangled: %+v", back)
	}
	s := back[0].String()
	for _, want := range []string{"compaction", "L1->L2", "files 4->3", "size-trigger"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
