package iostat

import (
	"testing"
	"time"
)

func TestOpLatenciesSummaries(t *testing.T) {
	var l OpLatencies
	for i := 1; i <= 100; i++ {
		l.Get.Observe(time.Duration(i) * time.Microsecond)
	}
	l.Put.Observe(5 * time.Millisecond)
	l.Batch.Observe(2 * time.Millisecond)

	s := l.Summaries()
	if len(s) != 3 {
		t.Fatalf("want get/put/batch only (never-recorded ops omitted), got %v", s)
	}
	if _, ok := s["delete"]; ok {
		t.Fatal("delete never recorded yet summarized")
	}
	g := s["get"]
	if g.Count != 100 || g.P50Us <= 0 || g.P50Us > g.P999Us || g.MaxUs < g.P999Us {
		t.Fatalf("get summary implausible: %+v", g)
	}
	if s["put"].Count != 1 || s["batch"].Count != 1 {
		t.Fatalf("put/batch counts wrong: %+v", s)
	}
}

func TestQuantileEdges(t *testing.T) {
	var h Histogram
	var empty HistSnapshot = h.Snapshot()
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile: %d", got)
	}
	h.Record(7)
	s := h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 7 {
			t.Fatalf("single-value histogram q=%v: %d", q, got)
		}
	}
}
