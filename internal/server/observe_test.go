package server_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"lsmkv/internal/iostat"
	"lsmkv/internal/server"
	"lsmkv/internal/vfs"
)

// TestTraceOpcode round-trips a read-path trace over the wire: hit,
// miss, and a post-flush hit that must show sorted-run decisions.
func TestTraceOpcode(t *testing.T) {
	srv, db := startServer(t, vfs.NewMem(), 1, nil)
	cl := dialTest(t, srv, nil)

	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tr, err := cl.Trace([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Found || tr.Source != "memtable" {
		t.Fatalf("memtable hit mis-traced over the wire: %+v", tr)
	}

	// A miss is StatusOK with a trace, not an error: the trace explains
	// the miss, which is exactly what the operator asked for.
	tr, err = cl.Trace([]byte("absent"))
	if err != nil {
		t.Fatalf("trace of absent key should not error: %v", err)
	}
	if tr.Found || tr.Tombstone {
		t.Fatalf("absent key mis-traced: %+v", tr)
	}

	// After a flush the same key's trace must walk the tree.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err = cl.Trace([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Found || len(tr.Runs) == 0 {
		t.Fatalf("post-flush trace shows no runs: %+v", tr)
	}
	if tr.Runs[len(tr.Runs)-1].Decision != iostat.DecisionProbed {
		t.Fatalf("finding run not probed: %+v", tr.Runs)
	}
}

// TestMetricsPercentiles checks that /metrics carries per-opcode latency
// quantiles for the server and per-operation histograms for the engine.
func TestMetricsPercentiles(t *testing.T) {
	srv, _ := startServer(t, vfs.NewMem(), 1, nil)
	cl := dialTest(t, srv, nil)

	for i := 0; i < 32; i++ {
		if err := cl.Put([]byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var payload struct {
		Server          server.Snapshot                  `json:"server"`
		EngineLatencies map[string]iostat.LatencySummary `json:"engine_latencies"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, rec.Body.String())
	}
	for _, op := range []string{"get", "put"} {
		s, ok := payload.Server.Ops[op]
		if !ok {
			t.Fatalf("no server %s summary: %v", op, payload.Server.Ops)
		}
		if s.Count < 32 || s.P50Us > s.P99Us || s.P99Us > s.P999Us || s.MaxUs <= 0 {
			t.Fatalf("server %s summary implausible: %+v", op, s)
		}
	}
	// Engine-side: reads arrive as Gets, writes as group-committed
	// batches, so the engine histograms are keyed get/batch here.
	for _, op := range []string{"get", "batch"} {
		e, ok := payload.EngineLatencies[op]
		if !ok {
			t.Fatalf("no engine %s summary: %v", op, payload.EngineLatencies)
		}
		if e.Count == 0 || e.MaxUs <= 0 {
			t.Fatalf("engine %s summary implausible: %+v", op, e)
		}
	}
}

// TestEventsEndpoint exercises /events: the engine ring carries flush
// events, and the server ring records the drain.
func TestEventsEndpoint(t *testing.T) {
	srv, db := startServer(t, vfs.NewMem(), 1, nil)
	cl := dialTest(t, srv, nil)

	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	h := srv.MetricsHandler()

	fetch := func() (out struct {
		Server []iostat.Event `json:"server"`
		Engine []iostat.Event `json:"engine"`
	}) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
		if rec.Code != 200 {
			t.Fatalf("/events: %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("events JSON: %v\n%s", err, rec.Body.String())
		}
		return out
	}

	ev := fetch()
	var flushes int
	for _, e := range ev.Engine {
		if e.Type == iostat.EventFlush {
			flushes++
		}
	}
	if flushes == 0 {
		t.Fatalf("no flush events in engine ring: %+v", ev.Engine)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ev = fetch()
	var drains int
	for _, e := range ev.Server {
		if e.Type == iostat.EventDrain {
			drains++
		}
	}
	if drains != 1 {
		t.Fatalf("want one drain event in server ring, got %d: %+v", drains, ev.Server)
	}
}
