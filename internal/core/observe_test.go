package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"lsmkv/internal/iostat"
)

// fillAndSettle loads enough overwriting traffic that the tree has data
// in L0 and at least one deeper level, then waits for compactions.
func fillAndSettle(t *testing.T, db *DB) {
	t.Helper()
	for i := 0; i < 8000; i++ {
		if err := db.Put(key(i%1000), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestGetTracedMemtableHit(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	if err := db.Put([]byte("fresh"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, tr, err := db.GetTraced([]byte("fresh"))
	if err != nil || !bytes.Equal(v, []byte("value")) {
		t.Fatalf("GetTraced: %q, %v", v, err)
	}
	if !tr.Found || !tr.MemtableHit || tr.Source != "memtable" {
		t.Fatalf("memtable hit not traced: %+v", tr)
	}
	if len(tr.Runs) != 0 {
		t.Fatalf("memtable hit should consult no runs: %+v", tr.Runs)
	}
}

func TestGetTracedDeepLevelHit(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	fillAndSettle(t, db)

	_, tr, err := db.GetTraced(key(0))
	if err != nil {
		t.Fatalf("GetTraced: %v", err)
	}
	if !tr.Found {
		t.Fatalf("key present but trace says absent: %s", tr)
	}
	if !strings.HasPrefix(tr.Source, "L") {
		t.Fatalf("settled key should come from a level, got source %q", tr.Source)
	}
	if len(tr.Runs) == 0 {
		t.Fatal("level hit recorded no runs")
	}
	// Exactly one run holds the visible version, and it must have been
	// probed; every earlier run carries a screening decision.
	var hits int
	for _, rt := range tr.Runs {
		switch rt.Decision {
		case iostat.DecisionFenceSkip, iostat.DecisionSeqSkip,
			iostat.DecisionFilterNegative, iostat.DecisionProbed:
		default:
			t.Fatalf("run L%d/run%d has no decision: %+v", rt.Level, rt.Run, rt)
		}
		if rt.Found {
			hits++
			if rt.Decision != iostat.DecisionProbed {
				t.Fatalf("found without probing: %+v", rt)
			}
			if rt.Blocks == 0 {
				t.Fatalf("probe that found the key touched no blocks: %+v", rt)
			}
			if rt.File == 0 {
				t.Fatalf("probed run missing file number: %+v", rt)
			}
		}
	}
	if hits != 1 {
		t.Fatalf("want exactly one finding run, got %d in %s", hits, tr)
	}
	if tr.ElapsedUs <= 0 {
		t.Fatalf("elapsed not recorded: %v", tr.ElapsedUs)
	}

	// The trace says what a miss did to the cache: admitted at once into
	// free room, or on its second occurrence into a full cache — so the
	// third lookup of the key is a hit, and an earlier trace owns up to
	// the admission.
	admitted := 0
	for lookup := 1; lookup <= 3; lookup++ {
		if lookup > 1 {
			if _, tr, err = db.GetTraced(key(0)); err != nil {
				t.Fatalf("GetTraced: %v", err)
			}
		}
		for _, rt := range tr.Runs {
			if rt.CacheHits+rt.CacheMisses != rt.Blocks || rt.CacheAdmitted > rt.CacheMisses {
				t.Fatalf("lookup %d: cache accounting does not add up: %+v", lookup, rt)
			}
			admitted += rt.CacheAdmitted
			if lookup == 3 && rt.CacheMisses > 0 {
				t.Fatalf("third lookup still misses: %s", tr)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("the block became resident but no trace recorded its admission")
	}
}

func TestGetTracedAbsentKey(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	fillAndSettle(t, db)

	_, tr, err := db.GetTraced([]byte("nosuchkey-zzz"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if tr.Found || tr.Tombstone || tr.Source != "" {
		t.Fatalf("absent key mis-traced: %s", tr)
	}
	// Every run consulted must explain why it did not produce the key.
	for _, rt := range tr.Runs {
		if rt.Decision == "" || rt.Found {
			t.Fatalf("absent-key run unexplained: %+v", rt)
		}
		if rt.Decision == iostat.DecisionProbed && !rt.FalsePositive {
			t.Fatalf("fruitless probe not marked false positive: %+v", rt)
		}
	}
}

func TestGetTracedTombstone(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	if err := db.Put([]byte("doomed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	_, tr, err := db.GetTraced([]byte("doomed"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if !tr.Tombstone || tr.Found {
		t.Fatalf("tombstone not reported: %s", tr)
	}
	if tr.Source == "" {
		t.Fatalf("tombstone source not recorded: %s", tr)
	}
}

// TestLatenciesAlwaysRecorded: an engine records every operation's
// latency with nothing switched on, one "get" observation per key read.
func TestLatenciesAlwaysRecorded(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()

	for i := 0; i < 50; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Get(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	db.Scan(nil, nil, func(k, v []byte) bool { return true })

	lat := db.Latencies()
	for _, op := range []string{"get", "put", "delete", "scan"} {
		s, ok := lat[op]
		if !ok {
			t.Fatalf("no %s summary in %v", op, lat)
		}
		if s.Count == 0 || s.P99Us < s.P50Us || s.MaxUs <= 0 {
			t.Fatalf("%s summary implausible: %+v", op, s)
		}
	}
	if lat["get"].Count != 50 || lat["put"].Count != 50 {
		t.Fatalf("counts wrong: get=%d put=%d", lat["get"].Count, lat["put"].Count)
	}
}

func TestEventLogCapturesLifecycle(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	fillAndSettle(t, db)

	seen := map[iostat.EventType]int{}
	for _, e := range db.Events() {
		seen[e.Type]++
	}
	if seen[iostat.EventFlush] == 0 {
		t.Fatalf("no flush events in %v", seen)
	}
	if seen[iostat.EventCompaction]+seen[iostat.EventTrivialMove] == 0 {
		t.Fatalf("no compaction events in %v", seen)
	}
	// Compaction events must account their I/O.
	for _, e := range db.Events() {
		if e.Type == iostat.EventCompaction && (e.InputFiles == 0 || e.OutputBytes == 0) {
			t.Fatalf("compaction event missing accounting: %+v", e)
		}
		if e.Type == iostat.EventFlush && e.ToLevel != 0 {
			t.Fatalf("flush event should land in L0: %+v", e)
		}
	}
}
