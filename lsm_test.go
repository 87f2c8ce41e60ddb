package lsmkv

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lsmkv/internal/iostat"
)

func TestPublicAPIBasics(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get: %q %v", v, err)
	}
	if _, err := db.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := db.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("hello")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
}

func TestPresetsOpenAndWork(t *testing.T) {
	presets := map[string]*Options{
		"default":         Default(),
		"read-optimized":  ReadOptimized(),
		"write-optimized": WriteOptimized(),
		"balanced":        Balanced(),
		"wisckey":         WiscKey(),
		"no-cache":        Default().DisableCache(),
	}
	for name, opts := range presets {
		t.Run(name, func(t *testing.T) {
			opts.MemtableBytes = 16 << 10 // force flushes at test scale
			db, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const n = 2000
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("key%06d", i))
				if err := db.Put(k, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 37 {
				k := []byte(fmt.Sprintf("key%06d", i))
				v, err := db.Get(k)
				if err != nil || len(v) != 64 {
					t.Fatalf("Get(%s): %v len=%d", k, err, len(v))
				}
			}
			count := 0
			db.Scan([]byte("key"), []byte("kez"), func(k, v []byte) bool {
				count++
				return true
			})
			if count != n {
				t.Fatalf("scan saw %d keys want %d", count, n)
			}
			if db.TotalRuns() == 0 && db.Levels() == nil {
				t.Error("metrics empty after load")
			}
		})
	}
}

func TestPublicSnapshot(t *testing.T) {
	db, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("k"), []byte("v1"))
	snap := db.NewSnapshot()
	defer snap.Release()
	db.Put([]byte("k"), []byte("v2"))
	v, err := snap.Get([]byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("snapshot Get: %q %v", v, err)
	}
	n := 0
	snap.Scan([]byte("a"), []byte("z"), func(k, v []byte) bool {
		if string(v) != "v1" {
			t.Errorf("snapshot scan saw %q", v)
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("snapshot scan count %d", n)
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), &Options{Layout: "bogus"}); err == nil {
		t.Error("bogus layout accepted")
	}
	if _, err := Open(t.TempDir(), &Options{Layout: Tiered, PartialCompaction: true}); err == nil {
		t.Error("partial compaction with tiered layout accepted")
	}
}

// TestOutOfRangeKnobIsRejected: a nonzero knob outside its row's legal
// range fails Open with an error naming the knob. A SizeRatio of 1 once
// opened a T=10 tree.
func TestOutOfRangeKnobIsRejected(t *testing.T) {
	for name, opts := range map[string]*Options{
		"T = 1": {SizeRatio: 1}, "block-size = -1": {BlockSize: -1}, "memtable-bytes = -5": {MemtableBytes: -5},
		"layout = bogus": {Layout: "bogus"}, "K=4 and Z=1": {SizeRatio: 4, HybridK: 4, HybridZ: 1},
		"HybridK and HybridZ": {HybridK: 2},
	} {
		db, err := Open(t.TempDir(), opts)
		if err == nil {
			db.Close()
		}
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Open(%+v) = %v, want an error naming %q", opts, err, name)
		}
	}
}

// TestOptionsFieldsGolden pins the exported fields of Options — name,
// type and order — to the struct as it stood before it moved into
// internal/core as core.Design.
func TestOptionsFieldsGolden(t *testing.T) {
	want := [][2]string{
		{"Layout", "Layout"}, {"SizeRatio", "int"}, {"HybridK", "int"}, {"HybridZ", "int"},
		{"MemtableBytes", "int64"}, {"TwoLevelMemtable", "bool"}, {"DisableWAL", "bool"}, {"SyncWAL", "bool"},
		{"Shards", "int"}, {"PartialCompaction", "bool"}, {"FilePicking", "FilePicker"}, {"MaxLevels", "int"},
		{"Filter", "FilterKind"}, {"BitsPerKey", "float64"}, {"MonkeyFilters", "bool"}, {"PartitionedFilters", "bool"},
		{"RangeFilter", "Kind"}, {"RangeFilterBitsPerKey", "float64"}, {"PrefixLength", "int"},
		{"BlockSize", "int"}, {"BlockHashIndex", "bool"}, {"LearnedIndex", "LearnedKind"},
		{"CacheBytes", "int64"}, {"CacheClock", "bool"}, {"PrefetchAfterCompaction", "bool"},
		{"ValueSeparation", "bool"}, {"ValueThreshold", "int"}, {"VlogSegmentBytes", "uint64"},
		{"CompactionMaxBytesPerSec", "int64"}, {"CompactionConcurrency", "int"}, {"MaxImmutableMemtables", "int"},
		{"L0SlowdownTrigger", "int"}, {"L0StopTrigger", "int"}, {"SlowdownMaxDelay", "Duration"},
		{"PendingCompactionSlowdownBytes", "int64"}, {"AutoTune", "bool"}, {"AutoTuneInterval", "Duration"},
		{"TrackLatency", "bool"},
		{"Logf", "func(string, ...interface {})"},
	}
	var got [][2]string
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			name := f.Type.Name()
			if name == "" {
				name = f.Type.String()
			}
			got = append(got, [2]string{f.Name, name})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Options fields\n got %v\nwant %v", got, want)
	}
}

func TestStatsExposed(t *testing.T) {
	opts := Default()
	opts.MemtableBytes = 8 << 10
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte("v"), 64))
	}
	db.Compact()
	for i := 0; i < 100; i++ {
		db.Get([]byte(fmt.Sprintf("k%06d", i)))
	}
	s := db.Stats()
	if s.PointLookups != 100 || s.Flushes == 0 || s.BytesFlushed == 0 {
		t.Errorf("stats implausible: %+v", s)
	}
}

func TestHybridKZFacade(t *testing.T) {
	opts := &Options{SizeRatio: 6, HybridK: 3, HybridZ: 2, MemtableBytes: 16 << 10}
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("key%06d", i)), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i += 101 {
		if _, err := db.Get([]byte(fmt.Sprintf("key%06d", i))); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
}

// TestInstrumentsAlwaysOn: under Default options, at one shard and at
// three, every engine records its counters, latency histograms and
// lifecycle events, and the router adds them up when they are read:
// Stats is the sum of ShardStats, one entry per shard, with each lookup
// counted once.
func TestInstrumentsAlwaysOn(t *testing.T) {
	for _, shards := range []int{1, 3} {
		opts := Default()
		opts.Shards = shards
		db, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		const n = 60
		for i := 0; i < n; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Scan(nil, nil, func(k, v []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}

		lat := db.Latencies()
		for _, op := range []string{"get", "put", "scan"} {
			if lat[op].Count == 0 {
				t.Errorf("shards=%d: no %s latencies in %v", shards, op, lat)
			}
		}
		if lat["get"].Count != n || lat["put"].Count != n || lat["scan"].Count != 1 {
			t.Errorf("shards=%d: get/put/scan counts %d/%d/%d, want %d/%d/1",
				shards, lat["get"].Count, lat["put"].Count, lat["scan"].Count, n, n)
		}

		flushed := map[int]bool{}
		for _, e := range db.Events() {
			if e.Type == iostat.EventFlush {
				flushed[e.Shard] = true
			}
		}
		for i := 0; i < shards; i++ {
			if !flushed[i] {
				t.Errorf("shards=%d: no flush event tagged shard %d in %v", shards, i, db.Events())
			}
		}

		per := db.ShardStats()
		if len(per) != shards {
			t.Fatalf("shards=%d: ShardStats has %d entries", shards, len(per))
		}
		sum := per[0]
		for _, s := range per[1:] {
			sum = sum.Add(s)
		}
		if agg := db.Stats(); !reflect.DeepEqual(agg, sum) || agg.PointLookups != n {
			t.Errorf("shards=%d: Stats %+v\nis not the sum of ShardStats %+v, or counts %d lookups, want %d",
				shards, agg, sum, agg.PointLookups, n)
		}
		db.Close()
	}
}

func TestThrottleFacade(t *testing.T) {
	opts := Default()
	opts.CompactionMaxBytesPerSec = 1 << 30 // effectively unlimited: just exercise plumbing
	opts.MemtableBytes = 16 << 10
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key%06d", i)), bytes.Repeat([]byte("v"), 64))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicMethodSetGolden pins the exported method sets that *DB and
// *Snapshot get by embedding / aliasing internal/shard types: a method
// dropped from shard.DB would silently leave the public API, and a new
// exported one would silently join it. Either is a deliberate edit here.
func TestPublicMethodSetGolden(t *testing.T) {
	golden := map[reflect.Type][]string{
		reflect.TypeOf((*DB)(nil)): {
			"ApplyBatch", "ApplyReplicated", "Checkpoint",
			"Close", "Compact", "CompareAndSwap", "DebugString", "Delete",
			"Events", "Flush", "FreezeTuning", "Get", "GetAppend", "GetTraced",
			"Incr", "IndexMemory", "LastSeqs", "Latencies", "Levels",
			"MerkleAt", "MultiGet", "MultiGetTraced", "NewSnapshot",
			"NumShards", "Put", "PutTTL", "RunValueLogGC", "Scan",
			"SetCommitHook", "ShardOf", "ShardStats", "StartTuning", "Stats",
			"StopTuning", "Submit", "TotalRuns", "TunerStatus", "WaitForSeq",
		},
		reflect.TypeOf((*Snapshot)(nil)): {"Get", "Release", "Scan"},
	}
	for typ, want := range golden {
		var got []string // reflect lists exported methods sorted by name
		for i := 0; i < typ.NumMethod(); i++ {
			got = append(got, typ.Method(i).Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v method set changed:\n got  %v\n want %v", typ, got, want)
		}
	}
	// The one method the facade redefines keeps its public signature.
	var _ func(*DB, time.Duration) = (*DB).StartTuning
}
