package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/vfs"
)

// TestGetAppend checks that the append-style point read returns the same
// bytes as Get, appended after the caller's prefix, across every shard.
func TestGetAppend(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 4)
	defer db.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	prefix := []byte("pre/")
	for i := 0; i < n; i++ {
		got, err := db.GetAppend(tkey(i), append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("GetAppend(%q): %v", tkey(i), err)
		}
		want := append(append([]byte(nil), prefix...), tval(i)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("GetAppend(%q) = %q, want %q", tkey(i), got, want)
		}
	}
	if _, err := db.GetAppend([]byte("absent"), nil); err != core.ErrNotFound {
		t.Fatalf("GetAppend(absent) err = %v, want ErrNotFound", err)
	}
}

// runMultiGetChecks exercises MultiGet against a sequential-Get oracle on
// a db with shards already holding keys 0..n-1 (every 7th key deleted,
// every 13th rewritten empty).
func runMultiGetChecks(t *testing.T, db *DB, n int) {
	t.Helper()

	// A batch mixing present, absent, empty-valued, and duplicate keys,
	// in an order that scatters across shards.
	var keys [][]byte
	for i := 0; i < n; i += 3 {
		keys = append(keys, tkey(i))
	}
	keys = append(keys, []byte("never-written"), tkey(1), tkey(1))

	vals, err := db.MultiGet(keys)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	if len(vals) != len(keys) {
		t.Fatalf("MultiGet returned %d values for %d keys", len(vals), len(keys))
	}
	for i, k := range keys {
		want, werr := db.Get(k)
		switch werr {
		case nil:
			if vals[i] == nil {
				t.Fatalf("key %q: MultiGet absent, Get found %q", k, want)
			}
			if !bytes.Equal(vals[i], want) {
				t.Fatalf("key %q: MultiGet %q, Get %q", k, vals[i], want)
			}
		case core.ErrNotFound:
			if vals[i] != nil {
				t.Fatalf("key %q: MultiGet found %q, Get absent", k, vals[i])
			}
		default:
			t.Fatalf("Get(%q): %v", k, werr)
		}
	}

	// Empty-valued keys must come back as non-nil empty slices (found),
	// never as nil (absent).
	empties, err := db.MultiGet([][]byte{tkey(13), tkey(26)})
	if err != nil {
		t.Fatalf("MultiGet(empties): %v", err)
	}
	for i, v := range empties {
		if v == nil || len(v) != 0 {
			t.Fatalf("empty-valued key %d: got %v, want non-nil empty", i, v)
		}
	}

	// Empty batch is a no-op.
	if vals, err := db.MultiGet(nil); err != nil || len(vals) != 0 {
		t.Fatalf("MultiGet(nil) = %v, %v", vals, err)
	}
}

func seedMultiGet(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if err := db.Delete(tkey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 13; i < n; i += 13 {
		if err := db.Put(tkey(i), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultiGet(t *testing.T) {
	const n = 300
	for _, shards := range []int{1, 4} {
		fs := vfs.NewMem()
		db := openShards(t, fs, "db", shards)
		seedMultiGet(t, db, n)
		runMultiGetChecks(t, db, n)
		db.Close()
	}
}

// TestMultiGetTraced checks value agreement with MultiGet plus the trace
// contract: one trace per key, absent keys included, shard stamped.
func TestMultiGetTraced(t *testing.T) {
	fs := vfs.NewMem()
	db := openShards(t, fs, "db", 4)
	defer db.Close()
	const n = 120
	seedMultiGet(t, db, n)

	keys := [][]byte{tkey(1), tkey(7), tkey(2), []byte("never-written"), tkey(1)}
	vals, trs, err := db.MultiGetTraced(keys)
	if err != nil {
		t.Fatalf("MultiGetTraced: %v", err)
	}
	if len(vals) != len(keys) || len(trs) != len(keys) {
		t.Fatalf("got %d vals, %d traces for %d keys", len(vals), len(trs), len(keys))
	}
	plain, err := db.MultiGet(keys)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i := range keys {
		if !bytes.Equal(vals[i], plain[i]) {
			t.Fatalf("key %q: traced %q, plain %q", keys[i], vals[i], plain[i])
		}
		if trs[i] == nil {
			t.Fatalf("key %q: nil trace", keys[i])
		}
		if want := Of(keys[i], db.NumShards()); trs[i].Shard != want {
			t.Fatalf("key %q: trace shard %d, want %d", keys[i], trs[i].Shard, want)
		}
	}
	if vals[1] != nil || vals[3] != nil {
		t.Fatalf("deleted/absent keys returned values: %q, %q", vals[1], vals[3])
	}
}

// TestMultiGetClosed checks that engine errors (not absence) propagate
// out of both the single-shard and fanned-out paths.
func TestMultiGetClosed(t *testing.T) {
	for _, shards := range []int{1, 4} {
		fs := vfs.NewMem()
		db := openShards(t, fs, "db", shards)
		if err := db.Put(tkey(1), tval(1)); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.MultiGet([][]byte{tkey(1), tkey(2), tkey(3)}); err != core.ErrClosed {
			t.Fatalf("shards=%d: MultiGet on closed db: err = %v, want ErrClosed", shards, err)
		}
		if _, _, err := db.MultiGetTraced([][]byte{tkey(1)}); err != core.ErrClosed {
			t.Fatalf("shards=%d: MultiGetTraced on closed db: err = %v, want ErrClosed", shards, err)
		}
	}
}

// sstGateFS parks every table create while armed, until released: a
// flush that reaches it holds its frozen memtable in the engine's
// immutable list for as long as the test needs one there.
type sstGateFS struct {
	vfs.FS
	armed   atomic.Bool
	parked  atomic.Int32
	release chan struct{}
}

func (g *sstGateFS) Create(name string) (vfs.File, error) {
	if g.armed.Load() && strings.HasSuffix(name, ".sst") {
		g.parked.Add(1)
		<-g.release
	}
	return g.FS.Create(name)
}

// TestMultiGetMatchesGets checks the batch walk against single Gets, at 1
// and 3 shards, over keys resolved everywhere a point read can end: the
// active and an immutable memtable, every level of the tree, tombstones,
// TTL entries expired under an injected clock, value-log pointers, and
// absent keys. Batches are unsorted and repeat keys. On keys in distinct
// blocks with the cache off, one MultiGet moves every counter exactly as
// the same keys' Gets do; each key of a batch is one "get" latency
// observation; and keys that share a block share its one read.
func TestMultiGetMatchesGets(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { checkMultiGetMatchesGets(t, shards) })
	}
}

func checkMultiGetMatchesGets(t *testing.T, shards int) {
	const (
		nKeys = 4000
		step  = 97 // sampled keys lie blocks apart in the tables
		big   = 48 // values this long or longer go to the value log
	)
	var now atomic.Int64
	now.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	gate := &sstGateFS{FS: vfs.NewMem(), release: make(chan struct{})}
	opts := testOpts(gate, "db")
	opts.Clock = now.Load
	opts.ValueSeparation, opts.ValueThreshold = true, big // the WiscKey preset, at test scale
	db, err := Open(opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	value := func(gen string, i int) []byte {
		v := []byte(fmt.Sprintf("%s-%05d", gen, i))
		if i%5 == 0 {
			v = append(v, bytes.Repeat([]byte{'p'}, big)...)
		}
		return v
	}
	// Every write generation covers a dense key range, so sampled keys
	// seldom share a block in any table.
	putRange := func(gen string, lo, hi int) {
		for i := lo; i < hi; i++ {
			must(db.Put(tkey(i), value(gen, i)))
		}
	}
	putRange("a", 0, nKeys)
	must(db.Compact())
	putRange("b", 1000, 1600)
	for i := 1200; i < 1300; i++ {
		must(db.PutTTL(tkey(i), value("ttl", i), time.Hour))
	}
	for i := 1400; i < 1500; i++ {
		must(db.Delete(tkey(i)))
	}
	must(db.Compact())
	// The late ranges hold no multiple of step.
	putRange("l0", 2040, 2080)
	must(db.Flush())
	putRange("imm", 2530, 2570)
	gate.armed.Store(true)
	var flushes sync.WaitGroup
	for _, eng := range db.engines {
		flushes.Add(1)
		go func() { defer flushes.Done(); eng.Flush() }()
	}
	defer flushes.Wait()
	defer close(gate.release)
	for deadline := time.Now().Add(10 * time.Second); gate.parked.Load() < int32(shards); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d flushes reached the gate", gate.parked.Load(), shards)
		}
		time.Sleep(time.Millisecond)
	}
	putRange("mem", 3010, 3050)
	now.Add(int64(2 * time.Hour)) // the TTL entries have expired

	var candidates [][]byte
	for i := 0; i < nKeys; i += step {
		candidates = append(candidates, tkey(i))
	}
	for _, i := range []int{2043, 2076, 2533, 2566, 3013, 3046} {
		candidates = append(candidates, tkey(i))
	}
	for i := step / 2; i < nKeys; i += 5 * step {
		candidates = append(candidates, append(tkey(i), 'x')) // absent, between written keys
	}
	candidates = append(candidates, []byte("zz-absent"))
	// distinct keeps the candidates whose lookups, traced one by one,
	// consult no block another kept key consults.
	type blocks struct{ shard, file, lo, hi int }
	var distinct [][]byte
	var taken []blocks
	for _, k := range candidates {
		_, tr, err := db.GetTraced(k)
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			t.Fatal(err)
		}
		var mine []blocks
		clash := false
		for _, rt := range tr.Runs {
			if rt.Blocks == 0 {
				continue
			}
			b := blocks{tr.Shard, int(rt.File), rt.StartBlock, rt.StartBlock + rt.Blocks - 1}
			for _, o := range taken {
				clash = clash || (o.shard == b.shard && o.file == b.file && o.lo <= b.hi && b.lo <= o.hi)
			}
			mine = append(mine, b)
		}
		if !clash {
			distinct, taken = append(distinct, k), append(taken, mine...)
		}
	}
	if len(distinct) < len(candidates)*3/4 {
		t.Fatalf("only %d of %d candidate keys lie in distinct blocks", len(distinct), len(candidates))
	}
	rng := rand.New(rand.NewSource(int64(shards)))
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	mixed := append(append([][]byte(nil), distinct...), distinct[:len(distinct)/3]...)
	// One key resolved in each level of the tree joins the mixed batch.
	levels := map[string]bool{}
	for _, l := range db.Levels() {
		if l.Files > 0 {
			levels[fmt.Sprintf("L%d", l.Level)] = true
		}
	}
	for i, picked := 0, map[string]bool{}; i < nKeys && len(picked) < len(levels); i++ {
		if _, tr, err := db.GetTraced(tkey(i)); err == nil {
			if l, _, _ := strings.Cut(tr.Source, "/"); levels[l] && !picked[l] {
				picked[l] = true
				mixed = append(mixed, tkey(i))
			}
		}
	}
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })

	// Values: each key's answer is its Get's, and the keys' traces show
	// every source a point read ends in.
	vals, trs, err := db.MultiGetTraced(mixed)
	must(err)
	sources := map[string]bool{}
	for i, k := range mixed {
		want, err := db.Get(k)
		if errors.Is(err, core.ErrNotFound) {
			want = nil
		} else if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vals[i], want) || (vals[i] == nil) != (want == nil) {
			t.Fatalf("key %q: MultiGet %q, Get %q", k, vals[i], want)
		}
		tr := trs[i]
		level, _, _ := strings.Cut(tr.Source, "/")
		sources[level] = true
		n, err := strconv.Atoi(strings.TrimPrefix(string(k), "key-"))
		switch {
		case tr.Source == "":
			sources["absent"] = true
		case tr.Found && tr.VlogRead:
			sources["value log"] = true
		case tr.Tombstone && err == nil && n >= 1200 && n < 1300:
			sources["expired"] = true
		case tr.Tombstone && err == nil && n >= 1400 && n < 1500:
			sources["tombstone"] = true
		}
	}
	if len(levels) < 2 { // the shape after compaction varies; its depth does not
		t.Errorf("the tree has levels %v; the test wants two or more", levels)
	}
	for _, want := range []string{"memtable", "immutable-0", "value log", "tombstone", "expired", "absent"} {
		levels[want] = true
	}
	for want := range levels {
		if !sources[want] {
			t.Errorf("no key of the batch ended in %s (saw %v)", want, sources)
		}
	}
	plain, err := db.MultiGet(mixed)
	must(err)
	for i := range mixed {
		if !bytes.Equal(plain[i], vals[i]) || (plain[i] == nil) != (vals[i] == nil) {
			t.Fatalf("key %q: MultiGet %q, MultiGetTraced %q", mixed[i], plain[i], vals[i])
		}
	}

	// Counters: one batch of keys in distinct blocks does exactly the
	// work of its keys' Gets.
	before := db.Stats()
	for _, k := range distinct {
		if _, err := db.Get(k); err != nil && !errors.Is(err, core.ErrNotFound) {
			t.Fatal(err)
		}
	}
	mid := db.Stats()
	getsOnly := db.Latencies()["get"].Count
	_, err = db.MultiGet(distinct)
	must(err)
	gets, batch := mid.Sub(before), db.Stats().Sub(mid)
	if gets != batch {
		gv, bv := reflect.ValueOf(gets), reflect.ValueOf(batch)
		for i := 0; i < gv.NumField(); i++ {
			if !reflect.DeepEqual(gv.Field(i).Interface(), bv.Field(i).Interface()) {
				t.Errorf("%s: Gets moved it by %v, one MultiGet by %v", gv.Type().Field(i).Name, gv.Field(i), bv.Field(i))
			}
		}
	}
	if gets.PointLookups != int64(len(distinct)) || gets.BlockReads == 0 {
		t.Errorf("Gets of %d keys counted %d lookups and %d block reads", len(distinct), gets.PointLookups, gets.BlockReads)
	}
	if got := db.Latencies()["get"].Count - getsOnly; got != int64(len(distinct)) {
		t.Errorf("a MultiGet of %d keys added %d get latencies, want one per key", len(distinct), got)
	}

	// Shared loads: keys whose single lookups each read the same one block
	// of the same table read it once as a batch.
	type blockID struct{ shard, file, block int }
	groups := map[blockID][][]byte{}
	for i := 0; i < nKeys; i++ {
		_, tr, err := db.GetTraced(tkey(i))
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			t.Fatal(err)
		}
		reads, id := 0, blockID{}
		for _, rt := range tr.Runs {
			reads += rt.BlockReads
			if rt.Found {
				id = blockID{tr.Shard, int(rt.File), rt.StartBlock}
			}
		}
		if reads == 1 && id.file != 0 && tr.Found {
			if groups[id] = append(groups[id], tkey(i)); len(groups[id]) == 4 {
				before := db.Stats()
				vals, err := db.MultiGet(groups[id])
				must(err)
				for j, v := range vals {
					if v == nil {
						t.Fatalf("key %q absent in the shared-block batch", groups[id][j])
					}
				}
				if d := db.Stats().Sub(before); d.BlockReads != 1 {
					t.Fatalf("4 keys of one block (%+v): %d block reads, want 1", id, d.BlockReads)
				}
				return
			}
		}
	}
	t.Fatal("found no 4 keys that read the same one block")
}
