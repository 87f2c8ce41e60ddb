package shard

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lsmkv/internal/core"
	"lsmkv/internal/vfs"
)

// crashIters mirrors the core crash suite's knob; `make crash` raises it.
var crashIters = flag.Int("shardcrash.iters", 15, "iterations per sharded crash-recovery property test")

// ---------------------------------------------------------------------------
// Harness
//
// The sharded variant of the core crash harness: run a randomized workload
// against an N-shard database on an in-memory filesystem, freeze the
// filesystem at a random operation index, materialize the crash image
// (synced data only, optionally torn tails), reopen, and verify — with the
// invariant applied PER SHARD. Each shard has its own WAL and flush
// pipeline, so each shard's recovered state must be prefix-consistent with
// the subsequence of operations routed to it; with WAL sync on commit the
// prefix must cover every acknowledged operation.
// ---------------------------------------------------------------------------

type scOp struct {
	key    string
	value  string
	delete bool
}

func crashShardOpts(fs vfs.FS, walSync bool) core.Options {
	o := testOpts(fs, "db")
	o.SyncWAL = walSync
	return o
}

func scKey(i int) string { return fmt.Sprintf("k%02d", i) }

// runShardedCrashWorkload applies nOps randomized put/delete ops to an
// n-shard DB, stopping at the first error. minPrefix counts acknowledged
// ops (WAL-synced mode: durable on return).
func runShardedCrashWorkload(fs vfs.FS, rng *rand.Rand, nOps, n int, walSync bool) (issued []scOp, minPrefix int) {
	db, err := Open(crashShardOpts(fs, walSync), n)
	if err != nil {
		return nil, 0
	}
	defer db.Close() // ignore errors: the FS may be frozen

	for i := 0; i < nOps; i++ {
		op := scOp{key: scKey(rng.Intn(32))}
		if rng.Intn(5) == 0 {
			op.delete = true
		} else {
			pad := strings.Repeat("x", rng.Intn(64))
			op.value = fmt.Sprintf("%s#op%04d#%s", op.key, i, pad)
		}
		issued = append(issued, op)
		if op.delete {
			err = db.Delete([]byte(op.key))
		} else {
			err = db.Put([]byte(op.key), []byte(op.value))
		}
		if err != nil {
			// Durable-but-unacknowledged is allowed: the failed op stays in
			// the history as an optional final op.
			return issued, minPrefix
		}
		if walSync {
			minPrefix = len(issued)
		}
	}
	return issued, minPrefix
}

// recoveredShardedState adopts whatever shard layout the image holds and
// returns every surviving key. A crash must never leave an unopenable
// store.
func recoveredShardedState(img vfs.FS) (*DB, map[string]string, error) {
	db, err := Open(crashShardOpts(img, false), 0)
	if err != nil {
		return nil, nil, fmt.Errorf("reopen after crash: %w", err)
	}
	state := map[string]string{}
	err = db.Scan(nil, nil, func(k, v []byte) bool {
		state[string(k)] = string(v)
		return true
	})
	if err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("scan after crash: %w", err)
	}
	return db, state, nil
}

// checkShardPrefix verifies that recovered (one shard's keys only) equals
// the state after some prefix of issued (that shard's op subsequence) of
// length >= minPrefix. Same segment-walking checker as the core suite.
func checkShardPrefix(issued []scOp, recovered map[string]string, minPrefix int) error {
	n := len(issued)
	valid := make([]bool, n+1)
	for p := range valid {
		valid[p] = true
	}
	opsByKey := map[string][]int{}
	for i, op := range issued {
		opsByKey[op.key] = append(opsByKey[op.key], i)
	}
	keys := map[string]bool{}
	for k := range opsByKey {
		keys[k] = true
	}
	for k := range recovered {
		keys[k] = true
	}

	for k := range keys {
		rv, present := recovered[k]
		idxs := opsByKey[k]
		if len(idxs) == 0 {
			return fmt.Errorf("phantom key %q=%q was never written", k, rv)
		}
		matches := func(opIdx int) bool {
			if opIdx < 0 || issued[opIdx].delete {
				return !present
			}
			return present && rv == issued[opIdx].value
		}
		cur := -1
		seg := 0
		for j := 0; j <= len(idxs); j++ {
			end := n
			if j < len(idxs) {
				end = idxs[j]
			}
			if !matches(cur) {
				for p := seg; p <= end; p++ {
					valid[p] = false
				}
			}
			if j < len(idxs) {
				cur = idxs[j]
				seg = end + 1
			}
		}
	}

	firstValid := -1
	for p := 0; p <= n; p++ {
		if valid[p] {
			if p >= minPrefix {
				return nil
			}
			if firstValid < 0 {
				firstValid = p
			}
		}
	}
	if firstValid >= 0 {
		return fmt.Errorf("recovered shard state matches prefix %d but %d acknowledged ops require >= %d (durability lost)",
			firstValid, minPrefix, minPrefix)
	}
	var have []string
	for k, v := range recovered {
		have = append(have, fmt.Sprintf("%s=%q", k, v))
	}
	sort.Strings(have)
	return fmt.Errorf("recovered shard state matches no prefix of its ops (corruption): %s", strings.Join(have, "; "))
}

// partitionByShard splits the global op history and the recovered state
// into per-shard views using the router — exactly what the engine did.
func partitionByShard(issued []scOp, recovered map[string]string, minPrefix, n int) (ops [][]scOp, states []map[string]string, mins []int) {
	ops = make([][]scOp, n)
	states = make([]map[string]string, n)
	mins = make([]int, n)
	for i := range states {
		states[i] = map[string]string{}
	}
	for i, op := range issued {
		s := Of([]byte(op.key), n)
		ops[s] = append(ops[s], op)
		if i < minPrefix {
			mins[s]++
		}
	}
	for k, v := range recovered {
		states[Of([]byte(k), n)][k] = v
	}
	return ops, states, mins
}

// shardedCrashIteration runs one write→crash→reopen→verify cycle against
// nShards shards with per-shard prefix checking.
func shardedCrashIteration(seed int64, nShards int, torn bool) error {
	rng := rand.New(rand.NewSource(seed))
	const nOps = 250

	// Dry run to size the crash window.
	dry := vfs.NewFaulty(vfs.NewMem())
	runShardedCrashWorkload(dry, rand.New(rand.NewSource(seed)), nOps, nShards, true)
	totalOps := dry.OpCount()
	if totalOps < 2 {
		return fmt.Errorf("dry run performed no filesystem ops")
	}

	mem := vfs.NewMem()
	fs := vfs.NewFaulty(mem)
	fs.CrashAfter(1 + rng.Int63n(totalOps))
	issued, minPrefix := runShardedCrashWorkload(fs, rand.New(rand.NewSource(seed)), nOps, nShards, true)
	fs.CrashNow()

	var tornRng *rand.Rand
	if torn {
		tornRng = rng
	}
	db, recovered, err := recoveredShardedState(mem.CrashImage(tornRng))
	if err != nil {
		return err
	}
	defer db.Close()
	if got := db.NumShards(); got != nShards {
		return fmt.Errorf("recovered with %d shards, want %d", got, nShards)
	}
	ops, states, mins := partitionByShard(issued, recovered, minPrefix, nShards)
	for s := 0; s < nShards; s++ {
		if err := checkShardPrefix(ops[s], states[s], mins[s]); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// TestShardedCrashRecoverySynced: with WAL sync on commit, every
// acknowledged write survives any crash point on every shard — each
// shard's WAL recovers independently, including with torn tails.
func TestShardedCrashRecoverySynced(t *testing.T) {
	for i := 0; i < *crashIters; i++ {
		seed := int64(2000 + i)
		torn := i%2 == 1
		if err := shardedCrashIteration(seed, 3, torn); err != nil {
			t.Fatalf("seed %d (torn=%v): %v", seed, torn, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Crash mid-batch spanning shards (per-shard atomicity)
// ---------------------------------------------------------------------------

// batchKeys builds batch b's key set: unique keys, guaranteed to span at
// least two shards of n so the fan-out path is always exercised.
func batchKeys(b, n int) []string {
	keys := []string{}
	shards := map[int]bool{}
	for c := 0; len(keys) < 6 || len(shards) < 2; c++ {
		k := fmt.Sprintf("b%03d-%02d", b, c)
		keys = append(keys, k)
		shards[Of([]byte(k), n)] = true
		if c > 64 {
			panic("cannot span two shards")
		}
	}
	return keys
}

// TestCrashMidBatchSpanningShards: sequential synced ApplyBatch calls,
// each spanning >= 2 shards with batch-unique keys, crashed at a random
// filesystem operation. After recovery every acknowledged batch is fully
// visible on all its shards, and the in-flight batch is atomic per shard:
// each shard holds all of its sub-batch or none of it.
func TestCrashMidBatchSpanningShards(t *testing.T) {
	const nShards = 4
	const nBatches = 60
	value := func(b int, k string) string { return fmt.Sprintf("%s#batch%03d", k, b) }

	run := func(fs vfs.FS) (acked int) {
		db, err := Open(crashShardOpts(fs, true), nShards)
		if err != nil {
			return 0
		}
		defer db.Close()
		for b := 0; b < nBatches; b++ {
			var ops []core.BatchOp
			for _, k := range batchKeys(b, nShards) {
				ops = append(ops, core.PutOp([]byte(k), []byte(value(b, k))))
			}
			if err := db.ApplyBatch(ops, true); err != nil {
				return acked
			}
			acked++
		}
		return acked
	}

	for i := 0; i < *crashIters; i++ {
		seed := int64(3000 + i)
		rng := rand.New(rand.NewSource(seed))

		dry := vfs.NewFaulty(vfs.NewMem())
		run(dry)
		totalOps := dry.OpCount()

		mem := vfs.NewMem()
		fs := vfs.NewFaulty(mem)
		fs.CrashAfter(1 + rng.Int63n(totalOps))
		acked := run(fs)
		fs.CrashNow()

		var tornRng *rand.Rand
		if i%2 == 1 {
			tornRng = rng
		}
		db, recovered, err := recoveredShardedState(mem.CrashImage(tornRng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		for b := 0; b < nBatches; b++ {
			keys := batchKeys(b, nShards)
			// Per-shard sub-batch presence.
			present := map[int]int{}
			total := map[int]int{}
			for _, k := range keys {
				s := Of([]byte(k), nShards)
				total[s]++
				if v, ok := recovered[k]; ok {
					if v != value(b, k) {
						t.Fatalf("seed %d: key %s recovered %q, want %q", seed, k, v, value(b, k))
					}
					present[s]++
				}
			}
			for s, tot := range total {
				if present[s] != 0 && present[s] != tot {
					t.Fatalf("seed %d: batch %d shard %d torn: %d of %d keys survived",
						seed, b, s, present[s], tot)
				}
				if b < acked && present[s] != tot {
					t.Fatalf("seed %d: acknowledged batch %d lost its shard-%d sub-batch (%d of %d keys)",
						seed, b, s, present[s], tot)
				}
			}
		}
		// No keys beyond the batch universe.
		for k := range recovered {
			if !strings.HasPrefix(k, "b") {
				t.Fatalf("seed %d: phantom key %q", seed, k)
			}
		}
		db.Close()
	}
}

// ---------------------------------------------------------------------------
// Crash mid-flush on one shard
// ---------------------------------------------------------------------------

// TestCrashMidFlushOneShard: with WAL sync on, a crash landing inside one
// shard's flush must lose nothing — that shard's WAL replays the memtable
// and the other shards never notice. The crash window is measured with a
// dry run so the crash point is guaranteed to land between the start and
// end of shard 1's flush.
func TestCrashMidFlushOneShard(t *testing.T) {
	const nShards = 3
	const nKeys = 150
	opts := func(fs vfs.FS) core.Options {
		o := crashShardOpts(fs, true)
		// Big memtable: no background flushes during fill, so the dry-run
		// op count is deterministic and the crash window brackets exactly
		// the explicit Flush below.
		o.MemtableBytes = 1 << 20
		return o
	}
	fill := func(db *DB) error {
		for i := 0; i < nKeys; i++ {
			if err := db.Put(tkey(i), tval(i)); err != nil {
				return err
			}
		}
		return nil
	}

	// Dry run: measure the op window of shard 1's flush.
	dryFS := vfs.NewFaulty(vfs.NewMem())
	dryDB, err := Open(opts(dryFS), nShards)
	if err != nil {
		t.Fatal(err)
	}
	if err := fill(dryDB); err != nil {
		t.Fatal(err)
	}
	flushStart := dryFS.OpCount()
	if err := dryDB.engines[1].Flush(); err != nil {
		t.Fatal(err)
	}
	flushEnd := dryFS.OpCount()
	dryDB.Close()
	if flushEnd-flushStart < 2 {
		t.Fatalf("flush window too small to crash inside: [%d, %d]", flushStart, flushEnd)
	}

	for i := 0; i < *crashIters; i++ {
		seed := int64(4000 + i)
		rng := rand.New(rand.NewSource(seed))

		mem := vfs.NewMem()
		fs := vfs.NewFaulty(mem)
		db, err := Open(opts(fs), nShards)
		if err != nil {
			t.Fatal(err)
		}
		if err := fill(db); err != nil {
			t.Fatalf("seed %d: fill: %v", seed, err)
		}
		fs.CrashAfter(flushStart + 1 + rng.Int63n(flushEnd-flushStart))
		db.engines[1].Flush() // expected to fail partway — the crash point is inside
		fs.CrashNow()
		db.Close()

		var tornRng *rand.Rand
		if i%2 == 1 {
			tornRng = rng
		}
		rdb, recovered, err := recoveredShardedState(mem.CrashImage(tornRng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < nKeys; i++ {
			if v, ok := recovered[string(tkey(i))]; !ok || v != string(tval(i)) {
				t.Fatalf("seed %d: key %s lost to a mid-flush crash (got %q, present=%v; shard %d)",
					seed, tkey(i), v, ok, Of(tkey(i), nShards))
			}
		}
		if len(recovered) != nKeys {
			t.Fatalf("seed %d: %d keys recovered, want %d", seed, len(recovered), nKeys)
		}
		rdb.Close()
	}
}
