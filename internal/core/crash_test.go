package core

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lsmkv/internal/vfs"
)

// crashIters controls how many seeded iterations each crash-recovery
// property test runs. `make crash` raises it to 100.
var crashIters = flag.Int("crash.iters", 25, "iterations per crash-recovery property test")

// ---------------------------------------------------------------------------
// Harness
//
// Each iteration: run a randomized workload against a DB on an in-memory
// filesystem, freeze the filesystem at a random operation index (a
// simulated power loss), materialize the disk image a crash would leave
// (synced data only, optionally with torn tails), reopen the DB on that
// image, and check the durability invariant.
//
// The invariant is prefix consistency: because the engine has a single
// WAL writer and flushes syncs in dependency order, the recovered state
// must equal the state after some prefix of the issued operation
// sequence. The sync mode dictates how long that prefix must be:
// WAL-sync-on-commit requires it to cover every acknowledged operation;
// relaxed sync only requires it to cover the last successful Flush
// barrier.
// ---------------------------------------------------------------------------

// crashOp is one issued workload operation. Values are unique per
// operation, so a recovered value identifies exactly which write produced
// it.
type crashOp struct {
	key    string
	value  string // empty = delete
	delete bool
}

type crashResult struct {
	issued    []crashOp
	minPrefix int // recovered state must extend at least this many ops
}

func crashDBOpts(fs vfs.FS, walSync bool) Options {
	o := Options{
		Dir: "db", FS: fs, L0CompactionTrigger: 2, BaseBytes: 8 << 10,
		Design: Design{
			MemtableBytes: 4 << 10, // tiny: a few hundred ops exercise flush + compaction
			SizeRatio:     4, MaxLevels: 4, BlockSize: 512, SyncWAL: walSync,
		},
	}
	o.DisableCache()
	return o
}

func crashKey(i int) string { return fmt.Sprintf("k%02d", i) }

// runCrashWorkload opens a DB on fs and applies nOps randomized
// put/delete operations (plus one mid-workload Flush barrier in relaxed
// mode), stopping at the first error — which is how a crashed filesystem
// surfaces. It reports the issued ops and the minimum durable prefix.
//
// crashAtCommit > 0 freezes the filesystem from inside that commit, in
// its commit hook: after the record's WAL append (and fsync, when synced)
// and before its entries are inserted and the watermark published — a
// point no filesystem-operation count can name.
func runCrashWorkload(fs *vfs.Faulty, rng *rand.Rand, nOps int, walSync bool, crashAtCommit int) crashResult {
	res := crashResult{}
	db, err := Open(crashDBOpts(fs, walSync))
	if err != nil {
		return res
	}
	defer db.Close() // ignore errors: the FS may be frozen
	if crashAtCommit > 0 {
		commits := 0
		db.SetCommitHook(func(uint64, int, []byte) {
			if commits++; commits == crashAtCommit {
				fs.CrashNow()
			}
		})
	}

	for i := 0; i < nOps; i++ {
		op := crashOp{key: crashKey(rng.Intn(32))}
		if rng.Intn(5) == 0 {
			op.delete = true
		} else {
			pad := strings.Repeat("x", rng.Intn(64))
			op.value = fmt.Sprintf("%s#op%04d#%s", op.key, i, pad)
		}
		res.issued = append(res.issued, op)
		if op.delete {
			err = db.Delete([]byte(op.key))
		} else {
			err = db.Put([]byte(op.key), []byte(op.value))
		}
		if err != nil {
			// The op that surfaced the crash stays in the history: its WAL
			// record may have become durable before a later filesystem op
			// failed (durable but unacknowledged). It is an optional final
			// op — minPrefix is never advanced past it.
			return res
		}
		if walSync {
			// Acknowledged with WAL sync on: durable the moment Put returns.
			res.minPrefix = len(res.issued)
		} else if i == nOps/2 {
			// Relaxed mode: one explicit barrier. Flush success makes
			// everything issued so far durable (synced tables + manifest).
			if db.Flush() == nil {
				res.minPrefix = len(res.issued)
			}
		}
	}
	return res
}

// recoveredState reopens the DB on the post-crash image and returns every
// surviving key/value. Any open or scan failure is a verification failure
// (a crash must never leave an unopenable store).
func recoveredState(img vfs.FS) (map[string]string, error) {
	db, err := Open(crashDBOpts(img, false))
	if err != nil {
		return nil, fmt.Errorf("reopen after crash: %w", err)
	}
	defer db.Close()
	state := map[string]string{}
	err = db.Scan([]byte("k"), []byte("l"), func(k, v []byte) bool {
		state[string(k)] = string(v)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("scan after crash: %w", err)
	}
	return state, nil
}

// checkPrefixConsistency verifies that recovered equals the state after
// some prefix of issued with length >= minPrefix. Prefix p means "the
// first p operations applied".
func checkPrefixConsistency(issued []crashOp, recovered map[string]string, minPrefix int) error {
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
		// matches reports whether the recovered value of k equals the
		// state produced by op opIdx (-1 = never written yet).
		matches := func(opIdx int) bool {
			if opIdx < 0 {
				return !present
			}
			if issued[opIdx].delete {
				return !present
			}
			return present && rv == issued[opIdx].value
		}
		// The state of k at prefix p is the last op on k with index < p.
		// Walk the segments of constant state and clear mismatches.
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

	var firstValid = -1
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
		return fmt.Errorf("recovered state matches prefix %d but %d acknowledged/flushed ops require >= %d (durability lost)",
			firstValid, minPrefix, minPrefix)
	}
	return fmt.Errorf("recovered state matches no prefix of the issued ops (corruption): %s",
		describeMismatch(issued, recovered))
}

// describeMismatch summarizes recovered-vs-final-state differences for
// failure messages.
func describeMismatch(issued []crashOp, recovered map[string]string) string {
	final := map[string]string{}
	for _, op := range issued {
		if op.delete {
			delete(final, op.key)
		} else {
			final[op.key] = op.value
		}
	}
	var diffs []string
	for k, v := range recovered {
		if fv, ok := final[k]; !ok || fv != v {
			diffs = append(diffs, fmt.Sprintf("%s: got %q final %q", k, v, final[k]))
		}
	}
	for k, v := range final {
		if _, ok := recovered[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: missing, final %q", k, v))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 6 {
		diffs = diffs[:6]
	}
	return strings.Join(diffs, "; ")
}

// crashIteration runs one full write→crash→reopen→verify cycle. faults,
// when non-nil, mutates the Faulty wrapper before the workload starts
// (used by the teeth test to drop WAL syncs).
func crashIteration(seed int64, walSync, torn bool, faults func(*vfs.Faulty)) error {
	rng := rand.New(rand.NewSource(seed))
	const nOps = 250

	// Dry run: measure how many FS operations a full workload performs,
	// so the crash point lands inside the run.
	dry := vfs.NewFaulty(vfs.NewMem())
	runCrashWorkload(dry, rand.New(rand.NewSource(seed)), nOps, walSync, 0)
	totalOps := dry.OpCount()
	if totalOps < 2 {
		return fmt.Errorf("dry run performed no filesystem ops")
	}

	// Crash run.
	mem := vfs.NewMem()
	fs := vfs.NewFaulty(mem)
	if faults != nil {
		faults(fs)
	}
	fs.CrashAfter(1 + rng.Int63n(totalOps))
	res := runCrashWorkload(fs, rand.New(rand.NewSource(seed)), nOps, walSync, 0)
	fs.CrashNow() // a run that outlived its crash point crashes at the end
	return verifyCrashImage(mem, res, rng, torn)
}

// verifyCrashImage materializes the disk a crash left (torn tails drawn
// from rng when torn), reopens on it and checks the recovered state
// against the issued history.
func verifyCrashImage(mem *vfs.Mem, res crashResult, rng *rand.Rand, torn bool) error {
	if !torn {
		rng = nil
	}
	recovered, err := recoveredState(mem.CrashImage(rng))
	if err != nil {
		return err
	}
	return checkPrefixConsistency(res.issued, recovered, res.minPrefix)
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

// TestCrashRecoverySynced: with WAL sync on commit, every acknowledged
// write survives any crash point, including torn tails.
func TestCrashRecoverySynced(t *testing.T) {
	for i := 0; i < *crashIters; i++ {
		seed := int64(1000 + i)
		torn := i%2 == 1
		if err := crashIteration(seed, true, torn, nil); err != nil {
			t.Fatalf("seed %d (torn=%v): %v", seed, torn, err)
		}
	}
}

// TestCrashRecoveryRelaxed: without per-commit syncs the engine only
// promises prefix consistency, plus durability up to the last successful
// Flush.
func TestCrashRecoveryRelaxed(t *testing.T) {
	for i := 0; i < *crashIters; i++ {
		seed := int64(5000 + i)
		torn := i%2 == 0
		if err := crashIteration(seed, false, torn, nil); err != nil {
			t.Fatalf("seed %d (torn=%v): %v", seed, torn, err)
		}
	}
}

// TestCrashBetweenSyncAndPublish: power fails inside a commit, between
// the WAL fsync and the watermark — the stretch the commit pipeline runs
// without db.mu. Synced: that write is then acknowledged (nothing after
// the fsync can fail), so it must be recovered. Relaxed: it and its
// successors may or may not be, but what is recovered is a prefix, never
// history with a hole.
func TestCrashBetweenSyncAndPublish(t *testing.T) {
	const nOps = 250
	for i := 0; i < *crashIters; i++ {
		seed := int64(7000 + i)
		walSync, torn := i%2 == 0, i%4 >= 2
		rng := rand.New(rand.NewSource(seed))
		mem := vfs.NewMem()
		fs := vfs.NewFaulty(mem)
		at := 1 + rng.Intn(nOps)
		res := runCrashWorkload(fs, rand.New(rand.NewSource(seed)), nOps, walSync, at)
		if walSync && res.minPrefix < at {
			t.Fatalf("seed %d: commit %d was synced before the crash, yet only %d writes were acknowledged", seed, at, res.minPrefix)
		}
		if err := verifyCrashImage(mem, res, rng, torn); err != nil {
			t.Fatalf("seed %d (sync=%v torn=%v, crash in commit %d): %v", seed, walSync, torn, at, err)
		}
	}
}

// TestCrashRotatedWALIsDurable: in relaxed mode a log is synced when it
// is rotated out, before its successor holds a record. Otherwise a crash
// can cut the old log short on a record boundary — indistinguishable
// from a complete log — and replay would carry on into the successor,
// recovering history with a hole (TestCrashRecoveryRelaxed seeds 5062 and
// 5080 hit that about once in ten runs of a hundred seeds). Flushes are
// made to fail so the frozen memtable's log stays the only copy.
func TestCrashRotatedWALIsDurable(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewFaulty(mem)
	fs.Inject(vfs.Rule{Op: vfs.OpCreate, Path: ".sst", Repeat: true})
	db, err := Open(crashDBOpts(fs, false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(crashKey(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db.commitMu.Lock()
	err = db.freezeMem()
	db.commitMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := recoveredState(mem.CrashImage(nil)) // synced bytes only
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 20 {
		t.Fatalf("recovered %d of the 20 keys logged before the rotation", len(recovered))
	}
}

// TestCrashHarnessHasTeeth: if the WAL lies about durability (syncs
// silently dropped), the synced-mode invariant MUST be violated for some
// seed — otherwise the harness is vacuous.
func TestCrashHarnessHasTeeth(t *testing.T) {
	dropWALSyncs := func(fs *vfs.Faulty) {
		fs.Inject(vfs.Rule{Op: vfs.OpSync, Path: ".wal", Drop: true, Repeat: true})
	}
	iters := *crashIters
	if iters < 20 {
		iters = 20
	}
	for i := 0; i < iters; i++ {
		seed := int64(9000 + i)
		if err := crashIteration(seed, true, false, dropWALSyncs); err != nil {
			t.Logf("violation detected as expected (seed %d): %v", seed, err)
			return
		}
	}
	t.Fatalf("dropped WAL syncs never violated the durability invariant in %d runs: the harness has no teeth", iters)
}

// TestCrashCheckerRejectsGarbage pins the checker itself: states that are
// not a prefix of history must be rejected.
func TestCrashCheckerRejectsGarbage(t *testing.T) {
	issued := []crashOp{
		{key: "k00", value: "k00#op0000#"},
		{key: "k01", value: "k01#op0001#"},
		{key: "k00", value: "k00#op0002#"},
		{key: "k01", delete: true},
	}
	ok := func(rec map[string]string, min int) error {
		return checkPrefixConsistency(issued, rec, min)
	}
	// Full state.
	if err := ok(map[string]string{"k00": "k00#op0002#"}, 4); err != nil {
		t.Errorf("full state rejected: %v", err)
	}
	// Prefix 2.
	if err := ok(map[string]string{"k00": "k00#op0000#", "k01": "k01#op0001#"}, 0); err != nil {
		t.Errorf("prefix 2 rejected: %v", err)
	}
	// Prefix 2 but all four ops acknowledged -> durability loss.
	if err := ok(map[string]string{"k00": "k00#op0000#", "k01": "k01#op0001#"}, 4); err == nil {
		t.Error("lost acknowledged ops accepted")
	}
	// Torn garbage value.
	if err := ok(map[string]string{"k00": "k00#op00"}, 0); err == nil {
		t.Error("torn value accepted")
	}
	// Phantom key.
	if err := ok(map[string]string{"zz": "boo"}, 0); err == nil {
		t.Error("phantom key accepted")
	}
	// Mixed prefixes (k00 new, k01 old-but-deleted-later inconsistency).
	if err := ok(map[string]string{"k00": "k00#op0002#", "k01": "k01#op0001#"}, 0); err != nil {
		// k00 at op2 requires prefix >= 3; k01 present requires prefix < 4.
		// Prefix 3 satisfies both, so this one is actually consistent.
		t.Errorf("prefix 3 rejected: %v", err)
	}
	// k00 old value with k01 deleted: k00 at op0 requires prefix < 3,
	// k01 absent requires prefix < 2 or prefix 4. No prefix fits... but
	// prefix 0/1 has k01 absent AND k00 at op0 needs prefix >= 1: prefix
	// 1 works. Pin a genuinely impossible combination instead: k00 at
	// op0 (prefix in [1,2]) with k01 deleted-by-op3 (prefix 4).
	if err := ok(map[string]string{"k00": "k00#op0000#", "k01": "k01#xxx"}, 0); err == nil {
		t.Error("impossible combination accepted")
	}
}

// TestCrashRecoveryEndOfRun: a crash exactly at clean-shutdown time loses
// nothing even in relaxed mode (Close flushes and syncs).
func TestCrashRecoveryEndOfRun(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewFaulty(mem)
	res := runCrashWorkload(fs, rand.New(rand.NewSource(42)), 200, false, 0)
	if len(res.issued) != 200 {
		t.Fatalf("workload stopped early: %d ops", len(res.issued))
	}
	fs.CrashNow()
	recovered, err := recoveredState(mem.CrashImage(nil))
	if err != nil {
		t.Fatal(err)
	}
	// After a clean Close everything is durable: the only valid prefix is
	// the full history.
	if err := checkPrefixConsistency(res.issued, recovered, len(res.issued)); err != nil {
		t.Fatal(err)
	}
}
