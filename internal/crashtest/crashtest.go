// Package crashtest is the crash oracle the module's tests share: one
// loop that runs a workload on a filesystem which loses power at a seeded
// operation, reopens the store on the disk image the loss leaves, and
// holds what it reads there to the history of writes the workload issued.
//
// The property is the one every design point owes after a power loss:
// the store recovers a prefix of what was written, and that prefix covers
// everything acknowledged. History.Prefix states it per partition (a
// shard commits alone); History.Window states the per-key form that
// concurrent writers allow. Only test files import this package.
package crashtest

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"lsmkv/internal/vfs"
)

var iters = flag.Int("crash.iters", 25, "scales the iterations of every crash property test (25 = each test's default; make crash raises it)")

// Iters is n, a test's iteration count at the default -crash.iters of 25,
// scaled by the flag; at least 1.
func Iters(n int) int { return max(1, n**iters/25) }

// Tails says which iterations' crash images keep, per file, a random
// prefix of the bytes written since its last sync (a torn write), on top
// of the synced bytes every image keeps.
type Tails int

const (
	Synced    Tails = iota // no iteration: synced bytes only
	Alternate              // odd iterations
	Torn                   // every iteration
)

// Store is a store reopened on a crash image, as the oracle reads it.
type Store interface {
	Get(key []byte) ([]byte, error)
	Scan(lo, hi []byte, fn func(key, value []byte) bool) error
	Close() error
}

// Case is one crash property: a workload, how to reopen what a crash
// left, and the check the reopened store must pass.
type Case struct {
	Seed  int64 // iteration i seeds its crash point, torn tails and Env.Rand with Seed+i
	Iters int   // iterations at the default -crash.iters (see Iters)
	Tails Tails
	// MinWindow is the fewest filesystem operations the dry run's crash
	// window must hold; below 2 it is 2. A window with less in it than
	// the workload is known to do (a flush or a collection that became a
	// no-op) fails the iteration instead of crashing nothing.
	MinWindow int64
	// Parts maps a key to its partition (a shard); nil is one partition.
	Parts func(key string) int
	// Run applies the workload to e.FS, recording into e, and returns at
	// its first failed write, which is how the crash shows.
	Run func(e *Env)
	// Reopen opens the store on a crash image.
	Reopen func(img vfs.FS) (Store, error)
	// Check holds the reopened state to the history; nil is
	// (*History).Prefix.
	Check func(h *History, got map[string]string) error
}

// Env is what a workload runs against: the filesystem to open its store
// on, randomness seeded alike in the dry and the crash run, and the
// history it records into.
type Env struct {
	FS   vfs.FS
	Rand *rand.Rand
	*History

	faulty   *vfs.Faulty
	from, to int64 // the crash window, in filesystem ops; to < 0 is the run's end
	err      error
}

// Inject adds a fault rule to the filesystem.
func (e *Env) Inject(r vfs.Rule) { e.faulty.Inject(r) }

// CrashNow loses power at this instant. A workload that crashes itself
// (say, from inside a commit) names its own crash point, and the oracle
// draws none.
func (e *Env) CrashNow() { e.faulty.CrashNow() }

// CrashAt loses power at the nth filesystem operation from now, a crash
// point the workload names itself (say, to crash at each operation of a
// short run in turn).
func (e *Env) CrashAt(n int64) { e.faulty.CrashAfter(n) }

// WindowStart and WindowEnd bracket the stretch of the run the seeded
// crash point lands in; by default it is the whole run. A window holding
// fewer than Case.MinWindow operations fails the iteration.
func (e *Env) WindowStart() { e.from = e.faulty.OpCount() }

// WindowEnd closes the window WindowStart opened.
func (e *Env) WindowEnd() { e.to = e.faulty.OpCount() }

// Errorf records a property the workload saw break; the iteration fails
// with the first one. Call it from the goroutine that runs Run.
func (e *Env) Errorf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// Check runs c's iterations and fails t at the first violation.
func Check(t testing.TB, c Case) {
	t.Helper()
	for i := range Iters(c.Iters) {
		if err := Run(c, i); err != nil {
			t.Fatalf("seed %d: %v", c.Seed+int64(i), err)
		}
	}
}

// Run runs iteration i of c. A dry run counts the filesystem operations
// of the crash window; the crash run loses power at a seeded one of them
// (or at its end), and the image that leaves is reopened, read by a full
// scan and a Get of every key, and checked against the crash run's
// history. A workload that crashes itself in the dry run draws no crash
// point; any other fails with a window of fewer than c.MinWindow ops.
func Run(c Case, i int) error {
	seed := c.Seed + int64(i)
	rng := rand.New(rand.NewSource(seed))
	dry := c.run(vfs.NewFaulty(vfs.NewMem()), seed)
	if dry.err != nil {
		return fmt.Errorf("dry run: %w", dry.err)
	}
	mem := vfs.NewMem()
	fs := vfs.NewFaulty(mem)
	if to := dry.to; !dry.faulty.Crashed() {
		if to < 0 {
			to = dry.faulty.OpCount()
		}
		if to-dry.from < max(2, c.MinWindow) {
			return fmt.Errorf("empty crash window: the dry run did %d filesystem ops in it, want at least %d", to-dry.from, max(2, c.MinWindow))
		}
		fs.CrashAfter(dry.from + 1 + rng.Int63n(to-dry.from))
	}
	e := c.run(fs, seed)
	fs.CrashNow() // a run that outlived its crash point loses power at its end
	if e.err != nil {
		return e.err
	}
	var tails *rand.Rand
	if c.Tails == Torn || c.Tails == Alternate && i%2 == 1 {
		tails = rng
	}
	db, err := c.Reopen(mem.CrashImage(tails))
	if err != nil {
		return fmt.Errorf("reopen after crash (torn=%v): %w", tails != nil, err)
	}
	got, err := read(db, e.keys())
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		check := c.Check
		if check == nil {
			check = (*History).Prefix
		}
		err = check(e.History, got)
	}
	if err != nil {
		return fmt.Errorf("torn=%v: %w", tails != nil, err)
	}
	return nil
}

func (c Case) run(fs *vfs.Faulty, seed int64) *Env {
	e := &Env{FS: fs, Rand: rand.New(rand.NewSource(seed)), History: &History{parts: c.Parts}, faulty: fs, to: -1}
	c.Run(e)
	return e
}

// read returns every live key of db by a full scan, and fails unless a
// Get of each of keys and of each scanned key agrees with it.
func read(db Store, keys []string) (map[string]string, error) {
	got := map[string]string{}
	if err := db.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		return nil, fmt.Errorf("scan after crash: %w", err)
	}
	for k := range got {
		keys = append(keys, k)
	}
	for _, k := range keys {
		v, err := db.Get([]byte(k))
		if want, ok := got[k]; ok != (err == nil) || ok && string(v) != want {
			return nil, fmt.Errorf("Get(%s) = %.24q, %v after crash, but the scan read %.24q (present %v)", k, v, err, want, ok)
		}
	}
	return got, nil
}

// Write is one key's new state in a history: its value, or its deletion.
type Write struct {
	Key, Value string
	Delete     bool
}

// Put is the write of value to key.
func Put(key, value string) Write { return Write{Key: key, Value: value} }

// Del is the deletion of key.
func Del(key string) Write { return Write{Key: key, Delete: true} }

// Writer is the single-key write surface of a store.
type Writer interface {
	Put(key, value []byte) error
	Delete(key []byte) error
}

// Apply makes w on db.
func Apply(db Writer, w Write) error {
	if w.Delete {
		return db.Delete([]byte(w.Key))
	}
	return db.Put([]byte(w.Key), []byte(w.Value))
}

// RandomWrite draws write i of the random single-key workload: a key of
// k00..k31, deleted one time in five, else given a value unique to i.
func (e *Env) RandomWrite(i int) Write {
	key := fmt.Sprintf("k%02d", e.Rand.Intn(32))
	if e.Rand.Intn(5) == 0 {
		return Del(key)
	}
	return Put(key, fmt.Sprintf("%s#op%04d#%s", key, i, strings.Repeat("x", e.Rand.Intn(64))))
}

// History is the record of the writes a workload issued, in issue order:
// one entry per call and partition, since a partition commits its part of
// a batch alone and atomically, each marked once acknowledged. It is safe
// for concurrent use.
type History struct {
	parts   func(key string) int
	mu      sync.Mutex
	entries []entry
}

type entry struct {
	part   int
	writes []Write
	acked  bool
}

// Op names the entries one Issue recorded.
type Op struct{ lo, hi int }

// Issue records the writes of one call, before the call is made (a
// write the crash interrupts may still be durable).
func (h *History) Issue(ws ...Write) Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	op := Op{lo: len(h.entries)}
	for _, w := range ws {
		p := h.part(w.Key)
		j := op.lo
		for j < len(h.entries) && h.entries[j].part != p {
			j++
		}
		if j == len(h.entries) {
			h.entries = append(h.entries, entry{part: p})
		}
		h.entries[j].writes = append(h.entries[j].writes, w)
	}
	op.hi = len(h.entries)
	return op
}

// Ack marks op acknowledged: durable by the store's promise.
func (h *History) Ack(op Op) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for j := op.lo; j < op.hi; j++ {
		h.entries[j].acked = true
	}
}

// Acked returns how many entries are acknowledged.
func (h *History) Acked() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, en := range h.entries {
		if en.acked {
			n++
		}
	}
	return n
}

// AckAll marks every write issued so far acknowledged, as a successful
// Flush or Close does.
func (h *History) AckAll() { h.Ack(Op{0, len(h.entries)}) }

func (h *History) part(key string) int {
	if h.parts == nil {
		return 0
	}
	return h.parts(key)
}

// keys lists every key the history writes.
func (h *History) keys() []string {
	seen := map[string]bool{}
	var keys []string
	for _, en := range h.entries {
		for _, w := range en.writes {
			if !seen[w.Key] {
				seen[w.Key] = true
				keys = append(keys, w.Key)
			}
		}
	}
	return keys
}

// phantom fails on a recovered key the history never wrote.
func (h *History) phantom(got map[string]string) error {
	written := map[string]bool{}
	for _, k := range h.keys() {
		written[k] = true
	}
	for k, v := range got {
		if !written[k] {
			return fmt.Errorf("phantom key %q=%.24q was never written", k, v)
		}
	}
	return nil
}

// Prefix checks that each partition holds the state after some prefix of
// its entries that covers every acknowledged one: nothing acknowledged is
// lost, no entry is applied in part, and no entry survives that an
// earlier one of its partition did not.
func (h *History) Prefix(got map[string]string) error {
	if err := h.phantom(got); err != nil {
		return err
	}
	byPart := map[int][]entry{}
	for _, en := range h.entries {
		byPart[en.part] = append(byPart[en.part], en)
	}
	states := map[int]map[string]string{}
	for k, v := range got {
		p := h.part(k)
		if states[p] == nil {
			states[p] = map[string]string{}
		}
		states[p][k] = v
	}
	for p, entries := range byPart {
		if err := prefix(entries, states[p]); err != nil {
			if len(byPart) > 1 {
				return fmt.Errorf("partition %d: %w", p, err)
			}
			return err
		}
	}
	return nil
}

// prefix checks one partition. State P is the state after the first P
// entries; per key, the recovered value rules out every state whose last
// write to that key left something else.
func prefix(entries []entry, got map[string]string) error {
	n := len(entries)
	valid := make([]bool, n+1)
	for p := range valid {
		valid[p] = true
	}
	minPrefix := 0
	writes := map[string][]int{} // per key, the entries writing it
	for j, en := range entries {
		if en.acked {
			minPrefix = j + 1
		}
		for _, w := range en.writes {
			if ws := writes[w.Key]; len(ws) == 0 || ws[len(ws)-1] != j {
				writes[w.Key] = append(ws, j)
			}
		}
	}
	for k, js := range writes {
		// The state of k is constant from one entry writing it to the next.
		v, present := got[k]
		at, lo := -1, 0
		for seg := 0; seg <= len(js); seg++ {
			hi := n
			if seg < len(js) {
				hi = js[seg]
			}
			if !leaves(entries, at, k, v, present) {
				for p := lo; p <= hi; p++ {
					valid[p] = false
				}
			}
			if seg < len(js) {
				at, lo = js[seg], js[seg]+1
			}
		}
	}
	first := -1
	for p := 0; p <= n; p++ {
		if valid[p] {
			if p >= minPrefix {
				return nil
			}
			if first < 0 {
				first = p
			}
		}
	}
	if first >= 0 {
		return fmt.Errorf("recovered the state after %d of %d entries, but %d were acknowledged (durability lost)", first, n, minPrefix)
	}
	return fmt.Errorf("recovered state matches no prefix of the %d entries (corruption): %s", n, mismatch(entries, got))
}

// leaves reports whether entry j (-1: none) leaves key k as (v, present).
func leaves(entries []entry, j int, k, v string, present bool) bool {
	if j < 0 {
		return !present
	}
	ws := entries[j].writes
	for i := len(ws) - 1; i >= 0; i-- {
		if ws[i].Key == k {
			return ws[i].Delete == !present && (!present || ws[i].Value == v)
		}
	}
	panic("crashtest: entry does not write its key")
}

// mismatch lists, for a failure message, the first keys whose recovered
// state differs from the final one.
func mismatch(entries []entry, got map[string]string) string {
	final := map[string]*Write{}
	for _, en := range entries {
		for i := range en.writes {
			final[en.writes[i].Key] = &en.writes[i]
		}
	}
	var diffs []string
	for k, w := range final {
		if v, ok := got[k]; ok != !w.Delete || ok && v != w.Value {
			diffs = append(diffs, fmt.Sprintf("%s: got %.24q (present %v), final %.24q (present %v)", k, v, ok, w.Value, !w.Delete))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs[:min(len(diffs), 6)], "; ")
}

// Window checks each key on its own, for writers that run concurrently:
// a key holds what some write issued at or after its last acknowledged
// one left (or, before its first acknowledgement, may be absent), never
// an older state or a value no one wrote. Each key's writes must come
// from one writer at a time.
func (h *History) Window(got map[string]string) error {
	if err := h.phantom(got); err != nil {
		return err
	}
	writes := map[string][]entry{} // per key, its writes as one-write entries
	for _, en := range h.entries {
		for _, w := range en.writes {
			writes[w.Key] = append(writes[w.Key], entry{writes: []Write{w}, acked: en.acked})
		}
	}
	for k, ws := range writes {
		from := -1
		for j, w := range ws {
			if w.acked {
				from = j
			}
		}
		v, present := got[k]
		ok := false
		for j := from; j < len(ws) && !ok; j++ {
			ok = leaves(ws, j, k, v, present)
		}
		if !ok {
			return fmt.Errorf("key %s holds %.24q (present %v), which no write from its last acknowledged one (%d of %d) left",
				k, v, present, from+1, len(ws))
		}
	}
	return nil
}
