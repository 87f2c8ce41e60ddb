package lsmkv

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"lsmkv/internal/core"
	"lsmkv/internal/crashtest"
	"lsmkv/internal/kv"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// sample draws a legal design from the rows of core.Knobs: each public
// knob is left at its default (one time in three) or drawn from its enum
// or booleans, or log-uniformly from its range, capped at 8× its default
// (or its minimum), or, for a row that can be turned
// off, sometimes turned off. A draw Open refuses for a rule across rows
// (K and Z together and below T; partial compaction only with K=1) is
// redrawn, so every result opens.
func sample(seed int64) *Options {
	rng := rand.New(rand.NewSource(seed))
	for {
		var o core.Options
		for i := range core.Knobs {
			k := &core.Knobs[i]
			v := reflect.ValueOf(k.Field(&o)).Elem()
			var x float64
			switch {
			case rng.Intn(3) == 0:
				continue
			case k.Enum != nil:
				x = float64(rng.Intn(len(k.Enum)))
			case v.Kind() == reflect.Bool:
				x = float64(rng.Intn(2))
			case k.Disable && rng.Intn(4) == 0:
				x = -1
			default:
				lo, hi := max(k.Min, k.Default/8), 8*max(k.Default, k.Min)
				x = lo * math.Pow(hi/lo, rng.Float64())
			}
			switch {
			case v.Kind() == reflect.String:
				v.SetString(k.Enum[int(x)])
			case v.Kind() == reflect.Bool:
				v.SetBool(x != 0)
			case v.CanFloat():
				v.SetFloat(x)
			case v.CanUint():
				v.SetUint(uint64(x))
			default:
				v.SetInt(int64(x))
			}
		}
		if rng.Intn(8) == 0 {
			o.DisableCache()
		}
		if rng.Intn(8) == 0 {
			o.DisableFilters()
		}
		if db, err := open(core.Options{Dir: "probe", FS: vfs.NewMem(), Design: o.Design}); err == nil {
			db.Close()
			return &o.Design
		}
	}
}

// designSeeds are the configurations TestDesignChoicesNeverChangeAnswers
// runs; a seed FuzzDesignChoices finds wrong answers under joins them
// (28 and 37 each lost acknowledged writes after a crash).
var designSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 28, 37, 291}

// TestDesignChoicesNeverChangeAnswers: a design choice moves cost, never
// an answer. Each sampled design replays one seeded history and must
// answer every Get, a MultiGet, a full scan and five sub-range scans as a
// map does, before and after reopening.
func TestDesignChoicesNeverChangeAnswers(t *testing.T) {
	for _, seed := range designSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkDesign(t, seed) })
	}
}

// FuzzDesignChoices runs the same check over any seed (make fuzz).
func FuzzDesignChoices(f *testing.F) {
	f.Add(int64(17))
	f.Fuzz(checkDesign)
}

// checkDesign replays seed's history on seed's design and holds every
// answer to a map: each read a concurrent reader makes while the history
// runs (startReader), then every Get, a MultiGet and six scans at rest.
// The memtable is shrunk to 16 KiB so the history builds several levels;
// the two knobs that only pace maintenance are scaled to that size (a
// drawn compaction rate read in 16 MiB/s units, not bytes/s, and the
// slowdown delay cut 256-fold) so a run takes well under a second.
// None of the three moves an answer.
func checkDesign(t *testing.T, seed int64) {
	const nKeys, nOps = 300, 1500
	opts := sample(seed)
	opts.MemtableBytes = 16 << 10
	opts.CompactionMaxBytesPerSec <<= 24
	opts.SlowdownMaxDelay = cmp.Or(opts.SlowdownMaxDelay, core.Defaults().SlowdownMaxDelay) >> 8 // off stays off
	fs := vfs.NewMem()
	reopen := func() *DB {
		db, err := open(core.Options{Dir: "db", FS: fs, Design: *opts})
		if err != nil {
			t.Fatalf("seed %d: open %+v: %v", seed, *opts, err)
		}
		return db
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, *opts, err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
	value := func(op int) []byte {
		n := rng.Intn(16)
		if rng.Intn(3) > 0 {
			n = 16 + rng.Intn(3000)
		}
		return bytes.Repeat([]byte{byte('a' + op%26)}, n)
	}
	steps := designHistory(rng, nOps, nKeys, key, value)
	want := map[string][]byte{}
	db := reopen()
	reader := startReader(db, seed, nKeys, key)
	defer reader.stop() // a write that fails ends the history early
	for _, s := range steps {
		for _, w := range s.writes {
			if w.Kind == kv.KindDelete {
				delete(want, string(w.Key))
			} else {
				want[string(w.Key)] = w.Value
			}
		}
		reader.issue(s.writes)
		must(s.do(db))
		reader.ack()
	}
	must(reader.stop())

	keys := make([][]byte, nKeys+1)
	for i := range keys {
		keys[i] = key(i) // the last is never written
	}
	scans := [][2][]byte{{nil, nil}}
	for range 5 {
		lo := rng.Intn(nKeys)
		scans = append(scans, [2][]byte{key(lo), key(lo + rng.Intn(nKeys-lo))})
	}
	check := func(when string) {
		t.Helper()
		vals, err := db.MultiGet(keys)
		must(err)
		for i, k := range keys {
			w, ok := want[string(k)]
			v, err := db.Get(k)
			if ok && (err != nil || !bytes.Equal(v, w)) || !ok && !errors.Is(err, ErrNotFound) {
				t.Fatalf("seed %d %s: Get(%s) = %d bytes, %v; want %d bytes (present %v)\n%+v", seed, when, k, len(v), err, len(w), ok, *opts)
			}
			if ok != (vals[i] != nil) || !bytes.Equal(vals[i], w) {
				t.Fatalf("seed %d %s: MultiGet[%s] = %d bytes (present %v); want %d bytes (present %v)\n%+v",
					seed, when, k, len(vals[i]), vals[i] != nil, len(w), ok, *opts)
			}
		}
		for _, s := range scans {
			var got, exp []string
			must(db.Scan(s[0], s[1], func(k, v []byte) bool {
				got = append(got, fmt.Sprintf("%s=%d%.1s", k, len(v), v))
				return true
			}))
			for k, v := range want {
				if (s[0] == nil || k >= string(s[0])) && (s[1] == nil || k <= string(s[1])) {
					exp = append(exp, fmt.Sprintf("%s=%d%.1s", k, len(v), v))
				}
			}
			if slices.Sort(exp); !slices.Equal(got, exp) {
				t.Fatalf("seed %d %s: Scan(%s, %s) gave %d pairs, want %d\n%+v", seed, when, s[0], s[1], len(got), len(exp), *opts)
			}
		}
	}
	check("before reopen")
	must(db.Close())
	db = reopen()
	check("after reopen")
	must(db.Close())
	checkDesignCrash(t, seed, opts, steps)
}

// designStep is one op of a design's history: the writes it makes (none
// for a Flush or a Compact) and how it is issued.
type designStep struct {
	writes []BatchOp
	flush  bool
	do     func(db *DB) error
}

// designHistory draws nOps steps over keys key(0) .. key(nKeys-1): 60%
// Puts, 20% Deletes, 15% batches of up to 8 keys, 3% Flushes and 2%
// Compacts.
func designHistory(rng *rand.Rand, nOps, nKeys int, key func(int) []byte, value func(op int) []byte) []designStep {
	steps := make([]designStep, nOps)
	for op := range steps {
		s := &steps[op]
		switch r := rng.Intn(100); {
		case r < 60:
			k, v := key(rng.Intn(nKeys)), value(op)
			s.writes, s.do = []BatchOp{PutOp(k, v)}, func(db *DB) error { return db.Put(k, v) }
		case r < 80:
			k := key(rng.Intn(nKeys))
			s.writes, s.do = []BatchOp{DeleteOp(k)}, func(db *DB) error { return db.Delete(k) }
		case r < 95:
			for _, i := range rng.Perm(nKeys)[:1+rng.Intn(8)] {
				if k := key(i); rng.Intn(4) == 0 {
					s.writes = append(s.writes, DeleteOp(k))
				} else {
					s.writes = append(s.writes, PutOp(k, value(op)))
				}
			}
			writes := s.writes
			s.do = func(db *DB) error { return db.ApplyBatch(writes, false) }
		case r < 98:
			s.flush, s.do = true, (*DB).Flush
		default:
			s.do = (*DB).Compact
		}
	}
	return steps
}

// checkDesignCrash replays the history on a disk that loses power at a
// seeded point and holds what reopens to the crashtest oracle: each
// shard recovers a prefix of its writes that covers every acknowledged
// one. With SyncWAL (and a WAL) a write is acknowledged as it returns;
// otherwise a successful Flush or Close acknowledges all before it.
func checkDesignCrash(t *testing.T, seed int64, opts *Options, steps []designStep) {
	var parts func(string) int
	if n := opts.Shards; n > 1 {
		parts = func(k string) int { return shard.Of([]byte(k), n) }
	}
	openOn := func(fs vfs.FS) (*DB, error) { return open(core.Options{Dir: "db", FS: fs, Design: *opts}) }
	c := crashtest.Case{Seed: seed, Tails: crashtest.Torn, Parts: parts,
		Reopen: func(img vfs.FS) (crashtest.Store, error) {
			db, err := openOn(img)
			if err != nil {
				return nil, err
			}
			return db, nil
		},
		Run: func(e *crashtest.Env) {
			db, err := openOn(e.FS)
			if err != nil {
				return
			}
			for _, s := range steps {
				var op crashtest.Op
				if s.writes != nil {
					ws := make([]crashtest.Write, len(s.writes))
					for i, w := range s.writes {
						ws[i] = crashtest.Write{Key: string(w.Key), Value: string(w.Value), Delete: w.Kind == kv.KindDelete}
					}
					op = e.Issue(ws...)
				}
				if s.do(db) != nil {
					db.Close() // ignore errors: the FS is frozen
					return
				}
				if opts.SyncWAL && !opts.DisableWAL {
					e.Ack(op)
				} else if s.flush {
					e.AckAll()
				}
			}
			if db.Close() == nil {
				e.AckAll()
			}
		},
	}
	for i := range crashtest.Iters(1) {
		if err := crashtest.Run(c, i); err != nil {
			t.Fatalf("seed %d, crash %d (%+v): %v", seed, i, *opts, err)
		}
	}
}

// liveReader is checkDesign's oracle for reads that overlap the work: one
// goroutine issues Gets and MultiGets on random keys while the history
// runs. The writer records each op's writes before issuing it and counts
// the op once acknowledged, so a read that starts after from acknowledged
// ops and returns when to ops have been issued must see its key as it
// stood after some op in [from, to]. (The upper bound counts issued, not
// acknowledged, ops: a write is visible before its caller hears back.)
type liveReader struct {
	mu            sync.Mutex
	history       map[string][]keyState // per key, in op order
	issued, acked atomic.Int64
	quit, done    chan struct{}
	stopOnce      sync.Once
	err           error // the first read no state in its window explains
}

// keyState is a key's state after op.
type keyState struct {
	op      int64
	value   []byte
	present bool
}

// startReader starts the reader on db's keys key(0) .. key(nKeys-1).
func startReader(db *DB, seed int64, nKeys int, key func(int) []byte) *liveReader {
	r := &liveReader{history: map[string][]keyState{}, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		rng := rand.New(rand.NewSource(^seed))
		for {
			select {
			case <-r.quit:
				return
			default:
			}
			keys := make([][]byte, 1+rng.Intn(16))
			for i := range keys {
				keys[i] = key(rng.Intn(nKeys))
			}
			from := r.acked.Load()
			vals, present, err := readKeys(db, keys)
			to := r.issued.Load()
			if err != nil {
				r.err = fmt.Errorf("read while ops %d..%d ran: %v", from, to, err)
				return
			}
			for i, k := range keys {
				if !r.explains(k, from, to, vals[i], present[i]) {
					r.err = fmt.Errorf("read of %d keys while ops %d..%d ran: %s = %d bytes (present %v), which no op in that window left",
						len(keys), from, to, k, len(vals[i]), present[i])
					return
				}
			}
		}
	}()
	return r
}

// readKeys reads one key with Get, several with one MultiGet.
func readKeys(db *DB, keys [][]byte) (vals [][]byte, present []bool, err error) {
	if len(keys) == 1 {
		v, err := db.Get(keys[0])
		if errors.Is(err, ErrNotFound) {
			return [][]byte{nil}, []bool{false}, nil
		}
		return [][]byte{v}, []bool{err == nil}, err
	}
	vals, err = db.MultiGet(keys)
	for _, v := range vals {
		present = append(present, v != nil)
	}
	return vals, present, err
}

// issue records the writes of the next op, before the op is issued.
func (r *liveReader) issue(writes []BatchOp) {
	op := r.issued.Load() + 1
	r.mu.Lock()
	for _, w := range writes {
		k := string(w.Key)
		r.history[k] = append(r.history[k], keyState{op, w.Value, w.Kind != kv.KindDelete})
	}
	r.mu.Unlock()
	r.issued.Store(op)
}

// ack counts the last issued op as acknowledged.
func (r *liveReader) ack() { r.acked.Store(r.issued.Load()) }

// stop ends the reader and returns the first read it could not explain.
func (r *liveReader) stop() error {
	r.stopOnce.Do(func() { close(r.quit) })
	<-r.done
	return r.err
}

// explains reports whether key held (value, present) after some op in
// [from, to]: the state from left, or one a later op in the window wrote.
func (r *liveReader) explains(key []byte, from, to int64, value []byte, present bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	states := r.history[string(key)]
	i := sort.Search(len(states), func(i int) bool { return states[i].op > from })
	if i == 0 {
		states = append([]keyState{{}}, states...) // absent before its first write
		i = 1
	}
	for _, s := range states[i-1:] {
		if s.op > to {
			break
		}
		if s.present == present && (!present || bytes.Equal(s.value, value)) {
			return true
		}
	}
	return false
}
