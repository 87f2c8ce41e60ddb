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
	"testing"

	"lsmkv/internal/core"
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
// runs; a seed FuzzDesignChoices finds wrong answers under joins them.
var designSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

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
// answer to a map. The memtable is shrunk to 16 KiB so the history builds
// several levels; the two knobs that only pace maintenance are scaled to
// that size (a drawn compaction rate read in 16 MiB/s units, not bytes/s,
// and the slowdown delay cut 256-fold) so a run takes well under a second.
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
	want := map[string][]byte{}
	db := reopen()
	for op := 0; op < nOps; op++ {
		switch r := rng.Intn(100); {
		case r < 60:
			k, v := key(rng.Intn(nKeys)), value(op)
			must(db.Put(k, v))
			want[string(k)] = v
		case r < 80:
			k := key(rng.Intn(nKeys))
			must(db.Delete(k))
			delete(want, string(k))
		case r < 95:
			var ops []BatchOp
			for _, i := range rng.Perm(nKeys)[:1+rng.Intn(8)] {
				if k := key(i); rng.Intn(4) == 0 {
					ops = append(ops, DeleteOp(k))
					delete(want, string(k))
				} else {
					v := value(op)
					ops = append(ops, PutOp(k, v))
					want[string(k)] = v
				}
			}
			must(db.ApplyBatch(ops, false))
		case r < 98:
			must(db.Flush())
		default:
			must(db.Compact())
		}
	}

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
}
