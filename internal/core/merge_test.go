package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"lsmkv/internal/kv"
	"lsmkv/internal/memtable"
	"lsmkv/internal/vfs"
)

// memIter builds a memtable iterator over the given (key, seq) pairs.
func memIter(pairs ...[2]any) kv.Iterator {
	m := memtable.New()
	for _, p := range pairs {
		m.Add(kv.Entry{
			Key:   kv.MakeInternalKey([]byte(p[0].(string)), kv.SeqNum(p[1].(int)), kv.KindSet),
			Value: []byte(fmt.Sprintf("%s@%d", p[0], p[1])),
		})
	}
	return m.NewIterator()
}

func TestMergingIterInterleaves(t *testing.T) {
	a := memIter([2]any{"a", 1}, [2]any{"c", 3}, [2]any{"e", 5})
	b := memIter([2]any{"b", 2}, [2]any{"d", 4})
	m := newMergingIter([]kv.Iterator{a, b})
	defer m.Close()
	var got []string
	for ok := m.First(); ok; ok = m.Next() {
		got = append(got, string(m.Key().UserKey))
	}
	want := []string{"a", "b", "c", "d", "e"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMergingIterVersionOrderWithinKey(t *testing.T) {
	// Two sources hold different versions of the same user key; the merge
	// must surface the newer (higher seq) first.
	a := memIter([2]any{"k", 5})
	b := memIter([2]any{"k", 9})
	m := newMergingIter([]kv.Iterator{a, b})
	defer m.Close()
	if !m.First() {
		t.Fatal("empty merge")
	}
	if m.Key().Seq != 9 {
		t.Fatalf("first version seq=%d want 9", m.Key().Seq)
	}
	if !m.Next() || m.Key().Seq != 5 {
		t.Fatalf("second version wrong")
	}
	if m.Next() {
		t.Fatal("extra entries")
	}
}

func TestMergingIterSeekGE(t *testing.T) {
	a := memIter([2]any{"a", 1}, [2]any{"m", 2})
	b := memIter([2]any{"f", 3}, [2]any{"z", 4})
	m := newMergingIter([]kv.Iterator{a, b})
	defer m.Close()
	if !m.SeekGE(kv.MakeSearchKey([]byte("g"), kv.MaxSeqNum)) {
		t.Fatal("SeekGE failed")
	}
	if string(m.Key().UserKey) != "m" {
		t.Fatalf("SeekGE(g) landed on %s", m.Key().UserKey)
	}
	if m.SeekGE(kv.MakeSearchKey([]byte("zz"), kv.MaxSeqNum)) {
		t.Fatal("SeekGE past end should be invalid")
	}
	// Re-seek backwards works (iterators are re-positionable).
	if !m.SeekGE(kv.MakeSearchKey([]byte("a"), kv.MaxSeqNum)) {
		t.Fatal("re-seek failed")
	}
	if string(m.Key().UserKey) != "a" {
		t.Fatalf("re-seek landed on %s", m.Key().UserKey)
	}
}

func TestMergingIterEmptyInputs(t *testing.T) {
	m := newMergingIter([]kv.Iterator{memIter(), memIter()})
	defer m.Close()
	if m.First() {
		t.Fatal("merge of empty inputs reported valid")
	}
	m2 := newMergingIter(nil)
	defer m2.Close()
	if m2.First() {
		t.Fatal("merge of no inputs reported valid")
	}
}

// sliceIter is a kv.Iterator over sorted entries that fails, with err,
// instead of positioning at entry failAt or past it (-1: never).
type sliceIter struct {
	entries []kv.Entry
	pos     int
	failAt  int
	err     error
	closed  int
}

func (s *sliceIter) at(i int) bool {
	s.pos = i
	if s.failAt >= 0 && i >= s.failAt {
		s.err = fmt.Errorf("input fails at entry %d", i)
		return false
	}
	return i < len(s.entries)
}

func (s *sliceIter) First() bool { return s.at(0) }

func (s *sliceIter) SeekGE(target kv.InternalKey) bool {
	return s.at(sort.Search(len(s.entries), func(i int) bool { return kv.CompareInternal(s.entries[i].Key, target) >= 0 }))
}

func (s *sliceIter) Next() bool          { return s.err == nil && s.pos < len(s.entries) && s.at(s.pos+1) }
func (s *sliceIter) Valid() bool         { return s.err == nil && s.pos < len(s.entries) }
func (s *sliceIter) Key() kv.InternalKey { return s.entries[s.pos].Key }
func (s *sliceIter) Value() []byte       { return s.entries[s.pos].Value }
func (s *sliceIter) Error() error        { return s.err }
func (s *sliceIter) Close() error        { s.closed++; return nil }

// TestMergingIterManySourcesProperty: the merge of random inputs is the
// sort of all their entries by user key ascending, trailer descending,
// then input ordinal. Inputs are memtables or sorted slices; they share
// user keys, and some hold the very same internal key, so ties fall to
// the ordinal; they run dry at different points, some empty from the
// start; SeekGE lands anywhere; and a slice input that fails stops the
// merge with its error after exactly the entries that sort before its
// failure. Close closes every slice input once.
func TestMergingIterManySourcesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	type tagged struct {
		ik  kv.InternalKey
		ord int
	}
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(7)
		inputs := make([]*sliceIter, k) // nil for a memtable input
		iters := make([]kv.Iterator, k)
		var all []tagged
		for ord := range inputs {
			seen := map[string]bool{}
			var es []kv.Entry
			for n := rng.Intn(40); len(es) < n; {
				ik := kv.MakeInternalKey([]byte(fmt.Sprintf("k%02d", rng.Intn(30))), kv.SeqNum(1+rng.Intn(8)), kv.Kind(1+rng.Intn(2)))
				if id := ik.String(); !seen[id] {
					seen[id] = true
					es = append(es, kv.Entry{Key: ik, Value: []byte(fmt.Sprintf("%s/%d", id, ord))})
				}
			}
			if rng.Intn(2) == 0 {
				m := memtable.New()
				for _, e := range es {
					m.Add(e)
				}
				iters[ord] = m.NewIterator()
			} else {
				sort.Slice(es, func(i, j int) bool { return kv.CompareInternal(es[i].Key, es[j].Key) < 0 })
				inputs[ord] = &sliceIter{entries: es, failAt: -1}
				iters[ord] = inputs[ord]
			}
			for _, e := range es {
				all = append(all, tagged{e.Key, ord})
			}
		}
		sort.SliceStable(all, func(i, j int) bool {
			if c := kv.CompareInternal(all[i].ik, all[j].ik); c != 0 {
				return c < 0
			}
			return all[i].ord < all[j].ord
		})
		seek := trial%3 == 1
		target := kv.MakeSearchKey([]byte(fmt.Sprintf("k%02d", rng.Intn(32))), kv.SeqNum(rng.Intn(10)))
		if seek {
			from := sort.Search(len(all), func(i int) bool { return kv.CompareInternal(all[i].ik, target) >= 0 })
			all = all[from:]
		}
		// One trial in four breaks one input from a random entry past its
		// first on: the merge yields everything up to and including that
		// input's entry before the break, then stops with the error, or
		// yields nothing if the seek already lands past the break.
		fail := -1
		if trial%4 == 3 {
			if ord := rng.Intn(k); inputs[ord] != nil && len(inputs[ord].entries) > 1 {
				in := inputs[ord]
				in.failAt = 1 + rng.Intn(len(in.entries)-1)
				fail = 0
				for i, a := range all {
					if a.ord == ord && kv.CompareInternal(a.ik, in.entries[in.failAt-1].Key) == 0 {
						fail = i + 1
					}
				}
			}
		}
		m := newMergingIter(iters)
		ok := m.First()
		if seek {
			ok = m.SeekGE(target)
		}
		n := 0
		for ; ok; ok = m.Next() {
			if n >= len(all) {
				t.Fatalf("trial %d: merge yields more than the %d sorted entries", trial, len(all))
			}
			want := all[n]
			if kv.CompareInternal(m.Key(), want.ik) != 0 || string(m.Value()) != fmt.Sprintf("%s/%d", want.ik, want.ord) {
				t.Fatalf("trial %d: entry %d is %s=%q, want %s from input %d", trial, n, m.Key(), m.Value(), want.ik, want.ord)
			}
			n++
		}
		switch {
		case fail >= 0 && m.Error() == nil:
			t.Fatalf("trial %d: an input failed and the merge reports no error", trial)
		case fail >= 0 && n != fail:
			t.Fatalf("trial %d: %d entries yielded before the failure, want %d", trial, n, fail)
		case fail < 0 && m.Error() != nil:
			t.Fatalf("trial %d: %v", trial, m.Error())
		case fail < 0 && n != len(all):
			t.Fatalf("trial %d: merged %d of %d entries", trial, n, len(all))
		}
		m.Close()
		m.Close()
		for i, in := range inputs {
			if in != nil && in.closed != 1 {
				t.Fatalf("trial %d: input %d closed %d times, want once", trial, i, in.closed)
			}
		}
	}
}

// TestScansRaceCompactions runs scans, each over table iterators taken
// from the pool and handed back on Close, while writers, flushes and
// compactions replace the tables under them; under -race (make test) a
// holder that touched an iterator after handing it back would race with
// its next owner. Every key is always present, and a value names its
// key, so each scan must see exactly its range, in order, every value
// its key's.
func TestScansRaceCompactions(t *testing.T) {
	opts := concurrentDBOpts(vfs.NewMem(), false)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys = 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	put := func(i, gen int) error {
		return db.Put(key(i), []byte(fmt.Sprintf("k%04d@%d", i, gen)))
	}
	for i := 0; i < keys; i++ {
		if err := put(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	var (
		wg   sync.WaitGroup
		done = make(chan struct{})
		errs = make(chan error, 8)
	)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	wg.Add(1)
	go func() { // the writer: overwrites (compacted as they flush), flushes, drains
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for gen := 1; gen <= 1500; gen++ {
			if err := put(rng.Intn(keys), gen); err != nil {
				fail(err)
				return
			}
			var err error
			switch {
			case gen%500 == 0:
				err = db.WaitIdle()
			case gen%100 == 0:
				err = db.Flush()
			}
			if err != nil {
				fail(err)
				return
			}
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + s)))
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := rng.Intn(keys - 50)
				next := lo
				err := db.Scan(key(lo), key(lo+49), func(k, v []byte) bool {
					if string(k) != string(key(next)) || !bytes.HasPrefix(v, append(k, '@')) {
						fail(fmt.Errorf("scan from %d: entry %d is %q=%q", lo, next-lo, k, v))
						return false
					}
					next++
					return true
				})
				if err == nil && next != lo+50 {
					err = fmt.Errorf("scan from %d saw %d keys, want 50", lo, next-lo)
				}
				if err != nil {
					fail(err)
					return
				}
				// A pull scan abandoned midway closes its iterators early.
				sc, err := db.NewScanner(key(lo), nil)
				if err != nil {
					fail(err)
					return
				}
				for i := 0; i < 10 && sc.Next(); i++ {
				}
				if err := sc.Close(); err != nil {
					fail(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Compactions == 0 || st.RangeLookups < 20 {
		t.Fatalf("%d compactions under %d scans: nothing raced", st.Compactions, st.RangeLookups)
	}
}
