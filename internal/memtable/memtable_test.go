package memtable

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lsmkv/internal/kv"
)

func put(m *Memtable, key string, seq kv.SeqNum, val string) {
	m.Add(kv.Entry{Key: kv.MakeInternalKey([]byte(key), seq, kv.KindSet), Value: []byte(val)})
}

func del(m *Memtable, key string, seq kv.SeqNum) {
	m.Add(kv.Entry{Key: kv.MakeInternalKey([]byte(key), seq, kv.KindDelete)})
}

func TestMemtableGetLatestVisible(t *testing.T) {
	m := New()
	put(m, "k", 1, "v1")
	put(m, "k", 5, "v5")
	put(m, "k", 9, "v9")

	cases := []struct {
		snap kv.SeqNum
		want string
		ok   bool
	}{
		{0, "", false},
		{1, "v1", true},
		{4, "v1", true},
		{5, "v5", true},
		{8, "v5", true},
		{9, "v9", true},
		{100, "v9", true},
	}
	for _, c := range cases {
		v, kind, ok := m.Get([]byte("k"), c.snap)
		if ok != c.ok {
			t.Errorf("snap %d: ok=%v want %v", c.snap, ok, c.ok)
			continue
		}
		if ok && (string(v) != c.want || kind != kv.KindSet) {
			t.Errorf("snap %d: got %q/%v want %q", c.snap, v, kind, c.want)
		}
	}
}

func TestMemtableTombstoneVisible(t *testing.T) {
	m := New()
	put(m, "k", 1, "v1")
	del(m, "k", 2)
	_, kind, ok := m.Get([]byte("k"), 10)
	if !ok || kind != kv.KindDelete {
		t.Errorf("expected tombstone, got ok=%v kind=%v", ok, kind)
	}
	v, kind, ok := m.Get([]byte("k"), 1)
	if !ok || kind != kv.KindSet || string(v) != "v1" {
		t.Errorf("snapshot below tombstone must see v1, got %q ok=%v", v, ok)
	}
}

func TestMemtableGetAbsent(t *testing.T) {
	m := New()
	put(m, "b", 1, "v")
	if _, _, ok := m.Get([]byte("a"), 10); ok {
		t.Error("lookup of absent key before existing keys must miss")
	}
	if _, _, ok := m.Get([]byte("c"), 10); ok {
		t.Error("lookup of absent key after existing keys must miss")
	}
	// Prefix of an existing key is a different key.
	put(m, "abcd", 2, "v")
	if _, _, ok := m.Get([]byte("abc"), 10); ok {
		t.Error("prefix of existing key must miss")
	}
}

func TestMemtableIteratorOrdered(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(42))
	const n = 1000
	for i := 0; i < n; i++ {
		put(m, fmt.Sprintf("key%06d", rng.Intn(400)), kv.SeqNum(i+1), "v")
	}
	it := m.NewIterator()
	defer it.Close()
	count := 0
	var prev kv.InternalKey
	for ok := it.First(); ok; ok = it.Next() {
		if count > 0 && kv.CompareInternal(prev, it.Key()) >= 0 {
			t.Fatalf("iterator out of order at %d: %s then %s", count, prev, it.Key())
		}
		prev = it.Key().Clone()
		count++
	}
	if count != m.Len() {
		t.Errorf("iterated %d entries, Len()=%d", count, m.Len())
	}
	if count != n {
		t.Errorf("iterated %d entries, inserted %d distinct versions", count, n)
	}
}

func TestMemtableSeekGE(t *testing.T) {
	m := New()
	for _, k := range []string{"b", "d", "f"} {
		put(m, k, 1, "v")
	}
	it := m.NewIterator()
	defer it.Close()
	for _, c := range []struct {
		seek string
		want string
		ok   bool
	}{
		{"a", "b", true},
		{"b", "b", true},
		{"c", "d", true},
		{"f", "f", true},
		{"g", "", false},
	} {
		ok := it.SeekGE(kv.MakeSearchKey([]byte(c.seek), kv.MaxSeqNum))
		if ok != c.ok {
			t.Errorf("SeekGE(%q): ok=%v want %v", c.seek, ok, c.ok)
			continue
		}
		if ok && string(it.Key().UserKey) != c.want {
			t.Errorf("SeekGE(%q) landed on %q want %q", c.seek, it.Key().UserKey, c.want)
		}
	}
}

// Empty reports whether the memtable holds no entries.
func (m *Memtable) Empty() bool { return m.count.Load() == 0 }

func TestMemtableSizeGrows(t *testing.T) {
	m := New()
	if m.ApproxSize() != 0 || !m.Empty() {
		t.Error("fresh memtable must be empty with zero size")
	}
	put(m, "k", 1, "some value payload")
	s1 := m.ApproxSize()
	if s1 <= 0 {
		t.Error("size must grow after insert")
	}
	put(m, "k2", 2, "another value payload")
	if m.ApproxSize() <= s1 {
		t.Error("size must grow monotonically with inserts")
	}
	if m.Empty() {
		t.Error("memtable with entries is not empty")
	}
}

func TestMemtableCallerBufferReuse(t *testing.T) {
	m := New()
	key := []byte("kkk")
	val := []byte("vvv")
	m.Add(kv.Entry{Key: kv.MakeInternalKey(key, 1, kv.KindSet), Value: val})
	key[0], val[0] = 'x', 'x'
	v, _, ok := m.Get([]byte("kkk"), 10)
	if !ok || string(v) != "vvv" {
		t.Errorf("memtable must deep-copy entries; got %q ok=%v", v, ok)
	}
}

func TestMemtableConcurrentReadersWriters(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	const writers, readers, perWriter = 4, 4, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				put(m, fmt.Sprintf("w%d-%05d", w, i), kv.SeqNum(w*perWriter+i+1), "v")
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.Get([]byte(fmt.Sprintf("w0-%05d", i)), kv.MaxSeqNum)
			}
		}()
	}
	wg.Wait()
	if m.Len() != writers*perWriter {
		t.Errorf("Len()=%d want %d", m.Len(), writers*perWriter)
	}
	// Everything written must be readable.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 97 {
			if _, _, ok := m.Get([]byte(fmt.Sprintf("w%d-%05d", w, i)), kv.MaxSeqNum); !ok {
				t.Fatalf("lost write w%d-%05d", w, i)
			}
		}
	}
}

func TestTwoLevelSemanticsMatchMemtable(t *testing.T) {
	// Differential test: a TwoLevel buffer must answer every Get exactly
	// like a plain memtable over the same history.
	plain := New()
	two := NewTwoLevel(256) // tiny front so drains happen mid-test
	rng := rand.New(rand.NewSource(7))
	const ops = 2000
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(50))
		seq := kv.SeqNum(i + 1)
		if rng.Intn(10) == 0 {
			e := kv.Entry{Key: kv.MakeInternalKey([]byte(key), seq, kv.KindDelete)}
			plain.Add(e)
			two.Add(e)
		} else {
			e := kv.Entry{Key: kv.MakeInternalKey([]byte(key), seq, kv.KindSet), Value: []byte(fmt.Sprintf("v%d", i))}
			plain.Add(e)
			two.Add(e)
		}
	}
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%03d", i))
		for _, snap := range []kv.SeqNum{0, 1, 500, 1000, 1999, 2000, kv.MaxSeqNum} {
			v1, k1, ok1 := plain.Get(key, snap)
			v2, k2, ok2 := two.Get(key, snap)
			if ok1 != ok2 || k1 != k2 || string(v1) != string(v2) {
				t.Fatalf("key %s snap %d: plain=(%q,%v,%v) two=(%q,%v,%v)",
					key, snap, v1, k1, ok1, v2, k2, ok2)
			}
		}
	}
	if plain.Len() != two.Len() {
		t.Errorf("entry counts diverge: plain=%d two=%d", plain.Len(), two.Len())
	}
}

func TestTwoLevelIteratorDrainsFront(t *testing.T) {
	two := NewTwoLevel(1 << 20) // big front: nothing drains on its own
	for i := 0; i < 100; i++ {
		two.Add(kv.Entry{
			Key:   kv.MakeInternalKey([]byte(fmt.Sprintf("k%03d", i)), kv.SeqNum(i+1), kv.KindSet),
			Value: []byte("v"),
		})
	}
	it := two.NewIterator()
	defer it.Close()
	n := 0
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	if n != 100 {
		t.Errorf("iterator saw %d entries want 100 (front not drained?)", n)
	}
}

// TestTwoLevelDrainNeverHidesAnEntry: a Get racing a drain of the front
// must see every key's newest version. A front holds 2000 keys, each
// written twice (so the older version sits in the skiplist), and is
// drained once by NewIterator and once by the Add that fills it, while
// Get sweeps every key until the drain is over.
func TestTwoLevelDrainNeverHidesAnEntry(t *testing.T) {
	const nKeys, trials = 2000, 20
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	entry := func(i int, seq kv.SeqNum, v string) kv.Entry {
		return kv.Entry{Key: kv.MakeInternalKey(key(i), seq, kv.KindSet), Value: []byte(v)}
	}
	// The front holds the 2000 newest versions; one more entry fills it.
	frontCap := int64(nKeys+1) * int64(entry(0, 1, "new").Size())
	drains := []struct {
		name  string
		drain func(m *Memtable)
	}{
		{"iterator", func(m *Memtable) { m.NewIterator().Close() }},
		{"add", func(m *Memtable) { m.Add(entry(nKeys, 3*nKeys, "new")) }},
	}
	for _, d := range drains {
		stale := 0
		for trial := 0; trial < trials; trial++ {
			m := NewTwoLevel(frontCap)
			for i := 0; i < nKeys; i++ {
				m.Add(entry(i, kv.SeqNum(i+1), "old"))
				m.Add(entry(i, kv.SeqNum(nKeys+i+1), "new"))
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				d.drain(m)
			}()
			for swept := false; !swept; {
				select {
				case <-done:
					swept = true
				default:
				}
				for i := 0; i < nKeys; i++ {
					if v, _, ok := m.Get(key(i), kv.MaxSeqNum); !ok || string(v) != "new" {
						stale++
					}
				}
			}
		}
		if stale > 0 {
			t.Errorf("%s drain: %d Gets missed the newest version over %d trials", d.name, stale, trials)
		}
	}
}

func BenchmarkMemtableAdd(b *testing.B) {
	m := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		put(m, fmt.Sprintf("key%09d", i), kv.SeqNum(i+1), "value-payload-16b")
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	m := New()
	const n = 100000
	for i := 0; i < n; i++ {
		put(m, fmt.Sprintf("key%09d", i), kv.SeqNum(i+1), "value-payload-16b")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Get([]byte(fmt.Sprintf("key%09d", i%n)), kv.MaxSeqNum)
	}
}

func BenchmarkTwoLevelAdd(b *testing.B) {
	m := NewTwoLevel(4 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Add(kv.Entry{
			Key:   kv.MakeInternalKey([]byte(fmt.Sprintf("key%09d", i)), kv.SeqNum(i+1), kv.KindSet),
			Value: []byte("value-payload-16b"),
		})
	}
}
