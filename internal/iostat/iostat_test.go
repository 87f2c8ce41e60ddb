package iostat

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSnapshotAndSub(t *testing.T) {
	var s Stats
	s.BlockReads.Add(10)
	s.PointLookups.Add(4)
	s.BytesFlushed.Add(100)
	s.CompactionBytesWritten.Add(300)
	a := s.Snapshot()
	s.BlockReads.Add(5)
	s.PointLookups.Add(1)
	b := s.Snapshot()
	d := b.Sub(a)
	if d.BlockReads != 5 || d.PointLookups != 1 {
		t.Errorf("delta wrong: %+v", d)
	}
	if b.BlockReads != 15 {
		t.Errorf("snapshot wrong: %+v", b)
	}
}

func TestDerivedMetrics(t *testing.T) {
	s := Snapshot{
		BytesFlushed:           100,
		CompactionBytesWritten: 300,
		BlockReads:             20,
		PointLookups:           10,
		BlockCacheHits:         30,
		BlockCacheMisses:       10,
		FilterProbes:           100,
		FilterNegatives:        80,
		FilterFalsePositives:   5,
	}
	if got := s.WriteAmplification(); got != 4.0 {
		t.Errorf("WriteAmplification=%f want 4", got)
	}
	if got := s.BlockReadsPerLookup(); got != 2.0 {
		t.Errorf("BlockReadsPerLookup=%f want 2", got)
	}
	if got := s.CacheHitRate(); got != 0.75 {
		t.Errorf("CacheHitRate=%f want 0.75", got)
	}
	if got := s.FilterFPR(); got != 0.25 {
		t.Errorf("FilterFPR=%f want 0.25", got)
	}
}

func TestDerivedMetricsZeroDenominators(t *testing.T) {
	var s Snapshot
	if s.WriteAmplification() != 0 || s.BlockReadsPerLookup() != 0 ||
		s.CacheHitRate() != 0 || s.FilterFPR() != 0 {
		t.Error("zero-denominator metrics must be 0, not NaN")
	}
}

func TestConcurrentCounting(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.BlockReads.Add(1)
				s.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := s.BlockReads.Load(); got != 8000 {
		t.Errorf("lost updates: %d", got)
	}
}

// TestEveryCounterIsCarried: each Stats counter, and each bucket of a
// histogram of them, has a Snapshot field of its name, and Snapshot, Add
// and Sub each carry it — a new counter is declared in both structs,
// which the field walks assume agree.
func TestEveryCounterIsCarried(t *testing.T) {
	// leaves calls fn with every counter under v, named as a Go selector.
	var leaves func(v reflect.Value, name string, fn func(name string, v reflect.Value))
	leaves = func(v reflect.Value, name string, fn func(string, reflect.Value)) {
		if v.Kind() == reflect.Array {
			for j := 0; j < v.Len(); j++ {
				leaves(v.Index(j), fmt.Sprintf("%s[%d]", name, j), fn)
			}
			return
		}
		fn(name, v)
	}
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	want := map[string]int64{}
	for i := 0; i < sv.NumField(); i++ {
		leaves(sv.Field(i), sv.Type().Field(i).Name, func(name string, v reflect.Value) {
			want[name] = int64(len(want) + 1)
			v.Addr().Interface().(*atomic.Int64).Store(want[name])
		})
	}
	snap := s.Snapshot()
	sum, diff := reflect.ValueOf(snap.Add(snap)), reflect.ValueOf(snap.Sub(snap))
	if got, want := sum.NumField(), sv.NumField(); got != want {
		t.Fatalf("Snapshot has %d fields, Stats %d", got, want)
	}
	got := map[string][3]int64{} // Snapshot, Add, Sub
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		f := reflect.ValueOf(snap).FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Snapshot has no field %s", name)
			continue
		}
		for k, v := range []reflect.Value{f, sum.FieldByName(name), diff.FieldByName(name)} {
			leaves(v, name, func(n string, v reflect.Value) { g := got[n]; g[k] = v.Int(); got[n] = g })
		}
	}
	if len(got) != len(want) {
		t.Errorf("Snapshot carries %d counters, Stats declares %d", len(got), len(want))
	}
	for n, w := range want {
		if g := got[n]; g != [3]int64{w, 2 * w, 0} {
			t.Errorf("%s: Snapshot, Add, Sub carry %v, want %v", n, g, [3]int64{w, 2 * w, 0})
		}
	}
}

// TestTallyFlushesEveryField: each Tally field names a Stats counter, and
// FlushTo adds it to that counter alone and zeroes the tally.
func TestTallyFlushesEveryField(t *testing.T) {
	var tl Tally
	tv := reflect.ValueOf(&tl).Elem()
	for i := 0; i < tv.NumField(); i++ {
		tv.Field(i).SetInt(int64(i + 1))
	}
	var s Stats
	tl.FlushTo(&s)
	if tl != (Tally{}) {
		t.Fatalf("FlushTo left %+v in the tally", tl)
	}
	snap := reflect.ValueOf(s.Snapshot())
	carried := int64(0)
	for i := 0; i < tv.NumField(); i++ {
		name := tv.Type().Field(i).Name
		f := snap.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Tally.%s names no Stats counter", name)
			continue
		}
		if f.Int() != int64(i+1) {
			t.Errorf("Stats.%s = %d after FlushTo, want %d", name, f.Int(), i+1)
		}
		carried += f.Int()
	}
	total := int64(0)
	for i := 0; i < snap.NumField(); i++ {
		if f := snap.Field(i); f.Kind() == reflect.Int64 {
			total += f.Int()
		}
	}
	if total != carried {
		t.Errorf("FlushTo moved %d counts outside the tally's counters", total-carried)
	}
}
