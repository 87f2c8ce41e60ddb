package iostat

import (
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

// TestEveryCounterIsCarried: each Stats counter has a Snapshot field of
// its name, and Snapshot, Add and Sub each carry it — a new counter is
// declared in both structs, which the field walks assume agree.
func TestEveryCounterIsCarried(t *testing.T) {
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	snap := s.Snapshot()
	sum, diff := reflect.ValueOf(snap.Add(snap)), reflect.ValueOf(snap.Sub(snap))
	if got, want := sum.NumField(), sv.NumField(); got != want {
		t.Fatalf("Snapshot has %d fields, Stats %d", got, want)
	}
	for i := 0; i < sv.NumField(); i++ {
		name, want := sv.Type().Field(i).Name, int64(i+1)
		f := reflect.ValueOf(snap).FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Snapshot has no field %s", name)
			continue
		}
		if got := f.Int(); got != want {
			t.Errorf("Snapshot().%s = %d, want %d", name, got, want)
		}
		if got := sum.FieldByName(name).Int(); got != 2*want {
			t.Errorf("Add carries %s as %d, want %d", name, got, 2*want)
		}
		if got := diff.FieldByName(name).Int(); got != 0 {
			t.Errorf("Sub carries %s as %d, want 0", name, got)
		}
	}
}
