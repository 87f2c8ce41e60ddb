package replica

import (
	"fmt"
	"sort"
	"testing"
)

// mapScan adapts a plain map to BuildTree's scan contract (ascending key
// order, keep-going flag).
func mapScan(m map[string]string) func(fn func(key, value []byte) bool) error {
	return func(fn func(key, value []byte) bool) error {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !fn([]byte(k), []byte(m[k])) {
				break
			}
		}
		return nil
	}
}

func testContent(n int) map[string]string {
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("key%05d", i)] = fmt.Sprintf("value-%d", i*7)
	}
	return m
}

func TestMerkleEqualContent(t *testing.T) {
	m := testContent(500)
	a, err := BuildTree(64, []uint64{500}, mapScan(m))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTree(64, []uint64{500}, mapScan(m))
	if err != nil {
		t.Fatal(err)
	}
	if a.Root != b.Root {
		t.Fatalf("equal content, different roots:\n%s\n%s", a.Root, b.Root)
	}
	if a.Entries != 500 || a.Buckets != 64 || len(a.Leaves) != 64 {
		t.Fatalf("tree shape: %+v", a)
	}
	diff, err := DiffBuckets(a, b)
	if err != nil || len(diff) != 0 {
		t.Fatalf("diff of equal trees: %v, %v", diff, err)
	}
}

func TestMerkleDivergence(t *testing.T) {
	m := testContent(500)
	a, err := BuildTree(64, nil, mapScan(m))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(map[string]string){
		"changed value": func(m map[string]string) { m["key00123"] = "tampered" },
		"missing key":   func(m map[string]string) { delete(m, "key00042") },
		"extra key":     func(m map[string]string) { m["zzz-extra"] = "x" },
	} {
		mm := testContent(500)
		mutate(mm)
		b, err := BuildTree(64, nil, mapScan(mm))
		if err != nil {
			t.Fatal(err)
		}
		if a.Root == b.Root {
			t.Fatalf("%s: divergence not reflected in root", name)
		}
		diff, err := DiffBuckets(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(diff) == 0 {
			t.Fatalf("%s: no differing buckets despite root mismatch", name)
		}
		// One mutated key localizes to a small fraction of the keyspace.
		if len(diff) > 2 {
			t.Fatalf("%s: %d buckets differ for a single-key change", name, len(diff))
		}
	}
}

func TestMerkleDefaultsAndErrors(t *testing.T) {
	tr, err := BuildTree(0, nil, mapScan(testContent(10)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Buckets != DefaultMerkleBuckets {
		t.Fatalf("default buckets = %d", tr.Buckets)
	}
	other, err := BuildTree(8, nil, mapScan(testContent(10)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DiffBuckets(tr, other); err == nil {
		t.Fatal("bucket-count mismatch not rejected")
	}
	if _, err := BuildTree(MaxMerkleBuckets+1, nil, mapScan(nil)); err == nil {
		t.Fatal("a bucket count over MaxMerkleBuckets was not rejected")
	}
	wantErr := fmt.Errorf("scan failed")
	if _, err := BuildTree(8, nil, func(func(key, value []byte) bool) error { return wantErr }); err != wantErr {
		t.Fatalf("scan error not propagated: %v", err)
	}
}
