package main

import (
	"reflect"
	"testing"
)

func TestLinkedFuncsNamesDeclarations(t *testing.T) {
	nm := `  4a1b20 T lsmkv/internal/kv.(*Entry).Size
  4a1c00 T lsmkv/internal/core.(*DB).walk.func1.2
  4a1d00 t lsmkv/internal/shard.merge[go.shape.struct { X int; Y []uint8 }]
  4a1e00 T lsmkv/internal/x.(*Pool[go.shape.int]).Get-fm
  4a1f00 T lsmkv/internal/vfs.ReadFile.deferwrap1
  4a2000 T lsmkv.Open
  5b0000 D lsmkv/internal/x.table
  4a3000 T main.main
`
	got := linkedFuncs(nm)
	for _, name := range []string{
		"internal/kv.Entry.Size",
		"internal/core.DB.walk",
		"internal/shard.merge",
		"internal/x.Pool.Get",
		"internal/vfs.ReadFile",
	} {
		if !got[name] {
			t.Errorf("%s not linked", name)
		}
	}
	for _, name := range []string{"internal/x.table", "main.main", ".Open", "Open"} {
		if got[name] {
			t.Errorf("%s linked", name)
		}
	}
}

func TestCensusDeclsNamesAndKeys(t *testing.T) {
	var got [][]string
	if err := censusDecls("../..", func(name, pos string, keys []string) {
		if name == "internal/kv.InternalKey.Clone" || name == "internal/vfs.WriteFile" {
			got = append(got, keys)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"internal/kv", "internal/kv/kv.go", "internal/kv.InternalKey", "internal/kv.InternalKey.Clone"},
		{"internal/vfs", "internal/vfs/vfs.go", "internal/vfs.WriteFile"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("keys %q, want %q", got, want)
	}
}
