package server

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"lsmkv/internal/core"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// TestServerResolvesNoRMW pins where INCR and CAS are decided: in the
// engine's commit, not here. The server's non-test files must not touch
// the counter encoding or judge a pending op's expiry — the pieces a
// second read-modify-write implementation would need.
func TestServerResolvesNoRMW(t *testing.T) {
	forbidden := map[string]bool{
		"core.DecodeCounter":  true,
		"core.AppendCounter":  true,
		"core.ErrNotCounter":  true,
		"kv.SplitExpiryValue": true,
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && forbidden[x.Name+"."+sel.Sel.Name] {
						t.Errorf("%s uses %s.%s: read-modify-write is resolved by core's commit", name, x.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// TestScanStreamStopsOnTheNextKey: a SCANSTREAM on a connection being
// torn down ends at the key it is on, not at the next frame boundary —
// with the default limit a frame is up to MaxScanResults pairs away.
func TestScanStreamStopsOnTheNextKey(t *testing.T) {
	db, err := shard.Open(core.Options{Dir: "db", FS: vfs.NewMem()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, k := range []string{"a", "b", "c"} {
		if err := db.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	c := &conn{srv: srv, stop: make(chan struct{})}
	c.signalStop()
	frames := 0
	err = streamScan(c, &Request{Op: OpScanStream}, func(*Response) error { frames++; return nil })
	if !errors.Is(err, errStreamStopped) || frames != 0 {
		t.Fatalf("stopped stream: err %v after %d frames; want errStreamStopped and none", err, frames)
	}
}
