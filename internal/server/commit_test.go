package server

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
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

// TestServerWritesOnlyThroughSubmit pins where writes group: in the
// engine's commit queues, not here. The server's non-test files reach an
// engine write only through Submit, route no ops to shards themselves,
// and start goroutines only per connection (run, admit) and to wait out
// a drain (Shutdown) — a per-shard committer would be a fourth site.
func TestServerWritesOnlyThroughSubmit(t *testing.T) {
	writes := map[string]bool{
		"Put": true, "PutTTL": true, "PutAtExpiry": true, "Delete": true, "Incr": true,
		"CompareAndSwap": true, "ApplyBatch": true, "ApplyShardBatch": true, "ApplyReplicated": true,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	submits := 0
	var starters []string // the function each go statement is in
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						starters = append(starters, fn.Name.Name)
					case *ast.SelectorExpr:
						x, _ := n.X.(*ast.SelectorExpr)
						switch id, _ := n.X.(*ast.Ident); {
						case x != nil && x.Sel.Name == "DB" && writes[n.Sel.Name]: // cfg.DB.Put
							t.Errorf("%s: the engine's %s is called: writes go through Submit", fset.Position(n.Pos()), n.Sel.Name)
						case x != nil && x.Sel.Name == "DB" && n.Sel.Name == "Submit":
							submits++
						case id != nil && id.Name == "shard" && (n.Sel.Name == "SplitBatch" || n.Sel.Name == "SoleShard"):
							t.Errorf("%s: shard.%s routes ops here: Submit routes them", fset.Position(n.Pos()), n.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
	if submits != 1 {
		t.Errorf("the engine's Submit is called from %d sites, want one (submitWrite)", submits)
	}
	if slices.Sort(starters); fmt.Sprint(starters) != "[Shutdown admit run run]" {
		t.Errorf("goroutines are started in %v, want only in [Shutdown admit run run]", starters)
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
