package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestOneWritePath pins the write path's structure: across the package's
// non-test files a WAL record is appended in one place, the commit hook
// fires in one place, and entries enter the memtable from one function.
// A second write path fails here instead of in review.
func TestOneWritePath(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string][]string{} // callee -> enclosing functions, one per call
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					callee := sel.Sel.Name
					if recv, ok := sel.X.(*ast.SelectorExpr); ok {
						callee = recv.Sel.Name + "." + callee
					}
					sites[callee] = append(sites[callee], fn.Name.Name)
					return true
				})
			}
		}
	}
	for callee, want := range map[string]string{
		"wal.AddRecord": "commit", // db.wal.AddRecord(rec)
		"commitHook":    "commit", // db.commitHook(first, n, payload)
		"mem.Add":       "insert", // db.mem.Add(entry)
	} {
		if got := sites[callee]; len(got) != 1 || got[0] != want {
			t.Errorf("%s is called from %v, want exactly one call, in %s", callee, got, want)
		}
	}
	// No other spelling reaches the log or the hook either.
	if got := sites["AddRecord"]; len(got) != 0 {
		t.Errorf("AddRecord called on something other than db.wal, from %v", got)
	}
}
