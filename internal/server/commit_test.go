package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
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
