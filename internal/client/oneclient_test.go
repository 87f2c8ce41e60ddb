package client_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneProtocolClient keeps this package the module's one client of the
// wire, beside internal/server's TestOneOpcodeTable: in the main module's
// non-test source only internal/client dials (net.Dial*), and only it and
// internal/server frame a request or read a response
// (server.ReadFrame, WriteFrame, AppendRequest, DecodeResponse). A second
// client — the follower once hand-rolled REPLSYNC — goes through Client.
func TestOneProtocolClient(t *testing.T) {
	framing := map[string]bool{"ReadFrame": true, "WriteFrame": true, "AppendRequest": true, "DecodeResponse": true}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is a module of its own.
			if p != root && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		imports := map[string]string{} // local name -> import path
		for _, imp := range file.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok || pkg == "internal/client" {
				return true
			}
			switch imports[x.Name] {
			case "net":
				if strings.HasPrefix(sel.Sel.Name, "Dial") {
					t.Errorf("%s: net.%s outside internal/client; dial through client.Client", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			case "lsmkv/internal/server":
				if framing[sel.Sel.Name] {
					t.Errorf("%s: server.%s outside internal/server and internal/client; speak the protocol through client.Client", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned %d files from %s; is the module root right?", files, root)
	}
}
