package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestOneWritePath pins the write path's structure: across the package's
// non-test files a WAL record is appended in one place, the commit hook
// fires in one place, entries enter the memtable from one function, and
// conditional ops are resolved and values appended to the value log only
// inside commit, which holds one of the engine's two mutexes. Every local
// write reaches commit in a group: its only callers are the group leader,
// the replication apply and value-log GC. A second write path, or a
// second lock around one, fails here instead of in review.
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
		"wal.AddRecord":      "commit", // db.wal.AddRecord(rec)
		"commitHook":         "commit", // db.commitHook(first, n, payload)
		"mem.Add":            "insert", // db.mem.Add(entry)
		"vlog.Append":        "commit", // db.vlog.Append(key, value), after resolveConditional
		"resolveConditional": "commit", // INCR, CAS and GC relocations
		"rmwValue":           "resolveConditional",
	} {
		if got := sites[callee]; len(got) != 1 || got[0] != want {
			t.Errorf("%s is called from %v, want exactly one call, in %s", callee, got, want)
		}
	}
	// Local writes commit only as a group; a replicated record and a GC
	// batch commit alone.
	got := slices.Clone(sites["commit"])
	if slices.Sort(got); fmt.Sprint(got) != "[ApplyReplicated RunValueLogGC commitGroup]" {
		t.Errorf("commit is called from %v, want exactly from commitGroup, ApplyReplicated and RunValueLogGC", got)
	}
	// No other spelling reaches the log, the value log or the hook either.
	for _, callee := range []string{"AddRecord", "Append"} {
		if got := sites[callee]; len(got) != 0 {
			t.Errorf("%s called on something other than db.wal or db.vlog, from %v", callee, got)
		}
	}

	// One commit critical section: the engine has two mutexes, commitMu and
	// mu, and no lock of its own spans a commit's resolution or its
	// value-log append apart from commitMu.
	var mutexes []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok || spec.Name.Name != "DB" {
					return true
				}
				for _, field := range spec.Type.(*ast.StructType).Fields.List {
					if typ := render(field.Type); typ != "sync.Mutex" && typ != "sync.RWMutex" {
						continue
					}
					for _, name := range field.Names {
						mutexes = append(mutexes, name.Name)
					}
				}
				return false
			})
		}
	}
	if fmt.Sprint(mutexes) != "[commitMu mu]" {
		t.Errorf("core.DB declares the mutexes %v, want exactly [commitMu mu]", mutexes)
	}
}

// TestConditionalOpsAreNotGets: an INCR or CAS reads the key it changes,
// but through the engine's own read, not a user Get — neither the
// point-lookup counter nor the "get" latency histogram moves, so an
// INCR-only stream does not look half reads to the tuner.
func TestConditionalOpsAreNotGets(t *testing.T) {
	opts := smallOpts(t.TempDir())
	db := openDB(t, opts)
	defer db.Close()
	before := db.Stats().PointLookups
	var prev []byte
	for i := 0; i < 50; i++ {
		if _, err := db.Incr([]byte("ctr"), 1); err != nil {
			t.Fatal(err)
		}
		next := val(i)
		if err := db.CompareAndSwap([]byte("cas"), prev, next); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	if got := db.Stats().PointLookups; got != before {
		t.Errorf("50 INCRs and 50 CASes counted %d point lookups, want 0", got-before)
	}
	if get, ok := db.Latencies()["get"]; ok {
		t.Errorf("50 INCRs and 50 CASes recorded %d Get latencies, want none", get.Count)
	}
}
