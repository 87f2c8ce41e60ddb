package bench

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lsmkv"
	"lsmkv/internal/core"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// TestOneExperimentDefinition pins where an experiment may exist, as
// TestOneWritePath, TestOneReadPath and TestOneMaintenancePath pin the
// engine's paths: the registry is E1…En with no gap, no testing.B copy
// of an experiment exists anywhere in the module, every store an
// experiment measures is opened by the one runner, and nothing in this
// package prints.
func TestOneExperimentDefinition(t *testing.T) {
	reg := Registry()
	for i, e := range reg {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("registry entry %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Run == nil || e.Title == "" || e.Claim == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
		if got, ok := Find(strings.ToLower(e.ID)); !ok || got.ID != e.ID {
			t.Errorf("Find(%s) = %s, %v", strings.ToLower(e.ID), got.ID, ok)
		}
	}
	if _, ok := Find(fmt.Sprintf("E%d", len(reg)+1)); ok {
		t.Error("Find accepted an id past the registry's end")
	}

	// The root module's Go files: benchmark/ is its own module, with the
	// serving stack to itself.
	benchFunc := regexp.MustCompile(`(?m)^func BenchmarkE[0-9]+`)
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || path == filepath.Join("../..", "benchmark")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if m := benchFunc.Find(src); m != nil {
			t.Errorf("%s declares %s: an experiment is defined in internal/bench and nowhere else", path, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	calls := parseCalls(t)
	for callee, want := range map[string]string{
		"os.MkdirTemp": "withDir",
		"os.RemoveAll": "withDir",
		"lsmkv.Open":   "openAt",
	} {
		if got := calls.sites[callee]; !slices.Equal(got, []string{want}) {
			t.Errorf("%s is called in %v, want only %s", callee, got, want)
		}
	}
	for _, printer := range []string{"io.Writer", "os.Stdout", "fmt.Println", "fmt.Printf", "fmt.Print"} {
		if fns := calls.mentions[printer]; len(fns) > 0 {
			t.Errorf("%s appears in %v: cmd/lsmbench is the only renderer", printer, fns)
		}
	}
}

// callIndex is what TestOneExperimentDefinition and the dropped-error
// check read off the package's non-test source.
type callIndex struct {
	sites    map[string][]string // rendered callee -> enclosing functions, one per call
	mentions map[string][]string // rendered selector -> enclosing functions
	dropped  []string            // "func: call" for each engine or client call whose error is discarded
}

// fallible names the engine, client and server methods whose error
// result measurement code must look at.
var fallible = map[string]bool{
	"Get": true, "GetAppend": true, "MultiGet": true, "Put": true, "PutTTL": true, "Delete": true,
	"Scan": true, "ScanStream": true, "Compact": true, "Flush": true, "WaitIdle": true,
	"Checkpoint": true, "Close": true, "Shutdown": true, "WaitCaughtUp": true,
}

func parseCalls(t *testing.T) callIndex {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var render func(e ast.Expr) string
	render = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			if x := render(e.X); x != "" {
				return x + "." + e.Sel.Name
			}
		}
		return ""
	}
	// fallibleCall reports the rendered callee of a call to a fallible method.
	fallibleCall := func(e ast.Expr) string {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return ""
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && fallible[sel.Sel.Name] {
			return render(sel)
		}
		return ""
	}
	x := callIndex{sites: map[string][]string{}, mentions: map[string][]string{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						if callee := render(n.Fun); callee != "" {
							x.sites[callee] = append(x.sites[callee], fn.Name.Name)
						}
					case *ast.SelectorExpr:
						if sel := render(n); sel != "" {
							x.mentions[sel] = append(x.mentions[sel], fn.Name.Name)
						}
					case *ast.ExprStmt: // db.Get(k)
						if callee := fallibleCall(n.X); callee != "" {
							x.dropped = append(x.dropped, fn.Name.Name+": "+callee)
						}
					case *ast.AssignStmt: // v, _ := db.Get(k)
						last, _ := n.Lhs[len(n.Lhs)-1].(*ast.Ident)
						if callee := fallibleCall(n.Rhs[0]); callee != "" && last != nil && last.Name == "_" {
							x.dropped = append(x.dropped, fn.Name.Name+": "+callee)
						}
					}
					return true
				})
			}
		}
	}
	return x
}

// cpuOnly names the experiments that never open a store; the rest are
// skipped under -short.
var cpuOnly = map[string]bool{"E6": true, "E10": true, "E11": true, "E12": true}

// TestEveryExperimentRuns runs all of Registry() at the tiny scale. No
// measurement may drop an engine error (checked on the source: a failing
// read cannot be arranged through lsmkv.Open), every experiment returns
// well-formed tables and no error, and — from the returned cells, never
// from a timing — the deterministic halves of the CPU-only claims hold.
func TestEveryExperimentRuns(t *testing.T) {
	for _, d := range parseCalls(t).dropped {
		t.Errorf("%s discards its error", d)
	}
	claims := map[string]func(t *testing.T, tables []*Table){
		// Both models agreeing with binary search on every probe is E6's
		// own guard (an error, not a row); their memory is in the table.
		"E6": func(t *testing.T, tables []*Table) {
			mem := column(t, tables[0], "aux memory KiB")
			for model := 1; model <= 2; model++ {
				if frac := mem[model] / mem[0]; frac >= 0.05 {
					t.Errorf("%v uses %.1f%% of the flat fences' memory, want < 5%%", tables[0].Rows[model][0], 100*frac)
				}
			}
		},
		"E10": func(t *testing.T, tables []*Table) {
			worst := column(t, tables[1], "worst case over rho=0.7 (I/O/op)")
			if nominal, robust := worst[0], worst[1]; robust >= nominal {
				t.Errorf("robust worst case %.3f is not below nominal %.3f", robust, nominal)
			}
		},
		// No false negative for any filter is E11's own guard.
		"E11": func(t *testing.T, tables []*Table) {
			row := map[any]int{}
			for i, r := range tables[0].Rows {
				row[r[0]] = i
			}
			for _, col := range []string{"bits/key", "measured FPR"} {
				c := column(t, tables[0], col)
				if bloom, ribbon := c[row["bloom"]], c[row["ribbon"]]; ribbon >= bloom {
					t.Errorf("ribbon %s = %v, not below Bloom's %v", col, ribbon, bloom)
				}
			}
		},
	}
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && !cpuOnly[e.ID] {
				t.Skip("engine-backed experiment in -short mode")
			}
			t.Parallel()
			tables, err := e.Run(tiny)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no table")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %v has no rows", tab.Header)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Errorf("row %v has %d cells under %d headers %v", row, len(row), len(tab.Header), tab.Header)
					}
					for _, cell := range row {
						if f, ok := cell.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
							t.Errorf("row %v of %v has a %v cell", row, tab.Header, f)
						}
					}
				}
			}
			if check := claims[e.ID]; check != nil && !t.Failed() {
				check(t, tables)
			}
		})
	}
}

// column returns the named column's cells as numbers.
func column(t *testing.T, tab *Table, name string) []float64 {
	t.Helper()
	col := slices.Index(tab.Header, name)
	if col < 0 {
		t.Fatalf("no column %q in %v", name, tab.Header)
	}
	out := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		switch v := row[col].(type) {
		case float64:
			out[i] = v
		case int:
			out[i] = float64(v)
		default:
			t.Fatalf("column %q row %d holds %T, not a number", name, i, v)
		}
	}
	return out
}

// TestFailedReadIsAnErrorNotARow runs the lookup measurement E1 and E2
// share against a store whose table reads fail. It used to book every
// failed Get as a lookup that read no block.
func TestFailedReadIsAnErrorNotARow(t *testing.T) {
	cfg := config(tiny)
	faulty := vfs.NewFaulty(vfs.NewMem())
	opts := core.Options{
		Dir: "db", FS: faulty, L0CompactionTrigger: 2,
		Design: core.Design{MemtableBytes: cfg.memtable, SizeRatio: 4, MaxLevels: 4},
	}
	opts.DisableCache()
	inner, err := shard.Open(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := &lsmkv.DB{DB: inner}
	defer db.Close()
	if _, err := cfg.load(db); err != nil {
		t.Fatal(err)
	}
	if _, _, point, err := cfg.lookupCosts(db); err != nil || point < 1 {
		t.Fatalf("healthy store: %v block reads per present lookup, err %v; want at least 1 and no error", point, err)
	}
	faulty.Inject(vfs.Rule{Op: vfs.OpReadAt, Repeat: true})
	if _, _, _, err := cfg.lookupCosts(db); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("lookupCosts over failing reads returned err %v, want the injected fault", err)
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale(""); err != nil || s != Small {
		t.Error("empty scale should be Small")
	}
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Error("full scale broken")
	}
	for _, bogus := range []string{"huge", "tiny"} {
		if _, err := ParseScale(bogus); err == nil {
			t.Errorf("scale %q accepted", bogus)
		}
	}
}
