package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestOneMaintenancePath pins the structure of background work, as
// TestOneWritePath and TestOneReadPath do the foreground's: a flush, a
// trivial move, a merge and a value-log collection end in one function,
// which alone installs a version edit, counts, records and retires.
func TestOneMaintenancePath(t *testing.T) {
	core := parseFuncs(t, ".")
	both := func(a, b []string) (out []string) { // functions in both lists, once each
		for _, fn := range a {
			if slices.Contains(b, fn) && !slices.Contains(out, fn) {
				out = append(out, fn)
			}
		}
		return out
	}
	onlyIn := func(what string, fns []string, want string) {
		t.Helper()
		if slices.ContainsFunc(fns, func(fn string) bool { return fn != want }) {
			t.Errorf("%s is in %v, want only %s", what, fns, want)
		}
	}

	// One edit applier, with one caller, with one caller.
	wantSites(t, "core: e.apply", core.sites["e.apply"], "installVersionEdit")
	wantSites(t, "core: db.installVersionEdit", core.sites["db.installVersionEdit"], "finish")
	wantSites(t, "core: db.finish", core.sites["db.finish"], "flush", "compact", "compact", "RunValueLogGC")

	// The version is the one index of open tables: a table is opened only
	// while a version is built, and a version is built only at Open and at
	// an install, sharing the handles of the version before it.
	wantSites(t, "core: db.openTable", core.sites["db.openTable"], "buildVersion")
	wantSites(t, "core: db.buildVersion", core.sites["db.buildVersion"], "Open", "installVersionEdit")
	// A task's claims are released in one place, under db.mu like every
	// other Scheduler call.
	wantSites(t, "core: db.sched.Done", core.sites["db.sched.Done"], "compact")

	// One walk totals the tree: the version sums its levels as it is
	// built, and the tables' index memory is taken once, at open. The debt
	// gauge and the Monkey budget read those totals.
	for callee, fns := range core.sites {
		if strings.HasSuffix(callee, ".ApproxIndexMemory") {
			onlyIn("core: "+callee, fns, "openTable")
		}
		if strings.HasSuffix(callee, ".LevelCapacity") {
			onlyIn("core: "+callee, fns, "debtLocked")
		}
	}
	for sel, fns := range core.mentions {
		if strings.HasSuffix(sel, ".Tombstones") {
			onlyIn("core: "+sel, fns, "buildVersion")
		}
	}
	wantSites(t, "core: filter.MonkeyAllocation", core.sites["filter.MonkeyAllocation"], "writerOptionsForLevel")

	// One loop body, started for flushes and for compactions; nothing else
	// waits for background work to exist.
	wantSites(t, "core: db.worker", core.sites["db.worker"], "Open", "Open")
	wantSites(t, "core: db.bgCond.Wait", core.sites["db.bgCond.Wait"], "worker")

	// One accounting site: the function that records an event of a job's
	// type, and every add to a job counter, is finish.
	for _, typ := range []string{"EventFlush", "EventCompaction", "EventTrivialMove", "EventVlogGC"} {
		onlyIn("core: db.events.Add of an iostat."+typ,
			both(core.mentions["iostat."+typ], core.sites["db.events.Add"]), "finish")
	}
	for callee, fns := range core.sites {
		for _, counter := range []string{"Flushes", "BytesFlushed", "Compactions", "TrivialMoves",
			"CompactionBytesRead", "CompactionBytesWritten", "ExpiredDrops"} {
			if strings.HasSuffix(callee, "."+counter+".Add") {
				onlyIn("core: "+callee, fns, "finish")
			}
		}
	}

	// One retire step: the only remover of a log (tables are removed too,
	// by dispose and a failed buildTable) and of a value-log segment.
	wantSites(t, "core: FS.Remove of a db.walPath",
		both(core.sites["db.opts.FS.Remove"], core.sites["db.walPath"]), "retire")
	wantSites(t, "core: db.vlog.Remove", core.sites["db.vlog.Remove"], "retire")
	vlog := parseFuncs(t, "../vlog")
	wantSites(t, "vlog: l.fs.Remove", vlog.sites["l.fs.Remove"], "Remove")

	// One set of instruments per engine, always on: anywhere in the
	// module, an event ring is made only where an engine or a server
	// opens, and a latency histogram set only where an engine opens or
	// the shard router makes the one its engines share.
	var rings, latencies []string
	for _, dir := range moduleDirs(t) {
		pkg := parseFuncs(t, dir)
		for _, fn := range pkg.sites["iostat.NewEventLog"] {
			rings = append(rings, filepath.Base(dir)+"."+fn)
		}
		for _, fn := range pkg.literals["iostat.OpLatencies"] {
			latencies = append(latencies, filepath.Base(dir)+"."+fn)
		}
	}
	wantSites(t, "iostat.NewEventLog", rings, "core.Open", "server.New")
	wantSites(t, "iostat.OpLatencies{}", latencies, "core.Open", "shard.Open")
}

// TestOneCrashLoop pins crash testing to one loop: anywhere in the module,
// test files included, a filesystem is told where to lose power
// (CrashAfter), its operations are counted (OpCount) and a crash image is
// taken (CrashImage) only inside internal/crashtest, the oracle, and the
// vfs package that implements them — apart from the harnesses whose
// property the oracle cannot state, each saying why in its doc comment,
// and one test that counts operations as a cost, not a crash point. The
// oracle is test-only: no non-test file imports it.
func TestOneCrashLoop(t *testing.T) {
	kept := map[string][]string{
		"CrashAfter": {"core.TestCrashMidCheckpoint", "core.TestFollowerCrashMidApply"},
		"CrashImage": {"core.TestCrashMidCheckpoint", "core.TestFollowerCrashMidApply"},
		"OpCount":    {"core.TestGCResumesPastCleanSegments"},
	}
	got := map[string][]string{}
	for _, dir := range moduleDirs(t) {
		pkg := filepath.Base(dir)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "lsmkv/internal/crashtest" && !strings.HasSuffix(name, "_test.go") {
					t.Errorf("%s imports the crash oracle outside a test", name)
				}
			}
			if pkg == "crashtest" || pkg == "vfs" {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && kept[sel.Sel.Name] != nil {
						got[sel.Sel.Name] = append(got[sel.Sel.Name], pkg+"."+fn.Name.Name)
					}
					return true
				})
			}
		}
	}
	for method, want := range kept {
		slices.Sort(got[method])
		if fns := slices.Compact(got[method]); !slices.Equal(fns, want) {
			t.Errorf("%s is called in %v, want only in crashtest, vfs and %v", method, fns, want)
		}
	}
}

// moduleDirs lists the directories of the main module's Go packages
// (benchmark/ is a module of its own).
func moduleDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") && !slices.Contains(dirs, filepath.Dir(p)) {
			dirs = append(dirs, filepath.Dir(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}
