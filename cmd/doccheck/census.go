package main

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
)

// unlinkedAllowed names the functions of internal/ packages that no
// shipped binary links but that stay, each with its reason. An entry is
// a function ("internal/kv.InternalKey.Clone"), every method of a type
// ("internal/shard.scanHeap"), a file ("internal/vfs/mem.go") or a
// package ("internal/crashtest"). An entry must excuse at least one
// declared function and no linked one, so it outlives neither the code
// it excuses nor the day a program starts calling that code.
var unlinkedAllowed = []struct{ name, reason string }{
	{"internal/vfs/mem.go", "in-memory test filesystem: the tests of many packages run engines on it"},
	{"internal/vfs/faulty.go", "fault-injecting test filesystem: the crash and error-path tests"},
	{"internal/vfs.WriteFile", "tests write fixtures through any vfs.FS with it"},
	{"internal/crashtest", "the crash oracle: only tests import it"},
	{"internal/shard.DB.StopTuning", "public API: lsmkv.DB embeds shard.DB"},
	{"internal/shard.scanHeap.Push", "container/heap.Interface requires it; the scanner never grows the heap"},
	{"internal/shard.scanHeap.Pop", "container/heap.Interface requires it; the scanner never shrinks the heap"},
	{"internal/filter/elastic.go", "ElasticBF is on trial: ROADMAP item 10 decides its fate by measurement"},
	{"internal/filter.BitsPerKeyForFPR", "analytical reference the Bloom FPR tests measure against"},
	{"internal/filter.CuckooFPR", "analytical reference the cuckoo FPR tests measure against"},
	{"internal/filter.RibbonFPR", "analytical reference the ribbon FPR tests measure against"},
	{"internal/filter.GeometricLevels", "Monkey's reference tree shape, which its tests allocate over"},
	{"internal/filter.UniformAllocation", "the uniform baseline Monkey's tests compare against"},
	{"internal/filter.ExpectedFalseProbes", "the cost both Monkey tests compare allocations by"},
	{"internal/cost.BufferFilterCurve", "analytical reference: EXPERIMENTS.md E7 cites it and its test checks it"},
	{"internal/sstable.Reader.FilterMemory", "Monkey's engine test measures built tables' filter bits per level with it"},
	{"internal/kv.InternalKey.Clone", "the iterator-order tests of three packages keep keys with it"},
	{"internal/client.Client.PutSeq", "GETSEQ's client half: the replication end-to-end test drives the opcode"},
	{"internal/client.Client.BatchSeq", "GETSEQ's client half: the replication end-to-end test drives the opcode"},
	{"internal/client.Client.GetAtSeq", "GETSEQ's client half: the replication end-to-end test drives the opcode"},
	{"internal/server.DecodeSeqAcks", "GETSEQ's client half: the replication end-to-end test drives the opcode"},
}

// checkCensus complains about every function declared in a non-test file
// under root/internal that none of bins links and no allowlist entry
// excuses, and about every entry that excuses nothing or a linked
// function. bins must be built with -gcflags=all=-l: an inlined function
// leaves no symbol.
func checkCensus(root string, bins []string, complain func(string, ...any)) {
	used := map[string]bool{} // allowlist entry -> whether it excused a declaration
	for _, a := range unlinkedAllowed {
		used[a.name] = false
	}
	nm, err := exec.Command("go", append([]string{"tool", "nm"}, bins...)...).Output()
	linked := linkedFuncs(string(nm))
	if err == nil {
		err = censusDecls(root, func(name, pos string, keys []string) {
			excused := false
			for _, key := range keys {
				if _, ok := used[key]; ok {
					excused, used[key] = true, true
					if linked[name] {
						complain("census: %s is linked into a shipped binary, but the allowlist entry %q still excuses it", name, key)
					}
				}
			}
			if !excused && !linked[name] {
				complain("census: %s (%s) is linked into no shipped binary: delete it, move it into the test that uses it, or allowlist it with a reason", name, pos)
			}
		})
	}
	if err != nil {
		complain("census: %v", err)
	}
	for _, a := range unlinkedAllowed {
		if !used[a.name] || a.reason == "" {
			complain("census: allowlist entry %q excuses no declared function or gives no reason", a.name)
		}
	}
}

// censusDecls calls visit for every function declared in a non-test Go
// file under root/internal, with its name ("internal/kv.Entry.Size"),
// position, and the keys an allowlist entry can excuse it by: its name,
// its receiver type, its file and its package.
func censusDecls(root string, visit func(name, pos string, keys []string)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(filepath.Join(root, "internal"), func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(file), d.Name()); !ok {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, file)
		rel = filepath.ToSlash(rel)
		pkg := path.Dir(rel)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name, keys := pkg+"."+fn.Name.Name, []string{pkg, rel}
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch t := recv.(type) {
				case *ast.IndexExpr:
					recv = t.X
				case *ast.IndexListExpr:
					recv = t.X
				}
				typ := pkg + "." + recv.(*ast.Ident).Name
				name, keys = typ+"."+fn.Name.Name, append(keys, typ)
			}
			visit(name, fset.Position(fn.Pos()).String(), append(keys, name))
		}
		return err
	})
}

// linkedFuncs reads go tool nm's listing of the binaries' symbols and
// returns the set of the module's functions they contain, named as
// censusDecls names them. A closure, method value, wrapper or generic
// instance counts as its enclosing declaration.
func linkedFuncs(nm string) map[string]bool {
	linked := map[string]bool{}
	for _, line := range strings.Split(stripTypeArgs(nm), "\n") {
		// "[file:] addr kind name": the name is last and, with its type
		// arguments gone, free of spaces.
		f := strings.Fields(line)
		if len(f) < 3 || !strings.EqualFold(f[len(f)-2], "T") {
			continue
		}
		sym, ok := strings.CutPrefix(f[len(f)-1], "lsmkv/")
		if !ok {
			continue
		}
		sym = strings.TrimSuffix(strings.NewReplacer("(*", "", ")", "").Replace(sym), "-fm")
		// pkg.F.func1 links pkg.F: mark every prefix that ends before a
		// dot after the package's.
		dot := strings.LastIndexByte(sym, '/') + 1
		dot += strings.IndexByte(sym[dot:], '.')
		for i := len(sym); i > dot; i = strings.LastIndexByte(sym[:i], '.') {
			linked[sym[:i]] = true
		}
	}
	return linked
}

// stripTypeArgs removes every bracketed type-argument list, nested ones
// included.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
