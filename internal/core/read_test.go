package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"

	"lsmkv/internal/kv"
)

// scanSnapshot iterates snap over [lo, hi] as a sharded snapshot's Scan
// does: one Scanner pinned at the snapshot, drained by ScanAll.
func scanSnapshot(snap *Snapshot, lo, hi []byte, fn func(key, value []byte) bool) error {
	sc, err := snap.NewScanner(lo, hi)
	if err != nil {
		return err
	}
	defer sc.Close()
	return ScanAll(sc, fn)
}

// TestCorruptTTLSurfacesOnEveryRead: a KindSetTTL entry too short to hold
// its expiry prefix (a local write cannot make one — check rejects it —
// so it is planted in the memtable, the way commit would) is an error on
// every read form. Get
// always said so; scans used to skip the key as if it had expired.
func TestCorruptTTLSurfacesOnEveryRead(t *testing.T) {
	db := openDB(t, smallOpts(t.TempDir()))
	defer db.Close()
	if err := db.Put([]byte("a"), []byte("fine")); err != nil {
		t.Fatal(err)
	}
	db.commitMu.Lock()
	db.insert(db.lastSeq()+1, []BatchOp{{Kind: kv.KindSetTTL, Key: []byte("b"), Value: []byte("short")}})
	db.mu.Lock()
	db.seq.Add(1)
	db.mu.Unlock()
	db.commitMu.Unlock()
	snap := db.NewSnapshot()
	defer snap.Release()

	corrupt := func(form string, err error) {
		t.Helper()
		if err == nil || errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "corrupt ttl value") {
			t.Errorf("%s: err = %v, want a corrupt-ttl error", form, err)
		}
	}
	_, err := db.Get([]byte("b"))
	corrupt("Get", err)
	_, err = snap.Get([]byte("b"))
	corrupt("Snapshot.Get", err)
	seen := 0
	corrupt("Scan", db.Scan(nil, nil, func(k, v []byte) bool { seen++; return true }))
	if seen != 1 {
		t.Errorf("Scan handed fn %d pairs before the corrupt entry, want 1", seen)
	}
	corrupt("Snapshot scan", scanSnapshot(snap, nil, nil, func(k, v []byte) bool { return true }))
	sc, err := db.NewScanner(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for sc.Next() {
	}
	corrupt("NewScanner", sc.Err())
	corrupt("Scanner.Close", sc.Close())
}

// TestOneReadPath pins the read path's structure, as TestOneWritePath
// does the write path's: across the non-test files of sstable, core and
// shard, each read-side decision has one site. A second copy fails here,
// listing where it is, instead of in review.
func TestOneReadPath(t *testing.T) {
	// sstable: data blocks are read from the file in one place. (OpenReader
	// reads the footer and the pinned auxiliary blocks through its own
	// local handle, spelled f.ReadAt.)
	sstable := parseFuncs(t, "../sstable")
	wantSites(t, "sstable: data-block ReadAt (r.f.ReadAt)", sstable.sites["r.f.ReadAt"], "loadBlock")
	wantSites(t, "sstable: decodeBlockInto", sstable.sites["decodeBlockInto"], "loadBlock")

	// core: an entry's kind is interpreted — expiry prefix split, value
	// pointer decoded — by the resolver alone. A merge's collapse filter
	// asks the resolver whether a TTL entry is still live, and value-log GC
	// compares a pointer's encoding without decoding it.
	core := parseFuncs(t, ".")
	wantSites(t, "core: kv.SplitExpiryValue", core.sites["kv.SplitExpiryValue"], "visible")
	wantSites(t, "core: vlog.DecodePointer", core.sites["vlog.DecodePointer"], "visible")
	// A version is ref'd for reads in one place: publishLocked, on behalf of
	// the read state it publishes. (The site moved there from pin, which
	// now takes a reference on the published state — tryRef — instead of
	// taking db.mu to ref db.current, so that no read waits on the mutex.)
	// Checkpoint and compaction take theirs through viewLocked, inside
	// larger critical sections, and buildVersion refs table handles, not a
	// version.
	var refs []string
	for callee, fns := range core.sites {
		if strings.HasSuffix(callee, ".ref") {
			refs = append(refs, fns...)
		}
	}
	wantSites(t, "core: x.ref()", refs, "publishLocked", "viewLocked", "buildVersion")
	// pin is the only taker of read-state references and touches no mutex.
	wantSites(t, "core: rs.tryRef()", core.sites["rs.tryRef"], "pin")
	for callee, fns := range core.sites {
		for _, fn := range fns {
			if fn == "pin" && strings.Contains(callee, "mu.") {
				t.Errorf("core: pin calls %s; a read must not wait on a mutex", callee)
			}
		}
	}

	// shard: the shard count is compared with 1 only where the answer is a
	// matter of on-disk layout or output format.
	allowed := map[string]string{
		"Open":        "layout: a fresh directory gets a marker (or a migration), and stale root files are swept, only when sharded",
		"shardOpts":   "layout: a lone engine lives in the root, several in shard-i/ with a log prefix",
		"Checkpoint":  "layout: the checkpoint mirrors the source's",
		"DebugString": "format: the per-shard header is printed only when there are several",
		"Of":          "routing: the jump hash is undefined below one bucket, and one bucket needs no hash",
	}
	shard := parseFuncs(t, "../shard")
	for _, fn := range shard.nCompares {
		if allowed[fn] == "" {
			t.Errorf("shard: %s compares the shard count with 1; only %v may (layout or format)", fn, sortedKeys(allowed))
		}
	}
}

// TestOnePointReadWalk pins the point read to one batch walk, in
// TestOneMaintenancePath's idiom: every point read — a single Get is a
// batch of one — pins its view, screens a table by filter, probes it and
// moves a run cursor in walk alone, and the read events those steps count
// reach Stats through a caller's tally and nowhere else. A second walk
// beside it fails here.
func TestOnePointReadWalk(t *testing.T) {
	core := parseFuncs(t, ".")
	suffixed := func(suffix string) (out []string) {
		for callee, fns := range core.sites {
			if strings.HasSuffix(callee, suffix) {
				out = append(out, fns...)
			}
		}
		return out
	}
	wantSites(t, "core: x.MayContain", suffixed(".MayContain"), "walk")
	wantSites(t, "core: table probe (probe.Get)", core.sites["probe.Get"], "walk")
	wantSites(t, "core: sstable.NewProbe", core.sites["sstable.NewProbe"], "walk")
	wantSites(t, "core: run cursor (cursor{})", core.literals["cursor"], "walk")
	wantSites(t, "core: run cursor (x.seek)", suffixed(".seek"), "walk")
	// Among the point reads, walk alone pins a view; the rest of pin's
	// callers are range reads and whole-tree readers.
	wantSites(t, "core: x.db.pin", suffixed("db.pin"), "walk", "newScanner", "Levels", "IndexMemory", "prefetchOutputs")
	wantSites(t, "core: x.db.walk", suffixed("db.walk"), "walkOne", "multiGet")
	wantSites(t, "core: x.tally.FlushTo", suffixed(".tally.FlushTo"), "walk")

	sstable := parseFuncs(t, "../sstable")
	wantSites(t, "sstable: r.loadBlock", sstable.sites["r.loadBlock"], "Get", "PrefetchBlock")
	wantSites(t, "sstable: ti.r.loadBlock", sstable.sites["ti.r.loadBlock"], "loadBlock")
	wantSites(t, "sstable: p.Get", sstable.sites["p.Get"], "Get")

	// One increment site per read event: the counters a tally carries are
	// added to Stats by Tally.FlushTo only, never bumped directly.
	for _, pkg := range []funcIndex{core, sstable} {
		for callee, fns := range pkg.sites {
			for _, counter := range []string{"PointLookups", "RunsProbed", "FilterProbes", "FilterNegatives",
				"FilterFalsePositives", "BlockReads", "BytesRead", "BlockCacheHits", "BlockCacheMisses",
				"BlockCacheAdmits", "BlockCacheRejects"} {
				if strings.HasSuffix(callee, "."+counter+".Add") {
					t.Errorf("%s is called in %v; a read event reaches Stats through a tally", callee, fns)
				}
			}
		}
	}
}

// funcIndex is what TestOneReadPath and TestOneMaintenancePath look at in
// one package's non-test files: per rendered callee ("r.f.ReadAt",
// "kv.SplitExpiryValue") the enclosing function of every call, per
// rendered selector ("iostat.EventFlush") the enclosing function of every
// mention, per rendered composite-literal type ("iostat.OpLatencies") the
// enclosing function of every literal, and the functions that compare a
// shard count (n, db.n, s.db.n) with the literal 1.
type funcIndex struct {
	sites     map[string][]string
	mentions  map[string][]string
	literals  map[string][]string
	nCompares []string
}

func parseFuncs(t *testing.T, dir string) funcIndex {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := funcIndex{sites: map[string][]string{}, mentions: map[string][]string{}, literals: map[string][]string{}}
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
					case *ast.CompositeLit:
						if typ := render(n.Type); typ != "" {
							x.literals[typ] = append(x.literals[typ], fn.Name.Name)
						}
					case *ast.BinaryExpr:
						a, b := render(n.X), render(n.Y)
						isN := func(s string) bool { return s == "n" || strings.HasSuffix(s, ".n") }
						if n.Op != token.ADD && n.Op != token.SUB && (isN(a) && b == "1" || a == "1" && isN(b)) {
							x.nCompares = append(x.nCompares, fn.Name.Name)
						}
					}
					return true
				})
			}
		}
	}
	return x
}

// render spells an identifier, selector chain or integer literal; other
// expressions render empty.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.BasicLit:
		return e.Value
	case *ast.SelectorExpr:
		if x := render(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}

func wantSites(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	got = append([]string(nil), got...)
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s is in %v, want exactly %v", what, got, want)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
