package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strings"
	"testing"

	"lsmkv/internal/vfs"
)

// knobField is the Go name of k's field in Options.
func knobField(k *Knob) string {
	var o Options
	v := reflect.ValueOf(&o).Elem()
	for _, f := range reflect.VisibleFields(v.Type()) {
		if !f.Anonymous && v.FieldByIndex(f.Index).Addr().Interface() == k.Field(&o) {
			return f.Name
		}
	}
	return ""
}

// TestOneOptionsTable holds the design space to one declaration: every
// knob is one row of Knobs, Tunables is exactly the live rows, and no
// other site in the engine, the facade, the tuner or the tools restates a
// default or a clamp, copies design fields one by one between option
// structs, or defines an engine flag of its own.
func TestOneOptionsTable(t *testing.T) {
	var o Options
	var tun Tunables
	rows, live := map[any]int{}, map[any]int{}
	fields := map[string]bool{}
	for i := range Knobs {
		k := &Knobs[i]
		rows[k.Field(&o)]++
		if k.Live != nil {
			live[k.Live(&tun)]++
		}
		if fields[knobField(k)] = true; knobField(k) == "" {
			t.Errorf("row %s addresses no field of Options", k.Name)
		}
		// An enum row lists its names in value order: where the type names
		// its own values, the two agree.
		v := reflect.New(k.value(&o).Type()).Elem()
		if _, ok := v.Interface().(fmt.Stringer); ok && k.Enum != nil {
			for x, name := range k.Enum {
				if k.set(v, float64(x)); fmt.Sprint(v.Interface()) != name {
					t.Errorf("row %s names value %d %q, which calls itself %v", k.Name, x, name, v.Interface())
				}
			}
		}
	}
	notKnob := map[string]bool{"TrackLatency": true, "Logf": true}
	d := reflect.ValueOf(&o.Design).Elem()
	for i := 0; i < d.NumField(); i++ {
		if f := d.Type().Field(i); f.IsExported() {
			if n := rows[d.Field(i).Addr().Interface()]; n != 1 && !notKnob[f.Name] || n != 0 && notKnob[f.Name] {
				t.Errorf("lsmkv.Options.%s has %d rows in Knobs; a knob has one, only TrackLatency and Logf have none", f.Name, n)
			}
		}
	}
	tv := reflect.ValueOf(&tun).Elem()
	for i := 0; i < tv.NumField(); i++ {
		fields[tv.Type().Field(i).Name] = true
		if n := live[tv.Field(i).Addr().Interface()]; n != 1 {
			t.Errorf("Tunables.%s is the live field of %d rows, want 1", tv.Type().Field(i).Name, n)
		}
	}
	if len(live) != tv.NumField() {
		t.Errorf("%d live rows for %d Tunables fields", len(live), tv.NumField())
	}

	knob := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok && fields[sel.Sel.Name] {
			return sel.Sel.Name
		}
		return ""
	}
	// literal reports whether e holds a nonzero literal and no knob field:
	// a value stated rather than derived.
	literal := func(e ast.Expr) bool {
		lit, derived := false, false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				lit = lit || n.Value != "0"
			case ast.Expr:
				derived = derived || knob(n) != ""
			}
			return true
		})
		return lit && !derived
	}
	bound := func(e ast.Expr) bool { // min or max against a literal
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "min" && id.Name != "max" {
			return false
		}
		for _, a := range call.Args {
			if _, ok := a.(*ast.BasicLit); ok {
				return true
			}
		}
		return false
	}
	optionStruct := func(e ast.Expr) bool {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "core" && pkg.Name != "lsmkv" {
				return false
			}
			e = sel.Sel
		}
		id, ok := e.(*ast.Ident)
		return ok && (id.Name == "Options" || id.Name == "Design" || id.Name == "Tunables")
	}
	engineFlags := false
	for _, dir := range []string{".", "../compaction", "../shard", "../tuner", "../server", "../client", "../..",
		"../../cmd/lsmserver", "../../cmd/lsmctl", "../../cmd/lsmtune", "../../cmd/doccheck"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				if strings.HasSuffix(name, "knobs.go") && dir == "." {
					continue // the table itself
				}
				server := dir == "../../cmd/lsmserver"
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if ok && fn.Name.Name == "resolve" && dir == "." {
						continue // the one place rows meet the cross-row rules
					}
					copies := 0
					ast.Inspect(decl, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.IfStmt:
							cond := false
							ast.Inspect(n.Cond, func(c ast.Node) bool {
								if b, ok := c.(*ast.BinaryExpr); ok && (knob(b.X) != "" && literal(b.Y) || knob(b.Y) != "" && literal(b.X)) {
									cond = true
								}
								return true
							})
							for _, s := range n.Body.List {
								if as, ok := s.(*ast.AssignStmt); ok && cond && knob(as.Lhs[0]) != "" {
									t.Errorf("%s: clamps %s under a literal test; the row's range says what is legal", fset.Position(as.Pos()), knob(as.Lhs[0]))
								}
							}
						case *ast.AssignStmt:
							for i, lhs := range n.Lhs {
								f := knob(lhs)
								if f == "" || len(n.Rhs) != len(n.Lhs) {
									continue
								}
								switch rhs := n.Rhs[i]; {
								case literal(rhs) || bound(rhs):
									t.Errorf("%s: assigns %s a literal default or bound; the row holds it", fset.Position(n.Pos()), f)
								case knob(rhs) == f:
									copies++
								}
								if server && n.Tok == token.ASSIGN {
									t.Errorf("%s: lsmserver sets %s itself; an engine flag is a row's Flag", fset.Position(n.Pos()), f)
								}
							}
						case *ast.CompositeLit:
							for _, e := range n.Elts {
								if kv, ok := e.(*ast.KeyValueExpr); ok && optionStruct(n.Type) && knob(kv.Value) != "" {
									if id, ok := kv.Key.(*ast.Ident); ok && id.Name == knob(kv.Value) {
										copies++
									}
								}
							}
						case *ast.CallExpr:
							sel, ok := n.Fun.(*ast.SelectorExpr)
							if !ok || !server || len(n.Args) == 0 {
								break
							}
							if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" && sel.Sel.Name == "EngineFlags" {
								engineFlags = true
							}
							if name, ok := n.Args[0].(*ast.BasicLit); ok && sel.Sel.Name != "Lookup" {
								for i := range Knobs {
									if `"`+Knobs[i].Name+`"` == name.Value {
										t.Errorf("%s: lsmserver defines -%s itself; it is the %s row's flag", fset.Position(n.Pos()), Knobs[i].Name, Knobs[i].Name)
									}
								}
							}
						}
						return true
					})
					if copies > 1 {
						t.Errorf("%s: copies %d design fields one by one between option structs; share the struct", fset.Position(decl.Pos()), copies)
					}
				}
			}
		}
	}
	if !engineFlags {
		t.Error("lsmserver does not define its engine flags through core.EngineFlags")
	}
}

// TestRetuneRejectsOutOfRange: a live knob moved outside its row's range
// is refused with an error naming it and nothing moves — a SizeRatio of 1
// once retuned a T=4 engine to T=10. Zero still means "keep".
func TestRetuneRejectsOutOfRange(t *testing.T) {
	db, err := Open(crashDBOpts(vfs.NewMem(), false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := db.Tunables()
	for name, bad := range map[string]Tunables{
		"T = 1": {SizeRatio: 1}, "K = -1": {K: -1, Z: 1}, "bits/key = -2": {FilterBitsPerKey: -2},
		"l0-trigger = -1": {L0CompactionTrigger: -1}, "l0-stop = -3": {L0StopTrigger: -3},
	} {
		if err := db.Retune(bad); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Retune(%+v) = %v, want an error naming %q", bad, err, name)
		}
	}
	if err := db.Retune(Tunables{}); err != nil {
		t.Fatal(err)
	}
	if after := db.Tunables(); after != before {
		t.Fatalf("rejected retunes moved the engine: %+v -> %+v", before, after)
	}
}
