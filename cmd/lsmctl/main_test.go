package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/server"
)

// runCaptured runs one lsmctl command line against e and returns what it
// printed, with the error (if any) as a last line.
func runCaptured(t *testing.T, e *env, args ...string) string {
	t.Helper()
	return captured(t, func() error { return runCommand(e, args) })
}

// captured returns what fn printed, with its error (if any) as a last
// line.
func captured(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() { b, _ := io.ReadAll(r); out <- string(b) }()
	stdout := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = stdout
	w.Close()
	s := <-out
	if err != nil {
		s += fmt.Sprintf("error: %v\n", err)
	}
	return s
}

// TestSharedCommandsAgree runs every command written against the shared
// method set through both transports — an in-process DB, and a client of
// a server over a second DB — and requires identical output: they are
// one implementation, so the only thing that can differ is the store.
func TestSharedCommandsAgree(t *testing.T) {
	open := func() *lsmkv.DB {
		db, err := lsmkv.Open(t.TempDir(), lsmkv.Default())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	local := open()
	served := open()
	srv, err := server.New(server.Config{DB: served})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	cl, err := client.Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	viaDB, viaAddr := &env{store: local, db: local}, &env{store: cl, cl: cl}
	for _, line := range []string{
		"put a 1", "put b 2", "get a", "get missing", "mget a b missing", "mget",
		"delete a", "get a", "delete",
		"incr ctr", "incr ctr 5", "incr ctr -2", "incr",
		"cas c - v1", "cas c v1 v2", "cas c stale v3", "get c",
		"put-ttl lease held 1h", "get lease", "put-ttl lease held soon",
		"put-ttl lease gone -5s", "get lease", "put-ttl lapsed v 0s", "get lapsed",
		"fill 1200", "scan user000000000000 user000000000004", "scan a z", "scan user0 user9",
	} {
		args := strings.Fields(line)
		if got, want := runCaptured(t, viaAddr, args...), runCaptured(t, viaDB, args...); got != want {
			t.Errorf("lsmctl %s\n-addr printed:\n%s-db printed:\n%s", line, got, want)
		}
	}

	// A transport-only command says which flag it needs.
	if out := runCaptured(t, viaDB, "ping"); !strings.Contains(out, "requires -addr") {
		t.Errorf("ping with -db: %q", out)
	}
	if out := runCaptured(t, viaAddr, "compact"); !strings.Contains(out, "requires -db") {
		t.Errorf("compact with -addr: %q", out)
	}
	// The list an unknown command is answered with is the table's.
	if out := runCaptured(t, viaDB, "nope"); !strings.Contains(out, "put|put-ttl|get|") ||
		!strings.Contains(out, "|gc)") || strings.Contains(out, "ping") {
		t.Errorf("unknown command with -db: %q", out)
	}
}

// TestLocalFillSurvivesClose: fill over -db writes one WAL record per
// 500 keys under the store's own sync policy, and what Close leaves on
// disk holds every one of them.
func TestLocalFillSurvivesClose(t *testing.T) {
	dir := t.TempDir()
	db, err := lsmkv.Open(dir, lsmkv.Default())
	if err != nil {
		t.Fatal(err)
	}
	if out := runCaptured(t, &env{store: db, db: db}, "fill", "1201"); out != "loaded 1201 entries\n" {
		t.Fatalf("fill: %q", out)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = lsmkv.Open(dir, lsmkv.Default()); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := 0
	if err := db.Scan(nil, nil, func(k, v []byte) bool { n++; return true }); err != nil || n != 1201 {
		t.Fatalf("after reopen: %d keys, err %v; want 1201", n, err)
	}
}

// TestHeaderListsCommands holds main.go's header comment to the command
// table, both ways: each command appears once, with its argument
// synopsis, under the heading for the transports it works over.
func TestHeaderListsCommands(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(src), "\npackage main")
	type entry struct{ args, only string }
	listed := map[string]entry{}
	only, in := "", false
	for _, line := range strings.Split(header, "\n") {
		switch {
		case strings.Contains(line, "Either way"):
			only, in = "", true
		case strings.Contains(line, "Only with -db"):
			only = "db"
		case strings.Contains(line, "Only with -addr"):
			only = "addr"
		case strings.Contains(line, "Design flags"):
			in = false
		}
		item, ok := strings.CutPrefix(line, "//\t")
		if !ok || !in {
			continue
		}
		item, _, _ = strings.Cut(item, "#")
		name, args, _ := strings.Cut(strings.TrimSpace(item), " ")
		if _, dup := listed[name]; dup {
			t.Errorf("header lists %q twice", name)
		}
		listed[name] = entry{strings.TrimSpace(args), only}
	}
	for _, c := range commands {
		if got, ok := listed[c.name]; !ok {
			t.Errorf("command %q is not in the header comment", c.name)
		} else if want := (entry{c.args, c.only}); got != want {
			t.Errorf("header has %q as %+v, the table has %+v", c.name, got, want)
		}
		delete(listed, c.name)
	}
	for name := range listed {
		t.Errorf("header lists %q, which is not a command", name)
	}
}

// TestTunerStatusListsEveryLiveKnob: `tune status` prints every live row
// of core.Knobs through the one renderer the retune and tune events use;
// its own list once left out l0-trigger and debt-limit, so the tuner's
// L0-trigger moves never showed there.
func TestTunerStatusListsEveryLiveKnob(t *testing.T) {
	db, err := lsmkv.Open(t.TempDir(), lsmkv.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.StartTuning(time.Hour)
	out := captured(t, func() error {
		printTunerStatus(db.TunerStatus())
		return nil
	})
	_, knobs, _ := strings.Cut(out, "knobs: ")
	knobs, _, _ = strings.Cut(knobs, "\n")
	for i := range core.Knobs {
		if k := &core.Knobs[i]; k.Live != nil && !strings.Contains(" "+knobs, " "+k.Name+"=") {
			t.Errorf("tune status knob line %q lacks %s", knobs, k.Name)
		}
	}
}
