package core

import (
	"slices"
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
}
