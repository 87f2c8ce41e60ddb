package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one invocation: a workload, a seed, and how long to
// measure.
type runConfig struct {
	w       workload
	sz      sizing
	seed    int64
	seconds float64
	trace   bool
	// dir is this run's private directory; everything it writes is
	// under it.
	dir string
	// spansPath, when set, receives the traced run's spans as JSON.
	spansPath string
	// setups is how many times the run sets the system up, and probeScale
	// scales the layer probes' iteration counts. Only the smoke test
	// departs from newRunConfig's values.
	setups     int
	probeScale float64
}

// newRunConfig is a run at the benchmark's own size. Set-up is too
// short to repeat well, so the untraced run sets up three times and
// reports the median; the traced run sets up twice, to see that the
// tree settles to one shape.
func newRunConfig(w workload, seed int64, seconds float64, trace bool, dir string) runConfig {
	cfg := runConfig{w: w, sz: sizeFor(1), seed: seed, seconds: seconds, trace: trace, dir: dir, setups: 3, probeScale: 1}
	if trace {
		cfg.setups = 2
	}
	return cfg
}

// warmShare is the untimed warm-up before the window, as a share of it.
// untracedShare, clientShare and engineShare are the traced run's three
// windows.
const (
	warmShare     = 0.1
	untracedShare = 0.15
	clientShare   = 0.5
	engineShare   = 0.2
)

// window is the given share of the measured time.
func (c runConfig) window(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// result is what one run reports, as a result file keeps it. The
// driver reads only correct, attempted, failed and metrics, from the
// last line of standard output (see main.go); the rest goes to the
// result file and to standard error.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// PerClass holds the untraced run's latencies by call class
	// (read_p50_us, write_p95_us, scan_p99_us, ...) for the classes the
	// workload has. They cannot be in Metrics, which the driver wants
	// non-zero on every workload, but result files keep them and -compare
	// bounds the medians and p95s like lat_p50_us and lat_p95_us.
	PerClass map[string]metric `json:"per_class,omitempty"`
	// Shape is the tree the load settled to; ShapeMismatch says the
	// run's set-ups did not all settle to it, so its numbers should not
	// be compared with other runs'.
	Shape         string         `json:"shape"`
	ShapeMismatch bool           `json:"shape_mismatch"`
	Samples       map[string]int `json:"samples"`
	Notes         []string       `json:"notes"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// claim records whether a workload loads the layers it says it does.
// A claim not met is reported, never hidden, but does not make the
// answers wrong.
func (r *result) claim(ok bool, format string, args ...any) {
	verdict := "claim met: "
	if !ok {
		verdict = "CLAIM NOT MET: "
	}
	r.note(verdict+format, args...)
}

// setUpRepeated sets the system up cfg.setups times, each in a fresh
// directory, and keeps the last. It returns the time each took.
func setUpRepeated(cfg runConfig, or *oracle, res *result) (*store, []float64, error) {
	var st *store
	var took []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(st.dir); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		st, err = setUp(filepath.Join(cfg.dir, "store-"+strconv.Itoa(i)), cfg.sz, or)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		took = append(took, time.Since(start).Seconds())
		if res.Shape == "" {
			res.Shape = st.shape
		} else if st.shape != res.Shape {
			res.ShapeMismatch = true
			res.note("shape_mismatch: set-up %d settled to %q, set-up 0 to %q", i, st.shape, res.Shape)
		}
	}
	return st, took, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rssBytes is the process's resident set now.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// finish ends a run the same way on every workload: stop serving, let
// flushes and compactions drain, close, and on a write workload reopen
// and check every acknowledged write. It returns the engine's counters
// as they stood after the drain.
func finish(st *store, or *oracle, w workload, res *result) (end counters, err error) {
	if err = st.stopServing(); err != nil {
		return
	}
	if err = st.drain(); err != nil {
		return
	}
	end = st.counters()
	if err = st.close(); err != nil || !w.writes {
		return
	}
	if err = st.open(); err != nil {
		return
	}
	if verr := st.verifyAll(or); verr != nil {
		res.Correct = false
		res.note("after reopen: %v", verr)
	}
	err = st.close()
	return
}

func (r *result) absorb(w *results) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	if w.failed > 0 {
		r.note("first failure: %s", w.firstFailure)
	}
}

// runEndToEnd is the untraced run: every end-to-end metric and nothing
// else.
func runEndToEnd(cfg runConfig) (*result, error) {
	res := &result{Correct: true, Workload: cfg.w.name, Seed: cfg.seed, Samples: map[string]int{}}
	or := newOracle(cfg.sz, cfg.seed)
	st, setups, err := setUpRepeated(cfg, or, res)
	if err != nil {
		return nil, err
	}
	defer st.close()
	// The load's garbage is returned before the window, so mem_mb is the
	// serving system's memory and not the loader's.
	debug.FreeOSMemory()

	callers := newCallers(cfg.w, cfg.sz, or, cfg.seed, overClients(st))
	res.absorb(drive(callers, cfg.window(warmShare), nil))
	before := st.counters()
	// Memory and space are sampled inside the window and reported as the
	// median sample: the state after a drain depends on where in its
	// compaction cycle the window happened to end.
	var rss, space []float64
	tick := 0
	win := drive(callers, cfg.window(1), func() {
		if b := rssBytes(); b > 0 {
			rss = append(rss, float64(b)/1e6)
		}
		if tick++; tick%4 == 0 {
			if disk, err := st.diskBytes(); err == nil {
				space = append(space, float64(disk)/float64(or.live.Load()*entryBytes))
			}
		}
	})
	res.absorb(win)
	inWindow := st.counters().sub(before)

	end, err := finish(st, or, cfg.w, res)
	if err != nil {
		return nil, err
	}
	if len(rss) == 0 { // no /proc: fall back to what the Go runtime holds
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rss = []float64{float64(ms.Sys) / 1e6}
	}
	if len(space) == 0 {
		return nil, fmt.Errorf("the window was too short to sample the store's size")
	}

	m := newMetricSet(endToEndUnits)
	m.set("setup_s", median(setups))
	m.set("ops_s", win.rate(cfg.window(1)))
	m.set("lat_p50_us", win.quantile(cfg.w.primary, 0.50))
	m.set("lat_p95_us", win.quantile(cfg.w.primary, 0.95))
	m.set("write_amp", float64(st.loadWritten+end[bytesWritten])/float64(or.writes.Load()*entryBytes))
	m.set("space_amp", median(space))
	m.set("mem_mb", median(rss))
	res.Metrics = m.values
	for name := range endToEndUnits {
		if v, ok := m.values[name]; !ok || v.Value <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", name)
		}
	}
	res.PerClass = map[string]metric{}
	for c := range win.lat {
		if n := win.samples(opClass(c)); n > 0 {
			res.Samples[classNames[c]] = n
			res.PerClass[classKinds[c]+"_p50_us"] = metric{win.quantile(opClass(c), 0.50), "us"}
			res.PerClass[classKinds[c]+"_p95_us"] = metric{win.quantile(opClass(c), 0.95), "us"}
			res.PerClass[classKinds[c]+"_p99_us"] = metric{win.quantile(opClass(c), 0.99), "us"}
		}
	}
	res.Samples["setup"], res.Samples["mem"], res.Samples["space"] = len(setups), len(rss), len(space)
	res.Correct = res.Correct && res.Failed == 0

	hitRate := ratio(inWindow[cacheHits], inWindow[cacheHits]+inWindow[cacheMisses])
	switch cfg.w.name {
	case "get-hot":
		res.claim(hitRate >= 0.98, "cache hit rate %.3f >= 0.98", hitRate)
	case "mget-cold":
		res.claim(hitRate <= 0.2, "cache hit rate %.3f <= 0.2", hitRate)
	case "put-sync":
		res.claim(inWindow[flushes] >= 50 && inWindow[compactions] >= 10,
			"%d flushes (>= 50) and %d compactions (>= 10) inside the window", inWindow[flushes], inWindow[compactions])
	}
	if !cfg.w.writes {
		res.claim(inWindow[flushes]+inWindow[compactions] == 0, "no flush or compaction on a read-only workload")
	}
	return res, nil
}

// ratio is a/b, and 0 when there was nothing to divide by.
func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runTraced is the traced run: every per-layer metric. The end-to-end
// numbers never come from here.
func runTraced(cfg runConfig) (*result, error) {
	res := &result{Correct: true, Workload: cfg.w.name, Seed: cfg.seed, Trace: true, Samples: map[string]int{}}
	m := newMetricSet(perLayerUnits)
	or := newOracle(cfg.sz, cfg.seed)
	st, _, err := setUpRepeated(cfg, or, res)
	if err != nil {
		return nil, err
	}
	defer st.close()
	m.set("core.tree_runs", float64(st.db.TotalRuns()))
	m.set("sstable.index_filter_bytes", float64(st.db.IndexMemory()))
	if res.ShapeMismatch {
		m.set("core.shape_mismatch", 1)
	}
	var deep float64
	for _, l := range st.levels {
		if l.Level < 3 {
			m.set(fmt.Sprintf("core.l%d_bytes", l.Level), float64(l.Bytes))
		} else {
			deep += float64(l.Bytes)
		}
	}
	m.set("core.l3plus_bytes", deep)

	// An untraced window first: what the traced one's rate is compared
	// with.
	warmCallers := newCallers(cfg.w, cfg.sz, or, cfg.seed, overClients(st))
	res.absorb(drive(warmCallers, cfg.window(warmShare), nil))
	untraced := drive(warmCallers, cfg.window(untracedShare), nil)
	res.absorb(untraced)

	// Client depth. The traced op stream has its own callers: the
	// engine-depth replay below starts the same generators from the same
	// state.
	streamSeed := cfg.seed + 1
	clientCallers := newCallers(cfg.w, cfg.sz, or, streamSeed, overClients(st))
	for _, c := range clientCallers {
		c.depth = "client"
	}
	var l0max int
	before := st.counters()
	atClient := drive(clientCallers, cfg.window(clientShare), func() {
		if lv := st.db.Levels(); len(lv) > 0 {
			l0max = max(l0max, lv[0].Runs)
		}
	})
	res.absorb(atClient)
	d := st.counters().sub(before)
	drainStart := time.Now()
	if err := st.drain(); err != nil {
		return nil, err
	}
	if cfg.w.writes {
		m.set("compaction.drain_s", time.Since(drainStart).Seconds())
		puts := int64(atClient.samples(classPut))
		m.set("e2e.window_write_amp", ratio(st.counters()[bytesWritten]-before[bytesWritten], puts*entryBytes))
	}
	untracedRate := untraced.rate(cfg.window(untracedShare))
	m.set("trace.overhead_pct", 100*(untracedRate-atClient.rate(cfg.window(clientShare)))/untracedRate)

	// Engine depth: the same calls on the engine itself, after a reopen.
	if err := st.stopServing(); err != nil {
		return nil, err
	}
	if err := st.db.Close(); err != nil {
		return nil, err
	}
	if err := st.open(); err != nil {
		return nil, err
	}
	engineCallers := newCallers(cfg.w, cfg.sz, or, streamSeed, onEngine(st.db))
	for _, c := range engineCallers {
		c.depth = "engine"
	}
	atEngine := drive(engineCallers, cfg.window(engineShare), nil)
	res.absorb(atEngine)

	p50ns := func(r *results, c opClass) float64 { return 1000 * r.quantile(c, 0.5) }
	m.set("engine.get_ns", p50ns(atEngine, classGet))
	m.set("engine.mget_ns_per_key", p50ns(atEngine, classMget)/mgetKeys)
	m.set("engine.put_ns", p50ns(atEngine, classPut))
	m.set("engine.scan_ns", p50ns(atEngine, classScan))
	m.set("wire.get_self_ns", p50ns(atClient, classGet)-p50ns(atEngine, classGet))
	m.set("wire.mget_self_ns_per_key", (p50ns(atClient, classMget)-p50ns(atEngine, classMget))/mgetKeys)
	m.set("wire.put_self_ns", p50ns(atClient, classPut)-p50ns(atEngine, classPut))

	read := classGet
	if atClient.samples(classGet) == 0 {
		read = classMget
	}
	m.set("e2e.read_p50_us", atClient.quantile(read, 0.50))
	m.set("e2e.read_p99_us", atClient.quantile(read, 0.99))
	m.set("e2e.write_p50_us", atClient.quantile(classPut, 0.50))
	m.set("e2e.write_p99_us", atClient.quantile(classPut, 0.99))
	m.set("e2e.scan_p50_us", atClient.quantile(classScan, 0.50))
	m.set("e2e.scan_p99_us", atClient.quantile(classScan, 0.99))

	// Counts over the client-depth traced window.
	m.set("server.commit_group_size", ratio(d[commitOps], d[commitBatches]))
	m.set("server.resp_buf_allocs", float64(d[respBufAllocs]))
	m.set("server.bytes_in", float64(d[srvBytesIn]))
	m.set("server.bytes_out", float64(d[srvBytesOut]))
	m.set("core.runs_probed_per_lookup", ratio(d[runsProbed], d[pointLookups]))
	m.set("core.block_reads_per_lookup", ratio(d[blockReads], d[pointLookups]))
	m.set("core.l0_runs_max", float64(l0max))
	m.set("core.write_stall_ms", float64(d[writeStallNs])/1e6)
	m.set("core.write_slowdown_ms", float64(d[writeSlowdownNs])/1e6)
	m.set("wal.syncs_per_op", ratio(d[walSyncs], d[writeOps]))
	m.set("filter.negatives_per_lookup", ratio(d[filterNegatives], d[pointLookups]))
	hitRate := ratio(d[cacheHits], d[cacheHits]+d[cacheMisses])
	m.set("cache.hit_rate", hitRate)
	m.set("compaction.flushes", float64(d[flushes]))
	m.set("compaction.count", float64(d[compactions]))
	m.set("compaction.trivial_moves", float64(d[trivialMoves]))
	m.set("compaction.bytes_read", float64(d[compactionBytesRead]))
	m.set("compaction.bytes_written", float64(d[compactionBytesWritten]))
	m.set("vfs.bytes_written", float64(d[bytesWritten]))
	m.set("vfs.bytes_read", float64(d[bytesRead]))

	// Counts the engine's own traces made, per traced lookup.
	var t lookupTrace
	for _, c := range engineCallers {
		t.merge(c.tgt.(*engineTarget).traced)
	}
	m.set("trace.runs_considered_per_lookup", ratio(t.runs, t.lookups))
	m.set("trace.filter_negatives_per_lookup", ratio(t.filterNegatives, t.lookups))
	m.set("trace.filter_false_pos_per_lookup", ratio(t.falsePositives, t.lookups))
	m.set("trace.cache_hits_per_lookup", ratio(t.cacheHits, t.lookups))
	m.set("trace.cache_misses_per_lookup", ratio(t.cacheMisses, t.lookups))

	if err := probeLayers(prober{m, cfg.probeScale}, st.db, cfg.dir, cfg.sz, or, cfg.seed); err != nil {
		return nil, err
	}
	if _, err := finish(st, or, cfg.w, res); err != nil {
		return nil, err
	}
	if cfg.spansPath != "" {
		if err := writeSpans(cfg.spansPath, atClient.spans, atEngine.spans); err != nil {
			return nil, err
		}
	}

	res.Metrics = m.complete()
	for c := range atClient.lat {
		if n := atClient.samples(opClass(c)); n > 0 {
			res.Samples["client."+classNames[c]] = n
			res.Samples["engine."+classNames[c]] = atEngine.samples(opClass(c))
		}
	}
	res.Samples["traced_lookups"] = int(t.lookups)
	res.Correct = res.Correct && res.Failed == 0

	switch cfg.w.name {
	case "get-hot":
		share := ratio(m.values["wire.get_self_ns"].Value, p50ns(atClient, classGet))
		res.claim(share > 0.8, "the wire is %.0f%% (> 80%%) of a get-hot round trip", 100*share)
		res.claim(hitRate >= 0.98, "cache hit rate %.3f >= 0.98", hitRate)
	case "mget-cold":
		share := ratio(m.values["wire.mget_self_ns_per_key"].Value, p50ns(atClient, classMget)/mgetKeys)
		res.claim(share < 0.2, "the wire is %.0f%% (< 20%%) of a mget-cold key", 100*share)
		res.claim(hitRate <= 0.2, "cache hit rate %.3f <= 0.2", hitRate)
	}
	if !cfg.w.writes {
		res.claim(d[flushes]+d[compactions]+d[trivialMoves]+d[compactionBytesRead]+d[compactionBytesWritten] == 0,
			"every compaction.* count is 0 on a read-only workload")
	}
	return res, nil
}

// writeSpans writes both depths' spans. The engine-depth span of an op
// names the client-depth span of the same op as its parent; the wire's
// self time is the parent's duration minus the child's.
func writeSpans(path string, atClient, atEngine []span) error {
	type spanJSON struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent,omitempty"`
		Op      string `json:"op"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	op := func(s span) string { return fmt.Sprintf("%d/%d", s.caller, s.seq) }
	parents := make(map[string]int, len(atClient))
	out := make([]spanJSON, 0, len(atClient)+len(atEngine))
	for _, s := range append(atClient, atEngine...) {
		j := spanJSON{
			ID: len(out) + 1, Op: op(s), Name: s.depth + "." + classNames[s.class],
			StartNs: s.startNs, EndNs: s.endNs,
		}
		if s.depth == "client" {
			parents[j.Op] = j.ID
		} else {
			j.Parent = parents[j.Op]
		}
		out = append(out, j)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
