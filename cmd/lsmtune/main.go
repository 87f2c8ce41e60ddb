// Command lsmtune navigates the LSM design space analytically: given a
// workload description it prints the modeled cost of the canonical
// layouts across size ratios, the recommended design, the optimal memory
// split, and the nominal-vs-robust tuning comparison (tutorial Module
// III).
//
// Usage:
//
//	lsmtune -writes 0.8 -reads 0.15 -zero 0.05
//	lsmtune -writes 0.2 -reads 0.6 -zero 0.1 -scans 0.1 -rho 0.5
//	lsmtune -addr host:4440 -window 10s
//
// With -addr the workload mix is not guessed from flags but measured
// from a running lsmserver: lsmtune fetches the server's STATS counters,
// waits -window, fetches again, and converts the counter delta into an
// operation mix through tuner.WorkloadFromDelta — the exact code path
// the in-process online tuner (lsmserver -tune) prices its decisions
// with. Offline lsmtune and the online tuner therefore always agree on
// what a given counter delta "means"; this command is the dry-run view
// of the move the tuner would make. A zero -window uses the server's
// cumulative counters since start. The -writes/-reads/-zero/-scans
// flags are ignored under -addr; the system parameters (-n, -entry,
// -buffer, -bits) still come from flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"lsmkv/internal/client"
	"lsmkv/internal/cost"
	"lsmkv/internal/iostat"
	"lsmkv/internal/server"
	"lsmkv/internal/tuner"
)

func main() {
	var (
		writes  = flag.Float64("writes", 0.5, "fraction of inserts/updates")
		reads   = flag.Float64("reads", 0.4, "fraction of point lookups on existing keys")
		zero    = flag.Float64("zero", 0.1, "fraction of point lookups on absent keys")
		scans   = flag.Float64("scans", 0, "fraction of range scans")
		sel     = flag.Float64("selectivity", 1e-6, "scan selectivity (fraction of N per scan)")
		n       = flag.Float64("n", 100e6, "number of entries")
		entry   = flag.Float64("entry", 128, "bytes per entry")
		buffer  = flag.Float64("buffer", 64<<20, "write buffer bytes")
		bits    = flag.Float64("bits", 10, "filter bits per key")
		memory  = flag.Float64("memory", 512<<20, "total memory budget for the split analysis")
		rho     = flag.Float64("rho", 0.5, "workload uncertainty radius for robust tuning")
		maxT    = flag.Int("maxt", 16, "largest size ratio to consider")
		hybrids = flag.Bool("hybrid", true, "search the full (K,Z) hybrid continuum")
		addr    = flag.String("addr", "", "measure the workload from a running lsmserver instead of the -writes/-reads/-zero/-scans flags")
		window  = flag.Duration("window", 10*time.Second, "sampling window for -addr (0 = cumulative counters since server start)")
	)
	flag.Parse()

	sys := cost.System{
		N:                *n,
		EntryBytes:       *entry,
		PageBytes:        4096,
		BufferBytes:      *buffer,
		FilterBitsPerKey: *bits,
		MonkeyAllocation: true,
	}
	w := cost.Workload{
		Writes:           *writes,
		PointLookups:     *reads,
		ZeroLookups:      *zero,
		RangeLookups:     *scans,
		RangeSelectivity: *sel,
	}.Normalize()
	if *addr != "" {
		delta, err := liveDelta(*addr, *window)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsmtune:", err)
			os.Exit(1)
		}
		// The same delta->mix conversion the online tuner uses, so both
		// tools price identical workloads identically.
		w = tuner.WorkloadFromDelta(delta, 0, *sel)
		fmt.Printf("measured from %s over %s: %d writes, %d point lookups, %d scans\n",
			*addr, *window, delta.WriteOps, delta.PointLookups, delta.RangeLookups)
	}
	space := cost.CandidateSpace{MinT: 2, MaxT: *maxT, FullHybrid: *hybrids}

	fmt.Printf("workload: writes=%.2f point=%.2f zero=%.2f scans=%.2f (selectivity %.1e)\n",
		w.Writes, w.PointLookups, w.ZeroLookups, w.RangeLookups, w.RangeSelectivity)
	fmt.Printf("system: N=%.0f, entry=%.0fB, buffer=%.0fMiB, filters=%.1f bits/key (Monkey)\n\n",
		sys.N, sys.EntryBytes, sys.BufferBytes/(1<<20), sys.FilterBitsPerKey)

	// Top candidates.
	cands := cost.Enumerate(sys, w, space)
	sort.Slice(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })
	m := cost.Model{Sys: sys}
	fmt.Println("top designs (expected I/Os per operation):")
	fmt.Printf("  %-24s %10s %10s %10s %10s\n", "design", "cost", "write", "point", "zero")
	for i := 0; i < 8 && i < len(cands); i++ {
		d := cands[i].Design
		fmt.Printf("  %-24s %10.4f %10.4f %10.4f %10.4f\n",
			d.String(), cands[i].Cost, m.WriteCost(d), m.PointLookupCost(d), m.ZeroLookupCost(d))
	}

	best := cands[0]
	fmt.Printf("\nrecommended design: %s (cost %.4f I/O/op)\n", best.Design, best.Cost)

	// Memory split.
	split, splitCost := cost.OptimizeSplit(sys, best.Design, w, *memory, sys.N*sys.EntryBytes, 0.9)
	fmt.Printf("\nmemory split for %.0f MiB total (zipf 0.9 working set):\n", *memory/(1<<20))
	fmt.Printf("  buffer %.0f MiB | filters %.0f MiB (%.1f bits/key) | cache %.0f MiB  ->  %.4f I/O/op\n",
		split.BufferBytes/(1<<20), split.FilterBytes/(1<<20),
		split.FilterBytes*8/sys.N, split.CacheBytes/(1<<20), splitCost)

	// Robust tuning.
	r := cost.TuneRobust(sys, w, *rho, space)
	fmt.Printf("\nrobust tuning (uncertainty radius rho=%.2f):\n", *rho)
	fmt.Printf("  nominal: %-24s cost@expected %.4f, worst-case %.4f\n",
		r.Nominal.Design, r.NominalAtExpected, r.NominalWorst)
	fmt.Printf("  robust:  %-24s cost@expected %.4f, worst-case %.4f\n",
		r.Robust.Design, r.RobustAtExpected, r.RobustWorst)
	if r.Nominal.Design == r.Robust.Design {
		fmt.Println("  the nominal design is already robust in this neighborhood")
	} else {
		fmt.Printf("  robustness costs %.1f%% at the expectation and saves %.1f%% in the worst case\n",
			100*(r.RobustAtExpected-r.NominalAtExpected)/r.NominalAtExpected,
			100*(r.NominalWorst-r.RobustWorst)/r.NominalWorst)
	}
	os.Exit(0)
}

// liveDelta samples a running server's engine counters over the window
// and returns the delta (or the cumulative snapshot when window is 0).
func liveDelta(addr string, window time.Duration) (iostat.Snapshot, error) {
	cl, err := client.Dial(addr, nil)
	if err != nil {
		return iostat.Snapshot{}, err
	}
	defer cl.Close()
	first, err := liveSnapshot(cl)
	if err != nil {
		return iostat.Snapshot{}, err
	}
	if window <= 0 {
		return first, nil
	}
	time.Sleep(window)
	second, err := liveSnapshot(cl)
	if err != nil {
		return iostat.Snapshot{}, err
	}
	return second.Sub(first), nil
}

// liveSnapshot fetches one STATS payload and extracts the engine's
// aggregate counter snapshot.
func liveSnapshot(cl *client.Client) (iostat.Snapshot, error) {
	body, err := cl.Stats()
	if err != nil {
		return iostat.Snapshot{}, err
	}
	payload, err := server.DecodeMetrics(body)
	return payload.Engine, err
}
