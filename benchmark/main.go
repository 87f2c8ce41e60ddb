// Command benchmark is the repository's performance benchmark: four
// closed-loop workloads against lsmserver's shipped configuration over
// loopback, end-to-end metrics from an untraced run and per-layer
// metrics from a depth-traced one. README.md in this directory says why
// each workload and metric was chosen; BENCHMARK.json at the repository
// root fixes the names, units and bounds.
//
// Usage:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	          [-repeat k] [-json out.json] [-spans spans.json]
//	benchmark -compare a.json b.json [-spec BENCHMARK.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "get-hot | mget-cold | put-sync | mixed")
		seed    = flag.Int64("seed", 1, "seed of the workload's inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		repeat  = flag.Int("repeat", 1, "run this many times, seeds seed..seed+k-1, one process each, and summarise")
		out     = flag.String("json", "", "write the stamped result file here")
		spans   = flag.String("spans", "", "with --trace 1, write the recorded spans here as JSON")
		workDir = flag.String("rundir", ".bench_build", "directory the run's files are created under")
		compare = flag.Bool("compare", false, "compare two result files (arguments) against the bounds in -spec")
		spec    = flag.String("spec", "", "BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), *spec)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || *repeat < 1 {
		return fmt.Errorf("need -seconds > 0, -trace 0 or 1, -repeat >= 1")
	}
	if *repeat > 1 {
		return repeatRuns(*repeat, *seed, *out, *workDir)
	}

	// A run takes the window and a few seconds. One that is still going
	// after twice the window and a minute is stuck: say where, and give up.
	stuck := time.AfterFunc(time.Duration(2**seconds+60)*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: stuck; goroutines:")
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(2)
	})
	defer stuck.Stop()

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := newRunConfig(w, *seed, *seconds, *trace == 1, dir)
	cfg.spansPath = *spans
	runOnce := runEndToEnd
	if cfg.trace {
		runOnce = runTraced
	}
	res, err := runOnce(cfg)
	if err != nil {
		return err
	}
	report(os.Stderr, res)
	if *out != "" {
		if err := writeResultFile(*out, newStamp(cfg, *workDir), []*result{res}); err != nil {
			return err
		}
	}
	// Exactly the four keys the driver reads.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// report prints every metric by name with its unit, then the notes.
func report(f *os.File, r *result) {
	fmt.Fprintf(f, "workload %s seed %d trace %v: correct=%v attempted=%d failed=%d shape=%q\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed, r.Shape)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-36s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range perClassNames {
		if m, ok := r.PerClass[n]; ok {
			fmt.Fprintf(f, "  %-36s %16.4f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(f, "  samples: %v\n", r.Samples)
	for _, n := range r.Notes {
		fmt.Fprintf(f, "  %s\n", n)
	}
}
