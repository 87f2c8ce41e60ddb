package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp says what produced a result file, so two files are compared
// knowingly.
type stamp struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmupS    float64 `json:"warmup_seconds"`
	Keys       int64   `json:"loaded_keys"`
	Filesystem string  `json:"filesystem"`
	Time       string  `json:"time"`
}

func newStamp(cfg runConfig, workDir string) stamp {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return stamp{
		GitSHA: sha, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, WarmupS: warmShare * cfg.seconds, Keys: cfg.sz.n,
		Filesystem: filesystemOf(workDir),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// filesystemOf names the filesystem dir is on, by its magic number.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// quartiles is a metric over a set of runs.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 - Q1) / Median.
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
}

type resultFile struct {
	Stamp   stamp                `json:"stamp"`
	Runs    []*result            `json:"runs"`
	Summary map[string]quartiles `json:"summary"`
}

func writeResultFile(path string, st stamp, results []*result) error {
	f := resultFile{Stamp: st, Runs: results, Summary: summarise(results)}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// quartilesOf computes the quartiles as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the driver uses.
func quartilesOf(v []float64, unit string) quartiles {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := quartiles{Unit: unit, Runs: len(s)}
	if len(s) == 0 {
		return q
	}
	if len(s) == 1 {
		q.Q1, q.Median, q.Q3 = s[0], s[0], s[0]
		return q
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	q.Q1, q.Median, q.Q3 = cut(1), cut(2), cut(3)
	if q.Median != 0 {
		q.Spread = (q.Q3 - q.Q1) / q.Median
	}
	return q
}

// summarise groups runs by workload and gives each metric's quartiles,
// keyed "workload/metric".
func summarise(runs []*result) map[string]quartiles {
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for _, set := range []map[string]metric{r.Metrics, r.PerClass} {
			for name, m := range set {
				key := r.Workload + "/" + name
				values[key] = append(values[key], m.Value)
				units[key] = m.Unit
			}
		}
	}
	out := make(map[string]quartiles, len(values))
	for key, v := range values {
		out[key] = quartilesOf(v, units[key])
	}
	return out
}

// repeatRuns runs this invocation k times, one process each so no run
// inherits another's heap or caches, with seeds seed..seed+k-1, and
// prints each metric's quartiles.
func repeatRuns(k int, seed int64, out, workDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workDir, "repeat-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// Every flag but -repeat, -seed and -json is passed on unchanged.
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "seed" && f.Name != "json" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	var st stamp
	var runs []*result
	for i := 0; i < k; i++ {
		file := filepath.Join(tmp, strconv.Itoa(i)+".json")
		cmd := exec.Command(self, append(pass, "-seed="+strconv.FormatInt(seed+int64(i), 10), "-json="+file)...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		one, err := readResultFile(file)
		if err != nil {
			return err
		}
		if i == 0 {
			st = one.Stamp
		}
		runs = append(runs, one.Runs...)
	}
	printSummary(summarise(runs))
	for _, r := range runs {
		if !r.Correct || r.ShapeMismatch {
			fmt.Printf("run with seed %d: correct=%v shape_mismatch=%v\n", r.Seed, r.Correct, r.ShapeMismatch)
		}
	}
	if out == "" {
		return nil
	}
	return writeResultFile(out, st, runs)
}

func printSummary(s map[string]quartiles) {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-48s %14s %14s %14s %8s  %s\n", "workload/metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range keys {
		q := s[k]
		fmt.Printf("%-48s %14.4f %14.4f %14.4f %7.1f%%  %s (%d runs)\n", k, q.Q1, q.Median, q.Q3, 100*q.Spread, q.Unit, q.Runs)
	}
}

// bounded is an end-to-end metric as BENCHMARK.json describes it.
type bounded struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json a comparison needs.
type benchmarkSpec struct {
	EndToEnd []bounded `json:"end_to_end"`
}

// perClassNames are the latencies a result file keeps by call class,
// for the classes its workload has.
var perClassNames = []string{
	"read_p50_us", "read_p95_us", "read_p99_us",
	"write_p50_us", "write_p95_us", "write_p99_us",
	"scan_p50_us", "scan_p95_us", "scan_p99_us",
}

// checked lists what a comparison checks: every end-to-end metric of
// BENCHMARK.json, then the per-class latencies, each with the bound of
// the lat_* metric of the same percentile. On mixed that bounds PUT and
// scan latency, which lat_* (its GET) does not cover. A percentile
// without a lat_* metric (p99) is reported and not bounded.
func (s *benchmarkSpec) checked() []bounded {
	out := append([]bounded(nil), s.EndToEnd...)
	for _, name := range perClassNames {
		for _, e := range s.EndToEnd {
			if strings.HasPrefix(e.Name, "lat_") && strings.HasSuffix(name, strings.TrimPrefix(e.Name, "lat")) {
				out = append(out, bounded{Name: name, Better: e.Better, Bound: e.Bound})
			}
		}
	}
	return out
}

func readSpec(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var lastErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// compareFiles checks result set b (the change) against a (the parent):
// for every workload and checked metric the workload has, b's median
// may be worse than a's by at most the metric's bound. Where a's own
// spread is wider than the bound the pair is unresolved, not unchanged;
// where b is worse by less than the bound but by more than a's spread,
// that is said. Runs whose trees settled to different shapes are not comparable and
// are said so; files measured with different settings are refused.
func compareFiles(aPath, bPath, specPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResultFile(aPath)
	if err != nil {
		return err
	}
	b, err := readResultFile(bPath)
	if err != nil {
		return err
	}
	if sa, sb := a.Stamp, b.Stamp; sa.Seconds != sb.Seconds || sa.Keys != sb.Keys || sa.NumCPU != sb.NumCPU {
		return fmt.Errorf("not comparable: a measured %v s on %d keys with %d CPUs, b %v s on %d keys with %d CPUs",
			sa.Seconds, sa.Keys, sa.NumCPU, sb.Seconds, sb.Keys, sb.NumCPU)
	}
	fmt.Printf("a: %s  sha %s  %s  nproc %d  fs %s\n", aPath, a.Stamp.GitSHA, a.Stamp.GoVersion, a.Stamp.NumCPU, a.Stamp.Filesystem)
	fmt.Printf("b: %s  sha %s  %s  nproc %d  fs %s\n", bPath, b.Stamp.GitSHA, b.Stamp.GoVersion, b.Stamp.NumCPU, b.Stamp.Filesystem)

	shapes := map[string]map[string]bool{}
	for _, r := range append(append([]*result(nil), a.Runs...), b.Runs...) {
		if shapes[r.Workload] == nil {
			shapes[r.Workload] = map[string]bool{}
		}
		shapes[r.Workload][r.Shape] = true
		if r.ShapeMismatch {
			shapes[r.Workload]["(mismatch inside a run)"] = true
		}
	}
	sa, sb := summarise(a.Runs), summarise(b.Runs)
	regressed := 0
	fmt.Printf("%-28s %14s %14s %8s %7s %7s  %s\n", "workload/metric", "a median", "b median", "worse", "bound", "spread", "verdict")
	for _, w := range workloads {
		for _, e := range spec.checked() {
			key := w.name + "/" + e.Name
			qa, okA := sa[key]
			qb, okB := sb[key]
			if !okA || !okB || qa.Median == 0 {
				continue
			}
			worse := (qb.Median - qa.Median) / qa.Median
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case len(shapes[w.name]) > 1:
				verdict = "shape_mismatch"
			case qa.Spread > e.Bound:
				verdict = "unresolved"
			case worse > e.Bound:
				verdict = "REGRESSED"
				regressed++
			case worse > qa.Spread:
				// Inside the bound, which has to allow for a busy host, but
				// further than a's own runs lie apart: worth a paired rerun.
				verdict = "ok, yet worse than a's spread"
			}
			fmt.Printf("%-28s %14.4f %14.4f %7.1f%% %6.1f%% %6.1f%%  %s\n",
				key, qa.Median, qb.Median, 100*worse, 100*e.Bound, 100*qa.Spread, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", regressed)
	}
	return nil
}
