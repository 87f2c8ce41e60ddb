package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	wl "lsmkv/internal/workload"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// sameNames checks that a run emitted exactly the metrics BENCHMARK.json
// lists, with the same units, in both directions.
func sameNames(t *testing.T, what string, emitted map[string]metric, listed []struct{ Name, Unit string }) {
	t.Helper()
	want := map[string]string{}
	for _, m := range listed {
		want[m.Name] = m.Unit
	}
	for name, m := range emitted {
		if unit, ok := want[name]; !ok {
			t.Errorf("%s: emitted %s is not in BENCHMARK.json", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := emitted[name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, the run did not emit it", what, name)
		}
	}
}

// TestSmoke runs every workload for 0.4 s at a twentieth of the
// benchmark's size with one set-up, untraced, and one of them traced.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	sz := sizeFor(0.05)
	for i, w := range workloads {
		if i < len(spec.Workloads) && spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		cfg := runConfig{w: w, sz: sz, seed: 7, seconds: 0.4, dir: t.TempDir(), setups: 1, probeScale: 0.01}
		res, err := runEndToEnd(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || res.ShapeMismatch {
			t.Errorf("%s: correct=%v attempted=%d failed=%d shape_mismatch=%v notes=%v",
				w.name, res.Correct, res.Attempted, res.Failed, res.ShapeMismatch, res.Notes)
		}
		sameNames(t, w.name, res.Metrics, spec.EndToEnd)
		if w.name != "mixed" {
			continue
		}
		// mixed has all three kinds of call; its PUT and scan latencies are
		// bounded through the result file.
		for _, name := range perClassNames {
			if res.PerClass[name].Value <= 0 {
				t.Errorf("mixed: per-class latency %s was not measured", name)
			}
		}
		cfg.trace, cfg.seconds, cfg.dir = true, 0.6, t.TempDir()
		cfg.spansPath = filepath.Join(cfg.dir, "spans.json")
		res, err = runTraced(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d notes=%v", w.name, res.Correct, res.Failed, res.Notes)
		}
		sameNames(t, w.name+" traced", res.Metrics, spec.PerLayer)
		var spans []map[string]any
		if data, err := os.ReadFile(cfg.spansPath); err != nil {
			t.Error(err)
		} else if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("spans file: %d spans, err=%v", len(spans), err)
		}
	}
}

func TestKeysMatchTheRepositorysWorkloadKeys(t *testing.T) {
	for _, i := range []int64{0, 7, 199_999, 999_999_999_999} {
		k := appendKey(nil, i)
		if !bytes.Equal(k, wl.Key(i)) {
			t.Errorf("appendKey(%d) = %q, workload.Key gives %q", i, k, wl.Key(i))
		}
		if back, ok := parseKey(k); !ok || back != i {
			t.Errorf("parseKey(%q) = %d, %v", k, back, ok)
		}
	}
}

// TestLoadOrderIsABijection is the property workload.ScrambleKey lacks:
// i·P mod n visits every index once, so n keys are loaded, not 63% of n.
func TestLoadOrderIsABijection(t *testing.T) {
	for _, n := range []int64{1600, 5000, 100_000, 1_000_003} {
		p := coprime(n)
		seen := make([]bool, n)
		for i := int64(0); i < n; i++ {
			seen[i*p%n] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: index %d is never loaded", n, i)
			}
		}
	}
}

// TestCompareBoundsEveryClass: -compare checks the per-class medians and
// p95s with the bounds of lat_p50_us and lat_p95_us.
func TestCompareBoundsEveryClass(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, c := range spec.checked() {
		bounds[c.Name] = c.Bound
	}
	if len(bounds) != len(spec.EndToEnd)+6 {
		t.Errorf("%d metrics checked, want %d end-to-end and 6 per-class", len(bounds), len(spec.EndToEnd))
	}
	for _, name := range []string{"read", "write", "scan"} {
		if bounds[name+"_p50_us"] != bounds["lat_p50_us"] || bounds[name+"_p95_us"] != bounds["lat_p95_us"] || bounds[name+"_p95_us"] == 0 {
			t.Errorf("%s latencies are bounded by %v and %v", name, bounds[name+"_p50_us"], bounds[name+"_p95_us"])
		}
	}
}

// TestQuartilesMatchPython pins quartilesOf to the values Python's
// statistics.quantiles(v, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	q := quartilesOf([]float64{10, 2, 8, 4, 6, 1, 9, 3, 7, 5}, "x")
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 {
		t.Errorf("quartiles %v, %v, %v; Python gives 2.75, 5.5, 8.25", q.Q1, q.Median, q.Q3)
	}
	q = quartilesOf([]float64{1, 2, 4}, "x")
	if q.Q1 != 1 || q.Median != 2 || q.Q3 != 4 {
		t.Errorf("quartiles %v, %v, %v; Python gives 1, 2, 4", q.Q1, q.Median, q.Q3)
	}
}
