package lsmkv

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds vets and builds ./benchmark. That directory is
// its own module (so that nothing outside it can change what a run
// measures), which means `go build ./... && go test ./...` here neither
// compiles nor runs it: renaming a symbol it imports from lsm.go or
// internal/ would leave tier-1 green and the benchmark unable to build.
// This test closes that gap; it needs the go tool, as `go test` itself
// did, and skips where a prebuilt test binary runs without one.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, args := range [][]string{{"vet", "."}, {"build", "-o", os.DevNull, "."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("benchmark: go %v: %v\n%s", args, err, out)
		}
	}
}
