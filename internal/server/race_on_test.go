//go:build race

package server_test

// raceEnabled reports that the test binary was built with -race, under
// which sync.Pool deliberately drops a quarter of what it is given, so a
// pooled path is not allocation-free.
const raceEnabled = true
