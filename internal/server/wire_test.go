package server_test

import (
	"bytes"
	"testing"

	"lsmkv/internal/vfs"
)

// wireGetCeiling is what one GET round trip over loopback allocates, on
// the client and the server together: the request's payload as the
// server reads it, and the response's as the client reads it (the value
// Get returns aliases it).
const wireGetCeiling = 2

// wireGet returns a GET of one memtable-resident key over a fresh
// server's loopback connection, failing t on a wrong answer.
func wireGet(t testing.TB) func() {
	srv, _ := startServer(t, vfs.NewMem(), 1, nil)
	cl := dialTest(t, srv, nil)
	key, val := []byte("wire-get-key"), []byte("wire-get-value")
	if err := cl.Put(key, val); err != nil {
		t.Fatal(err)
	}
	return func() {
		if v, err := cl.Get(key); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("Get = %q, %v", v, err)
		}
	}
}

// TestWireGetAllocs gates the served GET path end to end: the client's
// call (pooled call state and timer, the wire's encode buffer), the
// frame codec, the server's read loop (its request decoded into the
// connection, its deadlines re-armed at most once per 1/16 of their
// timeouts) and the pooled response buffer. testing.AllocsPerRun counts
// every allocation in the process, so both ends' goroutines count.
func TestWireGetAllocs(t *testing.T) {
	get := wireGet(t)
	for range 100 {
		get() // fill the pools
	}
	n := testing.AllocsPerRun(2000, get)
	if raceEnabled {
		t.Skipf("%.2f allocs per round trip under -race, where sync.Pool drops what it is given", n)
	}
	if n > wireGetCeiling {
		t.Fatalf("a GET round trip allocates %.2f times, want at most %d", n, wireGetCeiling)
	}
}

// BenchmarkWireGet times one GET round trip over loopback, one caller at
// a time (run with -benchmem; `make bench-server`).
func BenchmarkWireGet(b *testing.B) {
	get := wireGet(b)
	get()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		get()
	}
}
