// readpath.go: experiment E18 — read-path allocation discipline and the
// batched wire reads built on it. Three tables: allocs/op for the
// allocating Get versus the append-style GetAppend (the pooled-scratch
// path TestGetAllocs gates at zero for warm reads), the same append
// read re-measured across the fence-lookup implementations (binary
// fences, PLR, RadixSpline), and the network reads — MULTIGET versus
// sequential GET round trips at batch 1/8/64 on Zipfian keys, plus the
// streamed full-range scan (the paged scan it replaced is retired; its
// last measured number is kept in EXPERIMENTS.md).
package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/server"
	"lsmkv/internal/workload"
)

// E18: zero-allocation read hot path and batched wire reads.
func E18(w io.Writer, scale Scale) error {
	if err := e18Allocs(w, scale); err != nil {
		return err
	}
	if err := e18Learned(w, scale); err != nil {
		return err
	}
	return e18Wire(w, scale)
}

func e18OpenLoaded(dir string, cfg engineConfig, kind lsmkv.LearnedIndexKind) (*lsmkv.DB, int64, error) {
	opts := &lsmkv.Options{CacheBytes: 4 << 20}
	opts.MemtableBytes = cfg.memtable
	opts.LearnedIndex = kind
	db, err := lsmkv.Open(dir, opts)
	if err != nil {
		return nil, 0, err
	}
	n := cfg.keys / 5
	for i := int64(0); i < n; i++ {
		k := workload.ScrambleKey(i, n)
		if err := db.Put(workload.Key(k), workload.Value(k, cfg.valueSize)); err != nil {
			db.Close()
			return nil, 0, err
		}
	}
	if err := db.Compact(); err != nil {
		db.Close()
		return nil, 0, err
	}
	return db, n, nil
}

// e18Allocs: allocating API vs append API, warm (one hot key, block
// cached) and uniform (cache-mixed) access.
func e18Allocs(w io.Writer, scale Scale) error {
	cfg := config(scale)
	dir, cleanup, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanup()
	db, n, err := e18OpenLoaded(filepath.Join(dir, "db"), cfg, lsmkv.LearnedNone)
	if err != nil {
		return err
	}
	defer db.Close()

	hot := workload.Key(workload.ScrambleKey(1, n))
	var dst []byte
	var i int64
	runs := cfg.probes / 10

	measure := func(f func()) (allocsPerOp, nsPerOp float64) {
		for j := 0; j < 16; j++ {
			f() // warm pools and cache
		}
		start := time.Now()
		allocs := testing.AllocsPerRun(runs, f)
		ns := float64(time.Since(start).Nanoseconds()) / float64(runs+1)
		return allocs, ns
	}

	t := NewTable("api", "access", "allocs/op", "ns/op")
	for _, m := range []struct {
		api, access string
		f           func()
	}{
		{"Get", "hot", func() { db.Get(hot) }},
		{"GetAppend", "hot", func() {
			dst, _ = db.GetAppend(hot, dst[:0])
		}},
		{"Get", "uniform", func() {
			i++
			db.Get(workload.Key(workload.ScrambleKey(i%n, n)))
		}},
		{"GetAppend", "uniform", func() {
			i++
			dst, _ = db.GetAppend(workload.Key(workload.ScrambleKey(i%n, n)), dst[:0])
		}},
	} {
		allocs, ns := measure(m.f)
		t.Row(m.api, m.access, allocs, ns)
	}
	fmt.Fprintln(w, "point-read allocations: allocating API vs append API (pooled scratch):")
	t.Print(w)
	return nil
}

// e18Learned: the append read re-measured across fence-lookup
// implementations — the learned-index paths share the pooled scratch,
// so they keep the same allocation profile.
func e18Learned(w io.Writer, scale Scale) error {
	cfg := config(scale)
	t := NewTable("fence lookup", "allocs/op", "ns/op")
	for _, m := range []struct {
		name string
		kind lsmkv.LearnedIndexKind
	}{
		{"binary fences", lsmkv.LearnedNone},
		{"PLR", lsmkv.LearnedPLR},
		{"RadixSpline", lsmkv.LearnedRadixSpline},
	} {
		dir, cleanup, err := tempDir()
		if err != nil {
			return err
		}
		db, n, err := e18OpenLoaded(filepath.Join(dir, "db"), cfg, m.kind)
		if err != nil {
			cleanup()
			return err
		}
		var dst []byte
		var i int64
		read := func() {
			i++
			dst, _ = db.GetAppend(workload.Key(workload.ScrambleKey(i%n, n)), dst[:0])
		}
		for j := 0; j < 16; j++ {
			read()
		}
		runs := cfg.probes / 10
		start := time.Now()
		allocs := testing.AllocsPerRun(runs, read)
		ns := float64(time.Since(start).Nanoseconds()) / float64(runs+1)
		db.Close()
		cleanup()
		t.Row(m.name, allocs, ns)
	}
	fmt.Fprintln(w, "\nappend read across fence-lookup implementations (uniform keys):")
	t.Print(w)
	return nil
}

// e18Wire: MULTIGET vs sequential GETs at batch 1/8/64 on Zipfian keys,
// then the streamed full-range scan, over a real loopback server.
func e18Wire(w io.Writer, scale Scale) error {
	cfg := config(scale)
	dir, cleanup, err := tempDir()
	if err != nil {
		return err
	}
	defer cleanup()
	db, n, err := e18OpenLoaded(filepath.Join(dir, "db"), cfg, lsmkv.LearnedNone)
	if err != nil {
		return err
	}
	defer db.Close()

	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()
	cl, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		return err
	}
	defer cl.Close()

	gen := workload.NewKeyGen(workload.Zipfian, n, 0.99, 3)
	probes := int64(cfg.probes)

	t := NewTable("batch", "seq GET Kops/s", "MULTIGET Kops/s", "speedup")
	for _, batch := range []int{1, 8, 64} {
		keys := make([][]byte, batch)
		fill := func() {
			for j := range keys {
				keys[j] = workload.Key(gen.Next() % n)
			}
		}
		rounds := probes / int64(batch)
		if rounds < 1 {
			rounds = 1
		}
		// Sequential: one GET round trip per key.
		fill()
		start := time.Now()
		for r := int64(0); r < rounds; r++ {
			for _, k := range keys {
				if _, err := cl.Get(k); err != nil && err != client.ErrNotFound {
					return err
				}
			}
		}
		seqKops := float64(rounds*int64(batch)) / time.Since(start).Seconds() / 1e3

		// Batched: one MULTIGET frame for the whole batch.
		start = time.Now()
		for r := int64(0); r < rounds; r++ {
			if _, err := cl.MultiGet(keys); err != nil {
				return err
			}
		}
		mgKops := float64(rounds*int64(batch)) / time.Since(start).Seconds() / 1e3
		t.Row(batch, seqKops, mgKops, mgKops/seqKops)
	}
	fmt.Fprintln(w, "\nMULTIGET vs sequential GET round trips (Zipfian keys, loopback):")
	t.Print(w)

	// Streamed scan over the full keyspace.
	count := 0
	start := time.Now()
	err = cl.ScanStream([]byte{0}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		func(k, v []byte) bool {
			count++
			return true
		})
	if err != nil {
		return err
	}
	el := time.Since(start)
	st := NewTable("scan path", "keys", "ms", "Kkeys/s")
	st.Row("streamed SCAN", count, float64(el.Microseconds())/1000,
		float64(count)/el.Seconds()/1e3)
	fmt.Fprintln(w, "\nfull-range scan, streamed frames:")
	st.Print(w)
	return nil
}
