package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/server"
	"lsmkv/internal/shard"
	"lsmkv/internal/vfs"
)

// BenchmarkGroupCommit measures what group commit buys: N concurrent
// synced writers, embedded (Put straight into the engine) and served
// (each a PUT over one pipelined connection). Both go through the
// engine's commit queue, so both should show fsyncs/op falling as N
// grows. The filesystem charges 200µs per sync, a cheap-SSD fsync, so
// fsyncs/op translates directly into throughput. Run with
// `make bench-server`.
func BenchmarkGroupCommit(b *testing.B) {
	for _, served := range []bool{false, true} {
		for _, writers := range []int{1, 8, 64} {
			name := map[bool]string{false: "embedded", true: "served"}[served]
			b.Run(fmt.Sprintf("%s/writers=%d", name, writers), func(b *testing.B) {
				runCommitBench(b, writers, served)
			})
		}
	}
}

func runCommitBench(b *testing.B, writers int, served bool) {
	fs := slowSyncFS{FS: vfs.NewMem(), delay: 200 * time.Microsecond}
	var db *shard.DB
	put := func([]byte, []byte) error { return nil }
	if served {
		var srv *server.Server
		srv, db = startServer(b, fs, 1, nil)
		put = dialTest(b, srv, nil).Put
	} else {
		var err error
		db, err = shard.Open(core.Options{Dir: "db", FS: fs, Design: core.Design{SyncWAL: true}}, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		put = db.Put
	}

	before := db.Stats()
	start := time.Now()
	b.ResetTimer()

	var wg sync.WaitGroup
	value := []byte("benchmark-value-0123456789abcdef")
	for w := 0; w < writers; w++ {
		n := b.N / writers
		if w < b.N%writers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				key := []byte(fmt.Sprintf("b%02d-%08d", w, i))
				if err := put(key, value); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	elapsed := time.Since(start)

	after := db.Stats()
	fsyncs := after.WALSyncs - before.WALSyncs
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
}
