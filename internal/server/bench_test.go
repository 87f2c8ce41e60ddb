package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/server"
	"lsmkv/internal/vfs"
)

// BenchmarkGroupCommit measures what the group-commit loop buys: N
// concurrent writers over one pipelined connection, with coalescing
// enabled (groups grow toward MaxCommitOps) versus disabled
// (MaxCommitOps=1, every write pays its own fsync). The filesystem
// charges 200µs per sync, a cheap-SSD fsync, so fsyncs/op translates
// directly into throughput. Run with `make bench-server`.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 8, 64} {
		for _, tc := range []struct {
			name   string
			maxOps int
		}{
			{"coalesced", 0}, // config default (4096)
			{"perOpSync", 1},
		} {
			b.Run(fmt.Sprintf("%s/writers=%d", tc.name, writers), func(b *testing.B) {
				runCommitBench(b, writers, tc.maxOps)
			})
		}
	}
}

func runCommitBench(b *testing.B, writers, maxOps int) {
	fs := slowSyncFS{FS: vfs.NewMem(), delay: 200 * time.Microsecond}
	srv, db := startServer(b, fs, 1, func(c *server.Config) {
		if maxOps > 0 {
			c.MaxCommitOps = maxOps
		}
	})
	cl := dialTest(b, srv, nil)

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
				if err := cl.Put(key, value); err != nil {
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
