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
	"errors"
	"testing"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/server"
	"lsmkv/internal/workload"
)

// E18: zero-allocation read hot path and batched wire reads.
func E18(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	n := cfg.keys / 5
	// loaded runs body against a cached, compacted store of n keys whose
	// tables look fences up the given way.
	loaded := func(kind lsmkv.LearnedIndexKind, body func(db *lsmkv.DB) error) error {
		opts := &lsmkv.Options{CacheBytes: 4 << 20, LearnedIndex: kind}
		return cfg.cell(opts, func(db *lsmkv.DB) error {
			if err := cfg.fill(db, n, scrambled(n)); err != nil {
				return err
			}
			if err := db.Compact(); err != nil {
				return err
			}
			return body(db)
		})
	}
	// measure reports read's allocations and time per call, or the last
	// error a call returned.
	measure := func(read func() error) (allocsPerOp, nsPerOp float64, err error) {
		f := func() {
			if e := read(); e != nil {
				err = e
			}
		}
		for j := 0; j < 16; j++ {
			f() // warm pools and cache
		}
		runs := cfg.probes / 10
		start := time.Now()
		allocsPerOp = testing.AllocsPerRun(runs, f)
		return allocsPerOp, float64(time.Since(start).Nanoseconds()) / float64(runs+1), err
	}
	// The two read calls under measurement, each over keys from next.
	var dst []byte
	allocating := func(db *lsmkv.DB, next func() []byte) func() error {
		return func() error {
			_, err := db.Get(next())
			return err
		}
	}
	appending := func(db *lsmkv.DB, next func() []byte) func() error {
		return func() (err error) {
			dst, err = db.GetAppend(next(), dst[:0])
			return err
		}
	}
	var i int64
	uniform := func() []byte {
		i++
		return workload.Key(workload.ScrambleKey(i%n, n))
	}

	// Allocating API vs append API, warm (one hot key, block cached) and
	// uniform (cache-mixed) access.
	allocs := NewTable("api", "access", "allocs/op", "ns/op")
	allocs.Caption = "point-read allocations: allocating API vs append API (pooled scratch):"
	err := loaded(lsmkv.LearnedNone, func(db *lsmkv.DB) error {
		hotKey := workload.Key(workload.ScrambleKey(1, n))
		for _, access := range []struct {
			name string
			next func() []byte
		}{
			{"hot", func() []byte { return hotKey }},
			{"uniform", uniform},
		} {
			for _, api := range []struct {
				name string
				read func() error
			}{{"Get", allocating(db, access.next)}, {"GetAppend", appending(db, access.next)}} {
				a, ns, err := measure(api.read)
				if err != nil {
					return err
				}
				allocs.Row(api.name, access.name, a, ns)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The append read re-measured across fence-lookup implementations —
	// the learned-index paths share the pooled scratch, so they keep the
	// same allocation profile.
	fences := NewTable("fence lookup", "allocs/op", "ns/op")
	fences.Caption = "append read across fence-lookup implementations (uniform keys):"
	for _, m := range []struct {
		name string
		kind lsmkv.LearnedIndexKind
	}{
		{"binary fences", lsmkv.LearnedNone},
		{"PLR", lsmkv.LearnedPLR},
		{"RadixSpline", lsmkv.LearnedRadixSpline},
	} {
		err := loaded(m.kind, func(db *lsmkv.DB) error {
			a, ns, err := measure(appending(db, uniform))
			if err != nil {
				return err
			}
			fences.Row(m.name, a, ns)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var wire []*Table
	if err := loaded(lsmkv.LearnedNone, func(db *lsmkv.DB) (err error) {
		wire, err = e18Wire(cfg, db, n)
		return err
	}); err != nil {
		return nil, err
	}
	return append([]*Table{allocs, fences}, wire...), nil
}

// e18Wire: MULTIGET vs sequential GETs at batch 1/8/64 on Zipfian keys,
// then the streamed full-range scan, over a real loopback server.
func e18Wire(cfg engineConfig, db *lsmkv.DB, n int64) (_ []*Table, err error) {
	srv, err := serve(server.Config{DB: db})
	if err != nil {
		return nil, err
	}
	defer closeInto(srv, &err)
	cl, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	gen := workload.NewKeyGen(workload.Zipfian, n, 0.99, 3)
	t := NewTable("batch", "seq GET Kops/s", "MULTIGET Kops/s", "speedup")
	t.Caption = "MULTIGET vs sequential GET round trips (Zipfian keys, loopback):"
	for _, batch := range []int{1, 8, 64} {
		keys := make([][]byte, batch)
		for j := range keys {
			keys[j] = workload.Key(gen.Next() % n)
		}
		rounds := max(cfg.probes/batch, 1)
		// Sequential: one GET round trip per key.
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				if _, err := cl.Get(k); err != nil && !errors.Is(err, client.ErrNotFound) {
					return nil, err
				}
			}
		}
		seqKops := float64(rounds*batch) / time.Since(start).Seconds() / 1e3

		// Batched: one MULTIGET frame for the whole batch.
		start = time.Now()
		for r := 0; r < rounds; r++ {
			if _, err := cl.MultiGet(keys); err != nil {
				return nil, err
			}
		}
		mgKops := float64(rounds*batch) / time.Since(start).Seconds() / 1e3
		t.Row(batch, seqKops, mgKops, mgKops/seqKops)
	}

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
		return nil, err
	}
	el := time.Since(start)
	st := NewTable("scan path", "keys", "ms", "Kkeys/s")
	st.Caption = "full-range scan, streamed frames:"
	st.Row("streamed SCAN", count, float64(el.Microseconds())/1000,
		float64(count)/el.Seconds()/1e3)
	return []*Table{t, st}, nil
}
