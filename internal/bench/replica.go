// replica.go: experiment E16 — replication and online backup. Two
// tables: checkpoint wall time against database size (hard links make the
// copy O(manifest), not O(data)), and steady-state follower lag plus
// follower read fan-out over the full network stack.
package bench

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/replica"
	"lsmkv/internal/server"
	"lsmkv/internal/workload"
)

// E16: replication & online backup. The first table loads databases of
// increasing size, flushes, and times Checkpoint: with sstables
// hard-linked the wall time tracks the file count, not the byte count.
// The second runs the production path — primary server, commit-hook
// shipper, follower bootstrapped from a checkpoint streaming over TCP —
// under a saturating ingest, and reports the follower's sequence lag and
// read throughput while it applies the stream.
func E16(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	opts := func() *lsmkv.Options {
		return &lsmkv.Options{CacheBytes: 1 << 20, MemtableBytes: cfg.memtable}
	}

	ckpt := NewTable("keys", "ckpt MB", "files", "ckpt ms")
	ckpt.Caption = "checkpoint wall time vs database size (sstables hard-linked):"
	for _, frac := range []int64{4, 2, 1} {
		n := cfg.keys / frac
		err := withDir(func(dir string) error {
			return openAt(filepath.Join(dir, "db"), opts(), func(db *lsmkv.DB) error {
				if err := cfg.fill(db, n, scrambled(n)); err != nil {
					return err
				}
				if err := db.Flush(); err != nil {
					return err
				}
				start := time.Now()
				info, err := db.Checkpoint(filepath.Join(dir, "ckpt"))
				elapsed := time.Since(start)
				if err != nil {
					return err
				}
				ckpt.Row(n, float64(info.Bytes)/1e6, info.Files, float64(elapsed.Microseconds())/1000)
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
	}

	stream := NewTable("fol readers", "ingest Kops/s", "fol reads Kops/s",
		"mean lag", "max lag", "catchup ms")
	stream.Caption = "follower lag and read fan-out under sustained ingest (TCP stream):"
	for _, readers := range []int{0, 4} {
		err := withDir(func(dir string) error {
			return openAt(filepath.Join(dir, "prim"), opts(), func(prim *lsmkv.DB) error {
				return e16Stream(cfg, stream, prim, filepath.Join(dir, "ckpt"), opts(), readers)
			})
		})
		if err != nil {
			return nil, err
		}
	}
	return []*Table{ckpt, stream}, nil
}

// e16Stream serves prim, seeds it, bootstraps a follower at ckptDir from
// an online checkpoint, and measures the follower while four writers
// saturate the primary; the row goes to t.
func e16Stream(cfg engineConfig, t *Table, prim *lsmkv.DB, ckptDir string, folOpts *lsmkv.Options, readers int) (err error) {
	seedKeys := cfg.keys / 4
	streamOps := cfg.keys / 2

	primary := replica.NewPrimary(replica.PrimaryConfig{
		Shards:            prim.NumShards(),
		LastSeqs:          prim.LastSeqs,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	prim.SetCommitHook(func(shard int, firstSeq uint64, count int, payload []byte) {
		primary.OnCommit(shard, firstSeq, count, payload)
	})
	defer prim.SetCommitHook(nil)
	defer primary.Close()

	primSrv, err := serve(server.Config{DB: prim, Repl: primary})
	if err != nil {
		return err
	}
	defer closeInto(primSrv, &err)

	// Seed, checkpoint, bootstrap the follower from the backup.
	pcl, err := client.Dial(primSrv.Addr(), nil)
	if err != nil {
		return err
	}
	defer pcl.Close()
	for i := int64(0); i < seedKeys; i++ {
		k := workload.ScrambleKey(i, seedKeys)
		if err := pcl.Put(workload.Key(k), workload.Value(k, cfg.valueSize)); err != nil {
			return err
		}
	}
	if _, err := prim.Checkpoint(ckptDir); err != nil {
		return err
	}
	return openAt(ckptDir, folOpts, func(fol *lsmkv.DB) (err error) {
		follower := client.NewFollower(client.FollowerConfig{
			Addr:         primSrv.Addr(),
			DB:           fol,
			RetryBackoff: 10 * time.Millisecond,
		})
		follower.Start()
		defer follower.Stop()
		folSrv, err := serve(server.Config{DB: fol, Follower: follower.Status})
		if err != nil {
			return err
		}
		defer closeInto(folSrv, &err)
		if err := follower.WaitCaughtUp(30 * time.Second); err != nil {
			return err
		}

		// Sustained ingest on the primary; lag sampler; follower readers.
		var (
			stop      = make(chan struct{})
			observers group
			lagSum    float64
			lagN      int
			lagMax    uint64
			readCount atomic.Int64
		)
		observers.Go(func() error {
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return nil
				case <-tick.C:
					st := follower.Status()
					lagSum += float64(st.Lag)
					lagN++
					lagMax = max(lagMax, st.Lag)
				}
			}
		})
		for r := 0; r < readers; r++ {
			observers.Go(func() error {
				rcl, err := client.Dial(folSrv.Addr(), nil)
				if err != nil {
					return err
				}
				defer rcl.Close()
				for i := int64(r); ; i += int64(readers) {
					select {
					case <-stop:
						return nil
					default:
					}
					k := workload.ScrambleKey(i%seedKeys, seedKeys)
					if _, err := rcl.Get(workload.Key(k)); err != nil && !errors.Is(err, client.ErrNotFound) {
						return err
					}
					readCount.Add(1)
				}
			})
		}

		const writersN = 4
		var writers group
		start := time.Now()
		for g := int64(0); g < writersN; g++ {
			writers.Go(func() error {
				wcl, err := client.Dial(primSrv.Addr(), nil)
				if err != nil {
					return err
				}
				defer wcl.Close()
				per := streamOps / writersN
				for i := g * per; i < (g+1)*per; i++ {
					k := workload.ScrambleKey(i, streamOps)
					if err := wcl.Put(workload.Key(k), workload.Value(k, cfg.valueSize)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		err = writers.Wait()
		ingestElapsed := time.Since(start)

		catchStart := time.Now()
		if err == nil {
			err = follower.WaitCaughtUp(60 * time.Second)
		}
		catchup := time.Since(catchStart)
		close(stop)
		if oerr := observers.Wait(); err == nil {
			err = oerr
		}
		if err != nil {
			return err
		}

		meanLag := 0.0
		if lagN > 0 {
			meanLag = lagSum / float64(lagN)
		}
		t.Row(readers,
			float64(streamOps)/ingestElapsed.Seconds()/1000,
			float64(readCount.Load())/ingestElapsed.Seconds()/1000,
			meanLag, float64(lagMax),
			float64(catchup.Microseconds())/1000)
		return nil
	})
}

// served is a server on a loopback listener; Close drains it.
type served struct {
	*server.Server
	done chan error
}

// serve starts a server for cfg on a loopback port.
func serve(cfg server.Config) (*served, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{Server: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

func (s *served) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}
