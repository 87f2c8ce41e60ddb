// Command lsmserver serves an lsmkv database over the network: the
// length-prefixed binary KV protocol on -addr (pipelined connections,
// group-committed writes, token-bucket backpressure) and live metrics on
// -metrics (/metrics and /events JSON, /healthz). SIGTERM or SIGINT
// triggers a graceful drain: accepting stops, every in-flight request is
// answered, queued commits reach the log, and the engine flushes before
// exit.
//
// -debug-addr starts a second, private HTTP listener with the Go runtime
// diagnostics: /debug/pprof/ (CPU, heap, goroutine, block profiles) and
// /debug/vars (expvar). Keep it bound to localhost — profiles expose
// internals that the public metrics endpoint deliberately does not.
//
// Usage:
//
//	lsmserver -db /path [-addr :4440] [-metrics :4441] [-preset default]
//	          [-shards 0] [-sync] [-rate 0] [-max-conns 1024]
//	          [-compaction-concurrency 2] [-compaction-rate 0]
//	          [-l0-slowdown 0] [-l0-stop 0]
//	          [-debug-addr 127.0.0.1:4442]
//	          [-checkpoint-dir /backups] [-follow primary:4440]
//	          [-repl-backlog 16777216] [-tune] [-tune-interval 10s]
//
// The engine flags (-shards, -compaction-*, -l0-*, -tune and
// -tune-interval) are the rows of core.Knobs that carry a flag: each
// sets its knob on top of -preset, defaulting to the row's default, and
// TUNING.md's knob reference lists them.
//
// -tune starts the online self-tuner: one controller per shard samples
// the engine's iostat counters every -tune-interval and adapts the live
// knobs (leveling/tiering position, filter bits/key, the write-slowdown
// band) to the observed workload, recording every move in the engine
// event ring. Inspect it with `lsmctl tune status`; freeze it by
// restarting without -tune. See TUNING.md.
//
// -shards N splits the keyspace across N independent engines (own WAL,
// memtable, L0, compaction space each); writes group-commit per shard and
// /metrics gains an engine_shards per-shard breakdown. The default 0
// adopts whatever the database already is, so restarts never need the
// flag to match; an existing single-engine database opened with -shards N
// is migrated in place once.
//
// Replication (see OPERATIONS.md for the runbook): -checkpoint-dir
// enables the CHECKPOINT opcode, with checkpoints landing in named
// subdirectories of that root (partial ones from a crashed checkpoint are
// swept on startup). -follow addr runs this server as a read-only
// follower of the primary at addr: it streams the primary's WAL, applies
// it through the normal recovery path, and serves reads — including
// read-your-writes GETSEQ holds at the coordinates primaries return in
// write acks. Bootstrap a follower by copying a checkpoint of the primary
// into -db first. Every server retains a -repl-backlog byte ring of
// recent commits per shard for serving followers (0 disables serving).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lsmkv"
	"lsmkv/internal/checkpoint"
	"lsmkv/internal/client"
	"lsmkv/internal/core"
	"lsmkv/internal/replica"
	"lsmkv/internal/server"
	"lsmkv/internal/vfs"
)

// debugMux builds the private diagnostics mux: pprof and expvar, wired
// by hand so nothing leaks onto http.DefaultServeMux (the blank-import
// side effect of net/http/pprof would put profiles on every mux).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:4440", "serve the KV protocol on this address")
		metricsAddr  = flag.String("metrics", "", "serve /metrics and /healthz on this HTTP address (empty disables)")
		dir          = flag.String("db", "", "database directory (required)")
		preset       = flag.String("preset", "default", "default | read | write | balanced | wisckey")
		syncWrites   = flag.Bool("sync", true, "fsync each commit group before acknowledging writes")
		maxConns     = flag.Int("max-conns", 1024, "maximum concurrent connections")
		rate         = flag.Float64("rate", 0, "request rate limit per second (0 = unlimited)")
		burst        = flag.Int("burst", 0, "token bucket burst (default derived from -rate)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long graceful shutdown may take")
		debugAddr    = flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this private HTTP address (empty disables)")
		ckptDir      = flag.String("checkpoint-dir", "", "enable the CHECKPOINT opcode, writing online backups under this directory")
		follow       = flag.String("follow", "", "run as a read-only follower replicating from the primary at this address")
		replBacklog  = flag.Int64("repl-backlog", 0, "per-shard replication backlog bytes for serving followers (0 = 16 MiB default)")
		verbose      = flag.Bool("v", false, "log engine and server events")
		engine       = core.EngineFlags(flag.CommandLine)
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	opts, err := lsmkv.Preset(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmserver:", err)
		os.Exit(2)
	}
	engine(opts)
	opts.Logf = logf

	// A crash mid-CHECKPOINT leaves a markerless (partial) directory
	// under the checkpoint root; sweep them before serving so operators
	// only ever see committed backups there.
	if *ckptDir != "" {
		if swept, err := checkpoint.Sweep(vfs.OS{}, *ckptDir); err != nil {
			log.Fatalf("lsmserver: sweep %s: %v", *ckptDir, err)
		} else if len(swept) > 0 {
			log.Printf("lsmserver: swept %d partial checkpoint(s): %v", len(swept), swept)
		}
	}

	db, err := lsmkv.Open(*dir, opts)
	if err != nil {
		log.Fatalf("lsmserver: open %s: %v", *dir, err)
	}

	// Primary-side replication: retain recent commits per shard so
	// followers can stream them. Cheap when nobody follows — a bounded
	// ring fed by the commit hook.
	prim := replica.NewPrimary(replica.PrimaryConfig{
		Shards:       db.NumShards(),
		LastSeqs:     db.LastSeqs,
		BacklogBytes: *replBacklog,
	})
	db.SetCommitHook(func(shard int, firstSeq uint64, count int, payload []byte) {
		prim.OnCommit(shard, firstSeq, count, payload)
	})

	cfg := server.Config{
		DB:            db,
		MaxConns:      *maxConns,
		RatePerSec:    *rate,
		Burst:         *burst,
		SyncWrites:    *syncWrites,
		Repl:          prim,
		CheckpointDir: *ckptDir,
		Logf:          log.Printf,
	}
	var fol *client.Follower
	if *follow != "" {
		fol = client.NewFollower(client.FollowerConfig{
			Addr: *follow,
			DB:   db,
			Logf: log.Printf,
		})
		fol.Start()
		cfg.Follower = fol.Status // which makes the server read-only
		log.Printf("lsmserver: following %s (read-only)", *follow)
	}

	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("lsmserver: %v", err)
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugMux()}
		go func() {
			log.Printf("lsmserver: debug on http://%s/debug/pprof/", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("lsmserver: debug server: %v", err)
			}
		}()
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: srv.MetricsHandler()}
		go func() {
			log.Printf("lsmserver: metrics on http://%s/metrics", *metricsAddr)
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("lsmserver: metrics server: %v", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	shuttingDown := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		sig := <-sigc
		close(shuttingDown)
		log.Printf("lsmserver: %v: draining (timeout %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("lsmserver: drain: %v", err)
		}
		close(drained)
	}()

	if err := srv.ListenAndServe(*addr); err != nil {
		log.Printf("lsmserver: serve: %v", err)
	}
	// The DB must stay open until the drain finishes answering requests.
	select {
	case <-shuttingDown:
		<-drained
	default:
	}
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	// Stop replication before the engine closes: the follower loop must
	// not apply into a closing database, and the shipper must stop
	// accepting streams.
	if fol != nil {
		fol.Stop()
	}
	prim.Close()
	db.SetCommitHook(nil)
	if err := db.Close(); err != nil {
		log.Fatalf("lsmserver: close: %v", err)
	}
	log.Printf("lsmserver: clean shutdown")
}
