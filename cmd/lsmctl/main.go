// Command lsmctl opens a database directory — or connects to a running
// lsmserver — and performs basic operations from the command line; the
// operational companion to the library and the server.
//
// Embedded usage (opens the directory directly):
//
//	lsmctl -db /path put <key> <value>
//	lsmctl -db /path put-ttl <key> <value> <ttl>  # e.g. 30s, 5m, 1h
//	lsmctl -db /path get <key>
//	lsmctl -db /path mget <key>...    # batch point reads
//	lsmctl -db /path incr <key> [delta]   # atomic counter add (default +1)
//	lsmctl -db /path cas <key> <expected> <new>   # expected "-" asserts absent
//	lsmctl -db /path delete <key>
//	lsmctl -db /path scan <lo> <hi>
//	lsmctl -db /path trace <key>      # read-path trace: runs, filters, fences
//	lsmctl -db /path stats
//	lsmctl -db /path stats -events    # append the engine's event log
//	lsmctl -db /path compact
//	lsmctl -db /path fill <n>         # load n synthetic entries
//	lsmctl -db /path tune status      # self-tuner state (embedded: not running)
//	lsmctl -db /path tune events      # tuner decisions from the event log
//
// Network usage (speaks the binary protocol to a running lsmserver):
//
//	lsmctl -addr host:4440 put <key> <value>
//	lsmctl -addr host:4440 put-ttl <key> <value> <ttl>  # PUTTTL frame
//	lsmctl -addr host:4440 get <key>
//	lsmctl -addr host:4440 mget <key>...  # one MULTIGET round trip
//	lsmctl -addr host:4440 incr <key> [delta]  # INCR frame (atomic)
//	lsmctl -addr host:4440 cas <key> <expected> <new>  # CAS frame; "-" = absent
//	lsmctl -addr host:4440 sketch freq <key>   # writes observed for key
//	lsmctl -addr host:4440 sketch card         # distinct keys written
//	lsmctl -addr host:4440 delete <key>
//	lsmctl -addr host:4440 scan <lo> <hi>  # streamed (SCANSTREAM frames)
//	lsmctl -addr host:4440 trace <key>
//	lsmctl -addr host:4440 stats
//	lsmctl -addr host:4440 stats -events
//	lsmctl -addr host:4440 ping
//	lsmctl -addr host:4440 fill <n>   # load n entries via BATCH frames
//	lsmctl -addr host:4440 tune status  # per-shard self-tuner status
//	lsmctl -addr host:4440 tune events  # tuner decisions from the event ring
//
// Replication and backup (against servers started with -checkpoint-dir
// or -follow; see OPERATIONS.md):
//
//	lsmctl -addr host:4440 checkpoint <name>        # online backup on the server
//	lsmctl -addr host:4440 replstatus               # watermarks, streams, lag
//	lsmctl -addr host:4440 verify-replica <peer>    # Merkle-compare two servers
//
// Design flags mirror the library presets:
//
//	-preset default|read|write|balanced|wisckey
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/replica"
	"lsmkv/internal/server"
	"lsmkv/internal/workload"
)

func main() { os.Exit(run()) }

// errReported marks a failure whose message is already printed; run
// turns it into exit status 1 without saying more.
var errReported = errors.New("reported")

// run is main with an exit status for a result, so that every path that
// has opened the database or dialled the server leaves through its
// deferred Close (an in-process DB that is not closed leaves its WAL
// behind for the next open to replay).
func run() int {
	fail := func(err error) int {
		if err != errReported {
			fmt.Fprintln(os.Stderr, "lsmctl:", err)
		}
		return 1
	}
	var (
		dir    = flag.String("db", "", "database directory (opens the DB in-process)")
		addr   = flag.String("addr", "", "lsmserver address (speaks the network protocol instead of opening -db)")
		preset = flag.String("preset", "default", "default | read | write | balanced | wisckey")
	)
	flag.Parse()
	if (*dir == "") == (*addr == "") || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "lsmctl: exactly one of -db or -addr is required")
		flag.Usage()
		return 2
	}

	if *addr != "" {
		cl, err := client.Dial(*addr, &client.Options{MaxRetries: 2})
		if err != nil {
			return fail(fmt.Errorf("dial: %w", err))
		}
		defer cl.Close()
		if err := runRemote(cl, flag.Args()); err != nil {
			return fail(err)
		}
		return 0
	}

	var opts *lsmkv.Options
	switch *preset {
	case "default":
		opts = lsmkv.Default()
	case "read":
		opts = lsmkv.ReadOptimized()
	case "write":
		opts = lsmkv.WriteOptimized()
	case "balanced":
		opts = lsmkv.Balanced()
	case "wisckey":
		opts = lsmkv.WiscKey()
	default:
		fmt.Fprintf(os.Stderr, "lsmctl: unknown preset %q\n", *preset)
		return 2
	}

	db, err := lsmkv.Open(*dir, opts)
	if err != nil {
		return fail(fmt.Errorf("open: %w", err))
	}
	defer db.Close()

	if err := runLocal(db, flag.Args()); err != nil {
		return fail(err)
	}
	return 0
}

func runLocal(db *lsmkv.DB, args []string) error {
	cmd, rest := args[0], args[1:]
	need := func(n int) error {
		if len(rest) != n {
			return fmt.Errorf("%s expects %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "put":
		if err := need(2); err != nil {
			return err
		}
		return db.Put([]byte(rest[0]), []byte(rest[1]))
	case "put-ttl":
		if err := need(3); err != nil {
			return err
		}
		ttl, err := time.ParseDuration(rest[2])
		if err != nil {
			return fmt.Errorf("bad ttl %q: %w", rest[2], err)
		}
		return db.PutTTL([]byte(rest[0]), []byte(rest[1]), ttl)
	case "incr":
		delta, err := incrDelta(cmd, rest)
		if err != nil {
			return err
		}
		n, err := db.Incr([]byte(rest[0]), delta)
		if err != nil {
			return err
		}
		fmt.Println(n)
		return nil
	case "cas":
		if err := need(3); err != nil {
			return err
		}
		err := db.CompareAndSwap([]byte(rest[0]), casExpected(rest[1]), []byte(rest[2]))
		if errors.Is(err, lsmkv.ErrCASMismatch) {
			fmt.Println("(conflict: current value does not match)")
			return errReported
		}
		return err
	case "sketch":
		return fmt.Errorf("sketch requires -addr (sketches live in the server's write path)")
	case "get":
		if err := need(1); err != nil {
			return err
		}
		v, err := db.Get([]byte(rest[0]))
		if errors.Is(err, lsmkv.ErrNotFound) {
			fmt.Println("(not found)")
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", v)
		return nil
	case "mget":
		if len(rest) == 0 {
			return fmt.Errorf("mget expects at least one key")
		}
		keys := make([][]byte, len(rest))
		for i, k := range rest {
			keys[i] = []byte(k)
		}
		vals, err := db.MultiGet(keys)
		if err != nil {
			return err
		}
		for i, v := range vals {
			if v == nil {
				fmt.Printf("%s => (not found)\n", keys[i])
				continue
			}
			fmt.Printf("%s => %s\n", keys[i], v)
		}
		return nil
	case "delete":
		if err := need(1); err != nil {
			return err
		}
		return db.Delete([]byte(rest[0]))
	case "scan":
		if err := need(2); err != nil {
			return err
		}
		count := 0
		err := db.Scan([]byte(rest[0]), []byte(rest[1]), func(k, v []byte) bool {
			fmt.Printf("%s => %s\n", k, v)
			count++
			return count < 1000
		})
		if err != nil {
			return err
		}
		fmt.Printf("(%d entries)\n", count)
		return nil
	case "trace":
		if err := need(1); err != nil {
			return err
		}
		_, tr, err := db.GetTraced([]byte(rest[0]))
		if err != nil && !errors.Is(err, lsmkv.ErrNotFound) {
			return err
		}
		fmt.Print(tr.String())
		return nil
	case "stats":
		if len(rest) == 1 && rest[0] == "-events" {
			events := db.Events()
			if len(events) == 0 {
				fmt.Println("(no events)")
				return nil
			}
			for _, e := range events {
				fmt.Println(e.String())
			}
			return nil
		}
		if err := need(0); err != nil {
			return err
		}
		s := db.Stats()
		if n := db.NumShards(); n > 1 {
			fmt.Printf("shards: %d\n", n)
		}
		fmt.Printf("tree:\n%s", db.DebugString())
		fmt.Printf("runs: %d   index memory: %d KiB\n", db.TotalRuns(), db.IndexMemory()>>10)
		fmt.Printf("flushes: %d   compactions: %d   write-amp: %.2f\n",
			s.Flushes, s.Compactions, s.WriteAmplification())
		fmt.Printf("point lookups: %d (%.2f block reads/op)   cache hit rate: %.2f\n",
			s.PointLookups, s.BlockReadsPerLookup(), s.CacheHitRate())
		fmt.Printf("filter probes: %d   negatives: %d   false positives: %d\n",
			s.FilterProbes, s.FilterNegatives, s.FilterFalsePositives)
		if db.NumShards() > 1 {
			// Aggregate counters above; the per-shard rows expose skew (one
			// shard flushing or stalling far ahead of its peers).
			for i, ss := range db.ShardStats() {
				fmt.Printf("shard %d: wal records: %d   flushes: %d   compactions: %d   lookups: %d   stalls: %d\n",
					i, ss.WALRecords, ss.Flushes, ss.Compactions, ss.PointLookups, ss.WriteStalls)
			}
		}
		return nil
	case "compact":
		return db.Compact()
	case "fill":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		for i := int64(0); i < n; i++ {
			if err := db.Put(workload.Key(i), workload.Value(i, 100)); err != nil {
				return err
			}
		}
		fmt.Printf("loaded %d entries\n", n)
		return nil
	case "gc":
		collected, err := db.RunValueLogGC()
		if err != nil {
			return err
		}
		fmt.Printf("collected=%v\n", collected)
		return nil
	case "tune":
		if err := need(1); err != nil {
			return err
		}
		switch rest[0] {
		case "status":
			sts := db.TunerStatus()
			if len(sts) == 0 {
				fmt.Println("(tuner not running — open with Options.AutoTune, or query a server started with -tune via -addr)")
				return nil
			}
			printTunerStatus(sts)
			return nil
		case "events":
			printTuneEvents("engine", db.Events())
			return nil
		default:
			return fmt.Errorf("tune expects status|events, got %q", rest[0])
		}
	default:
		return fmt.Errorf("unknown command %q (put|put-ttl|get|mget|incr|cas|delete|scan|trace|stats|compact|fill|gc|tune)", cmd)
	}
}

// incrDelta parses an incr command's arguments: key plus an optional
// signed delta (default +1).
func incrDelta(cmd string, rest []string) (int64, error) {
	switch len(rest) {
	case 1:
		return 1, nil
	case 2:
		return strconv.ParseInt(rest[1], 10, 64)
	default:
		return 0, fmt.Errorf("%s expects <key> [delta]", cmd)
	}
}

// casExpected maps the CLI's expected-value argument: the literal "-"
// asserts the key is absent, anything else is the comparand.
func casExpected(arg string) []byte {
	if arg == "-" {
		return nil
	}
	return []byte(arg)
}

// printTunerStatus renders per-shard tuner status rows: knob set, target
// design, last signals, and the applied-move history.
func printTunerStatus(sts []lsmkv.TunerStatus) {
	for _, st := range sts {
		state := "running"
		if !st.Running {
			state = "stopped"
		}
		if st.Frozen {
			state += " (frozen)"
		}
		fmt.Printf("shard %d: %s  interval=%s cooldown=%s  samples=%d moves=%d\n",
			st.Shard, state, st.Interval, st.Cooldown, st.Samples, st.Moves)
		c := st.Current
		fmt.Printf("  knobs: T=%d K=%d Z=%d bits/key=%.1f l0-slowdown=%d l0-stop=%d max-delay=%s\n",
			c.SizeRatio, c.K, c.Z, c.FilterBitsPerKey,
			c.L0SlowdownTrigger, c.L0StopTrigger, c.SlowdownMaxDelay)
		if st.TargetDesign != "" {
			fmt.Printf("  steering toward: %s\n", st.TargetDesign)
		}
		fmt.Printf("  last signals: %s\n", st.LastSignals)
		for _, d := range st.Decisions {
			fmt.Printf("  %s move: %s\n", d.Time.Format("15:04:05"), d.Rationale)
		}
	}
}

// printTuneEvents renders only the tuner's decision trail (tune and
// retune events) from an event stream.
func printTuneEvents(prefix string, events []lsmkv.Event) {
	n := 0
	for _, e := range events {
		if e.Type != "tune" && e.Type != "retune" {
			continue
		}
		fmt.Printf("%s  %s\n", prefix, e.String())
		n++
	}
	if n == 0 {
		fmt.Println("(no tuner events)")
	}
}

// runRemote executes one subcommand against a running lsmserver.
func runRemote(cl *client.Client, args []string) error {
	cmd, rest := args[0], args[1:]
	need := func(n int) error {
		if len(rest) != n {
			return fmt.Errorf("%s expects %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "put":
		if err := need(2); err != nil {
			return err
		}
		return cl.Put([]byte(rest[0]), []byte(rest[1]))
	case "put-ttl":
		if err := need(3); err != nil {
			return err
		}
		ttl, err := time.ParseDuration(rest[2])
		if err != nil {
			return fmt.Errorf("bad ttl %q: %w", rest[2], err)
		}
		return cl.PutTTL([]byte(rest[0]), []byte(rest[1]), ttl)
	case "incr":
		delta, err := incrDelta(cmd, rest)
		if err != nil {
			return err
		}
		n, err := cl.Incr([]byte(rest[0]), delta)
		if err != nil {
			return err
		}
		fmt.Println(n)
		return nil
	case "cas":
		if err := need(3); err != nil {
			return err
		}
		err := cl.Cas([]byte(rest[0]), casExpected(rest[1]), []byte(rest[2]))
		if errors.Is(err, client.ErrCASMismatch) {
			fmt.Println("(conflict: current value does not match)")
			return errReported
		}
		return err
	case "sketch":
		if len(rest) == 2 && rest[0] == "freq" {
			est, err := cl.SketchFreq([]byte(rest[1]))
			if err != nil {
				return err
			}
			fmt.Printf("~%d writes\n", est)
			return nil
		}
		if len(rest) == 1 && rest[0] == "card" {
			est, err := cl.SketchCard()
			if err != nil {
				return err
			}
			fmt.Printf("~%d distinct keys\n", est)
			return nil
		}
		return fmt.Errorf("sketch expects 'freq <key>' or 'card'")
	case "get":
		if err := need(1); err != nil {
			return err
		}
		v, err := cl.Get([]byte(rest[0]))
		if errors.Is(err, client.ErrNotFound) {
			fmt.Println("(not found)")
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", v)
		return nil
	case "mget":
		if len(rest) == 0 {
			return fmt.Errorf("mget expects at least one key")
		}
		keys := make([][]byte, len(rest))
		for i, k := range rest {
			keys[i] = []byte(k)
		}
		vals, err := cl.MultiGet(keys)
		if err != nil {
			return err
		}
		for i, v := range vals {
			if v == nil {
				fmt.Printf("%s => (not found)\n", keys[i])
				continue
			}
			fmt.Printf("%s => %s\n", keys[i], v)
		}
		return nil
	case "delete":
		if err := need(1); err != nil {
			return err
		}
		return cl.Delete([]byte(rest[0]))
	case "scan":
		if err := need(2); err != nil {
			return err
		}
		count := 0
		err := cl.ScanAll([]byte(rest[0]), []byte(rest[1]), func(k, v []byte) bool {
			fmt.Printf("%s => %s\n", k, v)
			count++
			return count < 1000
		})
		if err != nil {
			return err
		}
		fmt.Printf("(%d entries)\n", count)
		return nil
	case "trace":
		if err := need(1); err != nil {
			return err
		}
		tr, err := cl.Trace([]byte(rest[0]))
		if err != nil {
			return err
		}
		fmt.Print(tr.String())
		return nil
	case "stats":
		body, err := cl.Stats()
		if err != nil {
			return err
		}
		if len(rest) == 1 && rest[0] == "-events" {
			// The STATS payload already carries both event rings; render
			// them instead of echoing the whole JSON document.
			payload, err := server.DecodeMetrics(body)
			if err != nil {
				return err
			}
			if len(payload.Events.Server) == 0 && len(payload.Events.Engine) == 0 {
				fmt.Println("(no events)")
				return nil
			}
			for _, e := range payload.Events.Server {
				fmt.Printf("server  %s\n", e.String())
			}
			for _, e := range payload.Events.Engine {
				fmt.Printf("engine  %s\n", e.String())
			}
			return nil
		}
		os.Stdout.Write(body)
		fmt.Println()
		return nil
	case "ping":
		if err := cl.Ping(); err != nil {
			return err
		}
		fmt.Println("pong")
		return nil
	case "checkpoint":
		if err := need(1); err != nil {
			return err
		}
		body, err := cl.Checkpoint(rest[0])
		if err != nil {
			return err
		}
		var m struct {
			Shards   int      `json:"shards"`
			LastSeqs []uint64 `json:"last_seqs"`
			Files    int      `json:"files"`
			Bytes    int64    `json:"bytes"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("decode checkpoint marker: %w", err)
		}
		fmt.Printf("checkpoint %q committed: %d shard(s), %d files, %d bytes, seqs %v\n",
			rest[0], m.Shards, m.Files, m.Bytes, m.LastSeqs)
		return nil
	case "replstatus":
		body, err := cl.Stats()
		if err != nil {
			return err
		}
		payload, err := server.DecodeMetrics(body)
		if err != nil {
			return err
		}
		// Marshal cannot fail on these plain structs; a status prints as
		// the JSON object the server sent.
		compact := func(v any) []byte { b, _ := json.Marshal(v); return b }
		fmt.Printf("engine_seq: %v\n", payload.EngineSeqs)
		if payload.ReplPrimary != nil {
			fmt.Printf("primary: %s\n", compact(payload.ReplPrimary))
		}
		if payload.Replication != nil {
			fmt.Printf("follower: %s\n", compact(payload.Replication))
		} else {
			fmt.Println("follower: (not a follower)")
		}
		return nil
	case "verify-replica":
		// Compare this server's logical content against another server's
		// at this server's current watermarks: merkle here first (pinning
		// the vector), then on the peer at the same vector — the peer
		// (typically a caught-up follower) holds its GETSEQ/snapshot reads
		// until it has applied that far.
		if err := need(1); err != nil {
			return err
		}
		mine, err := cl.Merkle(0, nil)
		if err != nil {
			return err
		}
		peer, err := client.Dial(rest[0], &client.Options{MaxRetries: 2})
		if err != nil {
			return fmt.Errorf("dial peer: %w", err)
		}
		defer peer.Close()
		theirs, err := peer.Merkle(mine.Buckets, mine.Seqs)
		if err != nil {
			return err
		}
		if mine.Root == theirs.Root {
			fmt.Printf("identical at seqs %v: root %s (%d entries, %d buckets)\n",
				mine.Seqs, mine.Root, mine.Entries, mine.Buckets)
			return nil
		}
		diff, err := replica.DiffBuckets(mine, theirs)
		if err != nil {
			return err
		}
		return fmt.Errorf("DIVERGED at seqs %v: %d/%d buckets differ (%v); entries %d vs %d",
			mine.Seqs, len(diff), mine.Buckets, diff, mine.Entries, theirs.Entries)
	case "fill":
		if err := need(1); err != nil {
			return err
		}
		n, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		const chunk = 500
		for i := int64(0); i < n; i += chunk {
			var ops []client.Op
			for j := i; j < i+chunk && j < n; j++ {
				ops = append(ops, client.PutOp(workload.Key(j), workload.Value(j, 100)))
			}
			if err := cl.Batch(ops); err != nil {
				return err
			}
		}
		fmt.Printf("loaded %d entries\n", n)
		return nil
	case "tune":
		if err := need(1); err != nil {
			return err
		}
		body, err := cl.Stats()
		if err != nil {
			return err
		}
		payload, err := server.DecodeMetrics(body)
		if err != nil {
			return err
		}
		switch rest[0] {
		case "status":
			if len(payload.Tuner) == 0 {
				fmt.Println("(tuner not running — start the server with -tune)")
				return nil
			}
			printTunerStatus(payload.Tuner)
			return nil
		case "events":
			printTuneEvents("engine", payload.Events.Engine)
			return nil
		default:
			return fmt.Errorf("tune expects status|events, got %q", rest[0])
		}
	default:
		return fmt.Errorf("unknown remote command %q (put|put-ttl|get|mget|incr|cas|sketch|delete|scan|trace|stats|ping|fill|checkpoint|replstatus|verify-replica|tune)", cmd)
	}
}
