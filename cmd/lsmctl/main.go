// Command lsmctl opens a database directory — or connects to a running
// lsmserver — and performs basic operations from the command line; the
// operational companion to the library and the server.
//
//	lsmctl -db /path <command>          # opens the directory in-process
//	lsmctl -addr host:4440 <command>    # speaks the binary protocol to a running lsmserver
//
// Either way (TestHeaderListsCommands holds the three lists below to the
// command table):
//
//	put <key> <value>
//	put-ttl <key> <value> <ttl>      # e.g. 30s, 5m, 1h
//	get <key>
//	mget <key>...                    # batch point reads; one MULTIGET round trip
//	incr <key> [delta]               # atomic counter add (default +1)
//	cas <key> <expected> <new>       # expected "-" asserts absent
//	delete <key>
//	scan <lo> <hi>                   # over -addr: streamed (SCANSTREAM frames)
//	fill <n>                         # load n synthetic entries in batches
//	trace <key>                      # read-path trace: runs, filters, fences
//	stats [-events]                  # counters, or the event log
//	tune status|events               # self-tuner state and its decisions
//
// Only with -db:
//
//	compact
//	gc
//
// Only with -addr — the server's own state, and replication and backup
// against servers started with -checkpoint-dir or -follow (see
// OPERATIONS.md):
//
//	ping
//	sketch freq <key> | card         # writes observed for key; distinct keys written
//	checkpoint <name>                # online backup on the server
//	replstatus                       # watermarks, streams, lag
//	verify-replica <peer>            # Merkle-compare two servers
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
	"strings"
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

// store is the method set *lsmkv.DB and *client.Client share; every
// command that works over both transports is written against it once.
type store interface {
	Put(key, value []byte) error
	PutTTL(key, value []byte, ttl time.Duration) error
	Get(key []byte) ([]byte, error)
	MultiGet(keys [][]byte) ([][]byte, error)
	Delete(key []byte) error
	Scan(lo, hi []byte, fn func(key, value []byte) bool) error
	Incr(key []byte, delta int64) (int64, error)
	CompareAndSwap(key, expected, newValue []byte) error
}

// env is what a command runs against: the shared surface, and exactly
// one of db (-db) and cl (-addr) for the commands that need more.
type env struct {
	store
	db *lsmkv.DB
	cl *client.Client
}

// batch applies ops in one call: one WAL record in-process, one BATCH
// frame over the wire. In-process the record is synced under the same
// policy a single Put is (Options.SyncWAL), and Close flushes whatever
// was not.
func (e *env) batch(ops []lsmkv.BatchOp) error {
	if e.db != nil {
		return e.db.ApplyBatch(ops, false)
	}
	return e.cl.Batch(ops)
}

// A command is one lsmctl subcommand. only is "" when it works over both
// transports, else the one flag ("db" or "addr") it needs; nargs < 0
// leaves the argument count to run.
type command struct {
	name, args string
	only       string
	nargs      int
	run        func(e *env, args []string) error
}

var commands = []command{
	{"put", "<key> <value>", "", 2, func(e *env, a []string) error {
		return e.Put([]byte(a[0]), []byte(a[1]))
	}},
	{"put-ttl", "<key> <value> <ttl>", "", 3, func(e *env, a []string) error {
		ttl, err := time.ParseDuration(a[2])
		if err != nil {
			return fmt.Errorf("bad ttl %q: %w", a[2], err)
		}
		return e.PutTTL([]byte(a[0]), []byte(a[1]), ttl)
	}},
	{"get", "<key>", "", 1, func(e *env, a []string) error {
		v, err := e.Get([]byte(a[0]))
		if errors.Is(err, lsmkv.ErrNotFound) {
			fmt.Println("(not found)")
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", v)
		return nil
	}},
	{"mget", "<key>...", "", -1, func(e *env, a []string) error {
		if len(a) == 0 {
			return fmt.Errorf("mget expects at least one key")
		}
		keys := make([][]byte, len(a))
		for i, k := range a {
			keys[i] = []byte(k)
		}
		vals, err := e.MultiGet(keys)
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
	}},
	{"incr", "<key> [delta]", "", -1, func(e *env, a []string) error {
		delta := int64(1)
		if len(a) == 2 {
			var err error
			if delta, err = strconv.ParseInt(a[1], 10, 64); err != nil {
				return err
			}
		} else if len(a) != 1 {
			return fmt.Errorf("incr expects <key> [delta]")
		}
		n, err := e.Incr([]byte(a[0]), delta)
		if err != nil {
			return err
		}
		fmt.Println(n)
		return nil
	}},
	{"cas", "<key> <expected> <new>", "", 3, func(e *env, a []string) error {
		// The literal "-" asserts the key is absent; anything else is the
		// comparand.
		var expected []byte
		if a[1] != "-" {
			expected = []byte(a[1])
		}
		err := e.CompareAndSwap([]byte(a[0]), expected, []byte(a[2]))
		if errors.Is(err, lsmkv.ErrCASMismatch) {
			fmt.Println("(conflict: current value does not match)")
			return errReported
		}
		return err
	}},
	{"delete", "<key>", "", 1, func(e *env, a []string) error {
		return e.Delete([]byte(a[0]))
	}},
	{"scan", "<lo> <hi>", "", 2, func(e *env, a []string) error {
		count := 0
		err := e.Scan([]byte(a[0]), []byte(a[1]), func(k, v []byte) bool {
			fmt.Printf("%s => %s\n", k, v)
			count++
			return count < 1000
		})
		if err != nil {
			return err
		}
		fmt.Printf("(%d entries)\n", count)
		return nil
	}},
	{"fill", "<n>", "", 1, func(e *env, a []string) error {
		n, err := strconv.ParseInt(a[0], 10, 64)
		if err != nil {
			return err
		}
		const chunk = 500
		for i := int64(0); i < n; i += chunk {
			var ops []lsmkv.BatchOp
			for j := i; j < i+chunk && j < n; j++ {
				ops = append(ops, lsmkv.PutOp(workload.Key(j), workload.Value(j, 100)))
			}
			if err := e.batch(ops); err != nil {
				return err
			}
		}
		fmt.Printf("loaded %d entries\n", n)
		return nil
	}},
	{"trace", "<key>", "", 1, func(e *env, a []string) error {
		var tr *lsmkv.Trace
		var err error
		if e.db != nil {
			_, tr, err = e.db.GetTraced([]byte(a[0]))
			if errors.Is(err, lsmkv.ErrNotFound) {
				err = nil // the trace itself reports the miss
			}
		} else {
			tr, err = e.cl.Trace([]byte(a[0]))
		}
		if err != nil {
			return err
		}
		fmt.Print(tr.String())
		return nil
	}},
	{"stats", "[-events]", "", -1, cmdStats},
	{"tune", "status|events", "", 1, cmdTune},

	{"compact", "", "db", -1, func(e *env, a []string) error { return e.db.Compact() }},
	{"gc", "", "db", -1, func(e *env, a []string) error {
		collected, err := e.db.RunValueLogGC()
		if err != nil {
			return err
		}
		fmt.Printf("collected=%v\n", collected)
		return nil
	}},

	{"ping", "", "addr", -1, func(e *env, a []string) error {
		if err := e.cl.Ping(); err != nil {
			return err
		}
		fmt.Println("pong")
		return nil
	}},
	{"sketch", "freq <key> | card", "addr", -1, func(e *env, a []string) error {
		var est uint64
		var err error
		what := "writes"
		switch {
		case len(a) == 2 && a[0] == "freq":
			est, err = e.cl.SketchFreq([]byte(a[1]))
		case len(a) == 1 && a[0] == "card":
			what = "distinct keys"
			est, err = e.cl.SketchCard()
		default:
			err = fmt.Errorf("sketch expects 'freq <key>' or 'card'")
		}
		if err != nil {
			return err
		}
		fmt.Printf("~%d %s\n", est, what)
		return nil
	}},
	{"checkpoint", "<name>", "addr", 1, func(e *env, a []string) error {
		body, err := e.cl.Checkpoint(a[0])
		if err != nil {
			return err
		}
		var m lsmkv.CheckpointInfo
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("decode checkpoint marker: %w", err)
		}
		fmt.Printf("checkpoint %q committed: %d shard(s), %d files, %d bytes, seqs %v\n",
			a[0], m.Shards, m.Files, m.Bytes, m.LastSeqs)
		return nil
	}},
	{"replstatus", "", "addr", -1, func(e *env, a []string) error {
		payload, err := remoteStats(e.cl)
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
	}},
	// verify-replica compares this server's logical content against
	// another server's at this server's current watermarks: merkle here
	// first (pinning the vector), then on the peer at the same vector —
	// the peer (typically a caught-up follower) holds its GETSEQ/snapshot
	// reads until it has applied that far.
	{"verify-replica", "<peer>", "addr", 1, func(e *env, a []string) error {
		mine, err := e.cl.Merkle(0, nil)
		if err != nil {
			return err
		}
		peer, err := client.Dial(a[0], &client.Options{MaxRetries: 2})
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
	}},
}

// runCommand looks args[0] up in the command table and runs it against e.
func runCommand(e *env, args []string) error {
	transport := "db"
	if e.cl != nil {
		transport = "addr"
	}
	var names []string
	for _, c := range commands {
		if c.name == args[0] {
			switch {
			case c.only != "" && c.only != transport:
				return fmt.Errorf("%s requires -%s", c.name, c.only)
			case c.nargs >= 0 && len(args)-1 != c.nargs:
				return fmt.Errorf("%s expects %d argument(s)", c.name, c.nargs)
			}
			return c.run(e, args[1:])
		}
		if c.only == "" || c.only == transport {
			names = append(names, c.name)
		}
	}
	return fmt.Errorf("unknown command %q with -%s (%s)", args[0], transport, strings.Join(names, "|"))
}

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

	var e env
	if *addr != "" {
		cl, err := client.Dial(*addr, &client.Options{MaxRetries: 2})
		if err != nil {
			return fail(fmt.Errorf("dial: %w", err))
		}
		defer cl.Close()
		e = env{store: cl, cl: cl}
	} else {
		opts, err := lsmkv.Preset(*preset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsmctl:", err)
			return 2
		}
		db, err := lsmkv.Open(*dir, opts)
		if err != nil {
			return fail(fmt.Errorf("open: %w", err))
		}
		defer db.Close()
		e = env{store: db, db: db}
	}
	if err := runCommand(&e, flag.Args()); err != nil {
		return fail(err)
	}
	return 0
}

// remoteStats fetches and decodes the server's STATS payload.
func remoteStats(cl *client.Client) (server.MetricsPayload, error) {
	body, err := cl.Stats()
	if err != nil {
		return server.MetricsPayload{}, err
	}
	return server.DecodeMetrics(body)
}

// cmdStats prints the store's counters, or with -events its event log:
// in-process from the engine, over the wire from the STATS payload (which
// carries both the server's and the engine's ring).
func cmdStats(e *env, a []string) error {
	events := len(a) == 1 && a[0] == "-events"
	if !events && len(a) != 0 {
		return fmt.Errorf("stats expects 0 argument(s)")
	}
	if e.cl != nil {
		body, err := e.cl.Stats()
		if err != nil {
			return err
		}
		if !events {
			os.Stdout.Write(body)
			fmt.Println()
			return nil
		}
		payload, err := server.DecodeMetrics(body)
		if err != nil {
			return err
		}
		if len(payload.Events.Server) == 0 && len(payload.Events.Engine) == 0 {
			fmt.Println("(no events)")
		}
		for _, ev := range payload.Events.Server {
			fmt.Printf("server  %s\n", ev.String())
		}
		for _, ev := range payload.Events.Engine {
			fmt.Printf("engine  %s\n", ev.String())
		}
		return nil
	}
	db := e.db
	if events {
		evs := db.Events()
		if len(evs) == 0 {
			fmt.Println("(no events)")
		}
		for _, ev := range evs {
			fmt.Println(ev.String())
		}
		return nil
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
}

// cmdTune prints the self-tuner's per-shard status, or its decision
// trail (tune and retune events) from the engine's event ring.
func cmdTune(e *env, a []string) error {
	var (
		sts    []lsmkv.TunerStatus
		events []lsmkv.Event
		hint   = "open with Options.AutoTune, or query a server started with -tune via -addr"
	)
	if e.db != nil {
		sts, events = e.db.TunerStatus(), e.db.Events()
	} else {
		payload, err := remoteStats(e.cl)
		if err != nil {
			return err
		}
		sts, events, hint = payload.Tuner, payload.Events.Engine, "start the server with -tune"
	}
	switch a[0] {
	case "status":
		if len(sts) == 0 {
			fmt.Printf("(tuner not running — %s)\n", hint)
		}
		printTunerStatus(sts)
	case "events":
		n := 0
		for _, ev := range events {
			if ev.Type == "tune" || ev.Type == "retune" {
				fmt.Printf("engine  %s\n", ev.String())
				n++
			}
		}
		if n == 0 {
			fmt.Println("(no tuner events)")
		}
	default:
		return fmt.Errorf("tune expects status|events, got %q", a[0])
	}
	return nil
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
		fmt.Printf("  knobs: %s\n", st.Current.Describe(nil))
		if st.TargetDesign != "" {
			fmt.Printf("  steering toward: %s\n", st.TargetDesign)
		}
		fmt.Printf("  last signals: %s\n", st.LastSignals)
		for _, d := range st.Decisions {
			fmt.Printf("  %s move: %s\n", d.Time.Format("15:04:05"), d.Rationale)
		}
	}
}
