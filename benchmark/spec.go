package main

import "fmt"

// sizing fixes the store's dimensions. At scale 1 it is a quarter of
// the sizing ISSUE 11 probed (400k keys, 1 MiB memtable, 8 MiB cache):
// the driver's cap on total run time leaves about half a minute per
// run, set-up included, and every ratio that decides behaviour — store
// to cache (13×), hot range to cache (0.5×), store to memtable (100×) —
// is kept. See README.md "Sizes".
type sizing struct {
	// n keys are loaded: the even indices of the keyspace [0, 2n). The
	// odd indices are absent until a write workload inserts them.
	n int64
	// hot is the number of loaded keys in get-hot's contiguous range.
	hot      int64
	memtable int64
	cache    int64
}

const (
	keyLen   = 16
	valueLen = 256
	// entryBytes is what one live key costs a user: key plus value.
	entryBytes = keyLen + valueLen
	mgetKeys   = 32
	// scanSpan is the width, in key indices, of one scan's range: it
	// holds exactly scanLoaded loaded keys and whatever was inserted.
	scanSpan   = 100
	scanLoaded = 50
	// maxCallers divides 2n, so every caller owns an equal slice of the
	// keyspace (index mod callers) and each key has one writer.
	maxCallers = 64
)

// sizeFor is the sizing at a share of the benchmark's own. Every run
// is at scale 1; the smoke test alone runs smaller.
func sizeFor(scale float64) sizing {
	n := int64(100_000*scale) / maxCallers * maxCallers
	return sizing{
		n:        n,
		hot:      n / 25,
		memtable: max(int64(256<<10*scale), 32<<10),
		cache:    max(int64(2<<20*scale), 128<<10),
	}
}

// keyspace is the number of key indices, loaded and absent.
func (s sizing) keyspace() int64 { return 2 * s.n }

// opClass is the kind of call a caller makes; latencies are kept per
// class.
type opClass uint8

const (
	classGet opClass = iota
	classMget
	classPut
	classScan
	numClasses
)

var classNames = [numClasses]string{"get", "mget", "put", "scan"}

// classKinds is the user's view of a class: a GET and a MULTIGET are
// both a read.
var classKinds = [numClasses]string{"read", "read", "write", "scan"}

// workload describes one traffic mix. Every workload is a closed loop:
// each caller sends its next request when the previous reply arrived.
type workload struct {
	name string
	// callersPerConn callers share each pipelined connection.
	callersPerConn int
	// primary is the class whose latency is the end-to-end lat_p50_us
	// and lat_p95_us.
	primary opClass
	// writes marks workloads whose acknowledged writes are verified
	// after a drain, close and reopen.
	writes bool
	// zipfOver is the number of ranks the caller's Zipfian generator
	// (theta 0.99) draws from; 0 means the workload is uniform.
	zipfOver func(c *caller) int64
	// pick chooses a caller's next call.
	pick func(c *caller) opClass
	// readIndex chooses the key of a GET or the start of a scan;
	// ownIndex chooses a key this caller alone writes.
	readIndex func(c *caller) int64
	ownIndex  func(c *caller) int64
}

// scattered maps a Zipfian rank onto a caller's slice of the keyspace
// through the bijection rank·P mod slice, so hot keys are spread over
// the whole store, and hot loaded and hot absent keys alike.
func scattered(c *caller, rank int64, owner int) int64 {
	return rank*c.p%c.slice*int64(c.of) + int64(owner)
}

var workloads = []workload{
	{name: "get-hot", callersPerConn: 1, primary: classGet,
		zipfOver:  func(c *caller) int64 { return c.sz.hot },
		pick:      func(*caller) opClass { return classGet },
		readIndex: func(c *caller) int64 { return 2 * c.zipf.Next() }},
	{name: "mget-cold", callersPerConn: 1, primary: classMget,
		pick: func(*caller) opClass { return classMget }},
	// put-sync has enough callers in flight for commit groups of about
	// thirty: with groups of eight the host's disk decided three quarters
	// of a PUT's time, and its speed wanders by a third within minutes.
	{name: "put-sync", callersPerConn: 32, primary: classPut, writes: true,
		pick:     func(*caller) opClass { return classPut },
		ownIndex: func(c *caller) int64 { return c.rng.Int63n(c.slice)*int64(c.of) + int64(c.id) }},
	{name: "mixed", callersPerConn: 8, primary: classGet, writes: true,
		zipfOver: func(c *caller) int64 { return c.slice },
		pick: func(c *caller) opClass {
			switch u := c.rng.Float64(); {
			case u < 0.5:
				return classGet
			case u < 0.9:
				return classPut
			default:
				return classScan
			}
		},
		readIndex: func(c *caller) int64 { return scattered(c, c.zipf.Next(), c.rng.Intn(c.of)) },
		ownIndex:  func(c *caller) int64 { return scattered(c, c.zipf.Next(), c.id) }},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported value. BENCHMARK.json lists the same names and
// units; the smoke test checks both directions.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits names every end-to-end metric (--trace 0).
var endToEndUnits = map[string]string{
	"setup_s":    "s",
	"ops_s":      "1/s",
	"lat_p50_us": "us",
	"lat_p95_us": "us",
	"write_amp":  "x",
	"space_amp":  "x",
	"mem_mb":     "MB",
}

// perLayerUnits names every per-layer metric (--trace 1). The prefix is
// the package the number belongs to; e2e.* are the untraced run's view
// split by call class, trace.* come from the depth-traced replay.
var perLayerUnits = map[string]string{
	"e2e.read_p50_us":      "us",
	"e2e.read_p99_us":      "us",
	"e2e.write_p50_us":     "us",
	"e2e.write_p99_us":     "us",
	"e2e.scan_p50_us":      "us",
	"e2e.scan_p99_us":      "us",
	"e2e.window_write_amp": "x",

	"trace.overhead_pct":                "%",
	"trace.runs_considered_per_lookup":  "count",
	"trace.filter_negatives_per_lookup": "count",
	"trace.filter_false_pos_per_lookup": "count",
	"trace.cache_hits_per_lookup":       "count",
	"trace.cache_misses_per_lookup":     "count",

	"wire.get_self_ns":          "ns",
	"wire.mget_self_ns_per_key": "ns",
	"wire.put_self_ns":          "ns",
	"engine.get_ns":             "ns",
	"engine.mget_ns_per_key":    "ns",
	"engine.put_ns":             "ns",
	"engine.scan_ns":            "ns",

	"server.codec_req_ns":          "ns",
	"server.codec_resp_ns":         "ns",
	"server.mget_codec_ns_per_key": "ns",
	"server.commit_group_size":     "count",
	"server.resp_buf_allocs":       "count",
	"server.bytes_in":              "bytes",
	"server.bytes_out":             "bytes",

	"shard.route_ns": "ns",

	"core.get_hot_ns":             "ns",
	"core.get_cold_ns":            "ns",
	"core.mget32_ns_per_key":      "ns",
	"core.scan50_ns":              "ns",
	"core.allocs_per_get_cold":    "count",
	"core.put_nosync_ns":          "ns",
	"core.put_sync_ns":            "ns",
	"core.runs_probed_per_lookup": "count",
	"core.block_reads_per_lookup": "count",
	"core.tree_runs":              "count",
	"core.l0_runs_max":            "count",
	"core.l0_bytes":               "bytes",
	"core.l1_bytes":               "bytes",
	"core.l2_bytes":               "bytes",
	"core.l3plus_bytes":           "bytes",
	"core.shape_mismatch":         "count",
	"core.write_stall_ms":         "ms",
	"core.write_slowdown_ms":      "ms",

	"memtable.add_ns": "ns",
	"memtable.get_ns": "ns",

	"wal.append_ns":    "ns",
	"wal.sync_ns":      "ns",
	"wal.syncs_per_op": "count",
	"wal.bytes_per_op": "bytes",

	"sstable.get_cached_ns":      "ns",
	"sstable.get_uncached_ns":    "ns",
	"sstable.iter_ns_per_entry":  "ns",
	"sstable.build_ns_per_entry": "ns",
	"sstable.index_filter_bytes": "bytes",

	"filter.probe_ns":             "ns",
	"filter.fpr":                  "ratio",
	"filter.negatives_per_lookup": "count",

	"fence.find_ns":          "ns",
	"learned.plr_predict_ns": "ns",
	"learned.rs_predict_ns":  "ns",

	"cache.get_hit_ns":      "ns",
	"cache.insert_evict_ns": "ns",
	"cache.hit_rate":        "ratio",

	"compaction.flushes":       "count",
	"compaction.count":         "count",
	"compaction.trivial_moves": "count",
	"compaction.bytes_read":    "bytes",
	"compaction.bytes_written": "bytes",
	"compaction.drain_s":       "s",

	"kv.encode_ns":      "ns",
	"vfs.bytes_written": "bytes",
	"vfs.bytes_read":    "bytes",
}

// metricSet collects values and refuses names the tables above lack, so
// a typo fails the run instead of silently dropping a number.
type metricSet struct {
	units  map[string]string
	values map[string]metric
}

func newMetricSet(units map[string]string) *metricSet {
	return &metricSet{units: units, values: make(map[string]metric, len(units))}
}

func (m *metricSet) set(name string, v float64) {
	unit, ok := m.units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

// complete fills every declared metric the run did not set with zero:
// a per-layer number that does not apply to a workload (compaction on
// a read-only one, write latency on get-hot) is reported as 0.
func (m *metricSet) complete() map[string]metric {
	for name, unit := range m.units {
		if _, ok := m.values[name]; !ok {
			m.values[name] = metric{Unit: unit}
		}
	}
	return m.values
}
