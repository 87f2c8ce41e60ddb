package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/server"
)

// counter names one of the engine's or the server's counters the
// benchmark reports.
type counter int

const (
	blockReads counter = iota
	bytesRead
	cacheHits
	cacheMisses
	filterNegatives
	bytesWritten
	compactionBytesRead
	compactionBytesWritten
	compactions
	flushes
	trivialMoves
	runsProbed
	pointLookups
	writeOps
	walSyncs
	writeStallNs
	writeSlowdownNs
	srvBytesIn
	srvBytesOut
	commitBatches
	commitOps
	respBufAllocs
	numCounters
)

// counters is a copy of them, so a window's share is a subtraction.
type counters [numCounters]int64

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// store is the system under test: one process holding the engine, the
// server in front of it on loopback, and the clients that drive it.
type store struct {
	dir     string
	sz      sizing
	db      *lsmkv.DB
	srv     *server.Server
	ln      net.Listener
	served  chan error
	clients []*client.Client

	// loadWritten is what the load wrote to storage, kept because the
	// engine's counters restart at the reopen that ends set-up.
	loadWritten int64
	// shape is the tree the load settled to, e.g. "L0:3 L1:1 L2:1".
	shape  string
	levels []lsmkv.LevelInfo
}

// serveOptions is lsmserver's default preset with the sizes scaled.
func serveOptions(sz sizing) *lsmkv.Options {
	o := lsmkv.Default()
	o.MemtableBytes = sz.memtable
	o.CacheBytes = sz.cache
	o.Shards = 1
	o.TrackLatency = true
	return o
}

// numConns is how many connections drive the server: the load comes
// from this one process, with no more connections than processors.
func numConns() int { return min(runtime.NumCPU(), 2) }

// loadStore writes the n loaded keys into a fresh directory and leaves
// the tree in the same shape every time: one compaction worker, and a
// flush and a drain after every memtable's worth of keys, so no
// decision depends on how background work was scheduled. Keys arrive in
// the order i·P mod n — a bijection, so exactly n distinct keys are
// loaded, and scattered, so flushes overlap and compaction has to
// merge.
func loadStore(dir string, sz sizing, or *oracle) (written int64, err error) {
	o := serveOptions(sz)
	o.CompactionConcurrency = 1
	db, err := lsmkv.Open(dir, o)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	settle := func() error {
		if err := db.Flush(); err != nil {
			return err
		}
		return db.Compact()
	}
	// The load settles before the memtable can fill on its own, so every
	// flush is one this loop asked for. memEntry is what the memtable
	// charges for one entry (key, trailer, value, tower estimate).
	const batch, memEntry = 128, entryBytes + 8 + 48
	p := coprime(sz.n)
	arena := make([]byte, 0, batch*entryBytes)
	ops := make([]lsmkv.BatchOp, 0, batch)
	var pending int64
	for i := int64(0); i < sz.n; i++ {
		idx := 2 * (i * p % sz.n)
		k := len(arena)
		arena = appendKey(arena, idx)
		v := len(arena)
		arena = or.appendValue(arena, idx, 1)
		ops = append(ops, lsmkv.PutOp(arena[k:v], arena[v:]))
		if len(ops) < batch && i != sz.n-1 {
			continue
		}
		if err := db.ApplyBatch(ops, false); err != nil {
			return 0, err
		}
		pending += int64(len(ops)) * memEntry
		ops, arena = ops[:0], arena[:0]
		if pending+batch*memEntry > sz.memtable {
			pending = 0
			if err := settle(); err != nil {
				return 0, err
			}
		}
	}
	if err := settle(); err != nil {
		return 0, err
	}
	return db.Stats().BytesWritten, nil
}

// coprime returns a multiplier P with gcd(P, m) = 1, so i·P mod m
// visits every residue once.
func coprime(m int64) int64 {
	gcd := func(a, b int64) int64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	p := int64(1_000_003)
	for gcd(p, m) != 1 {
		p += 2
	}
	return p
}

// setUp builds the whole system: load, settle, reopen with the options
// the server ships, check that exactly n keys are there, serve on
// loopback and connect.
func setUp(dir string, sz sizing, or *oracle) (*store, error) {
	written, err := loadStore(dir, sz, or)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	s := &store{dir: dir, sz: sz, loadWritten: written}
	if err := s.open(); err != nil {
		return nil, err
	}
	var count int64
	if err := s.db.Scan(nil, nil, func(_, _ []byte) bool { count++; return true }); err != nil {
		s.db.Close()
		return nil, fmt.Errorf("count scan: %w", err)
	}
	if count != sz.n {
		s.db.Close()
		return nil, fmt.Errorf("loaded %d keys, want %d", count, sz.n)
	}
	s.levels = s.db.Levels()
	var shape []string
	for _, l := range s.levels {
		if l.Runs > 0 {
			shape = append(shape, fmt.Sprintf("L%d:%d", l.Level, l.Runs))
		}
	}
	s.shape = strings.Join(shape, " ")
	if err := s.serve(); err != nil {
		s.db.Close()
		return nil, err
	}
	return s, nil
}

func (s *store) open() error {
	db, err := lsmkv.Open(s.dir, serveOptions(s.sz))
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	s.db = db
	return nil
}

func (s *store) serve() error {
	srv, err := server.New(server.Config{DB: s.db, SyncWrites: true})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv, s.ln, s.served = srv, ln, make(chan error, 1)
	go func() { s.served <- srv.Serve(ln) }()
	for i := 0; i < numConns(); i++ {
		c, err := client.Dial(ln.Addr().String(), &client.Options{RequestTimeout: 10 * time.Second})
		if err != nil {
			s.stopServing()
			return err
		}
		s.clients = append(s.clients, c)
		// A dial succeeds from the listener's backlog before Serve has run.
		// One reply proves that it is running, so the set-up that returns is
		// a serving system, and a Shutdown straight after finds it.
		if _, err := c.Get(appendKey(nil, 0)); err != nil {
			s.stopServing()
			return fmt.Errorf("first round trip: %w", err)
		}
	}
	return nil
}

// stopServing closes the clients and drains the server. The engine
// stays open.
func (s *store) stopServing() error {
	if s.srv == nil {
		return nil
	}
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	// Shutdown closes the listener only if Serve has registered it by
	// then. When serve gave up before its first reply, Shutdown can get
	// there first and Serve would accept for ever; a closed listener ends
	// it either way.
	_ = s.ln.Close()
	if serr := <-s.served; err == nil {
		err = serr
	}
	s.srv = nil
	return err
}

// drain waits until no flush or compaction is left to do.
func (s *store) drain() error {
	if err := s.db.Flush(); err != nil {
		return err
	}
	return s.db.Compact()
}

// close stops serving and closes the engine.
func (s *store) close() error {
	err := s.stopServing()
	if s.db != nil {
		err = errors.Join(err, s.db.Close())
		s.db = nil
	}
	return err
}

func (s *store) counters() counters {
	e := s.db.Stats()
	c := counters{
		blockReads: e.BlockReads, bytesRead: e.BytesRead,
		cacheHits: e.BlockCacheHits, cacheMisses: e.BlockCacheMisses,
		filterNegatives:        e.FilterNegatives,
		bytesWritten:           e.BytesWritten,
		compactionBytesRead:    e.CompactionBytesRead,
		compactionBytesWritten: e.CompactionBytesWritten,
		compactions:            e.Compactions, flushes: e.Flushes, trivialMoves: e.TrivialMoves,
		runsProbed: e.RunsProbed, pointLookups: e.PointLookups,
		writeOps: e.WriteOps, walSyncs: e.WALSyncs,
		writeStallNs: e.WriteStallNs, writeSlowdownNs: e.WriteSlowdownNs,
	}
	if s.srv != nil {
		m := s.srv.Metrics().Snapshot()
		c[srvBytesIn], c[srvBytesOut] = m.BytesIn, m.BytesOut
		c[commitBatches], c[commitOps], c[respBufAllocs] = m.CommitBatches, m.CommitOps, m.RespBufAllocs
	}
	return c
}

// diskBytes sums the sizes of the files under the store's directory. A
// file that compaction deletes while the walk runs counts as gone.
func (s *store) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// verifyAll scans the whole store and checks it against the oracle:
// every acknowledged key is there at a version no older than the
// acknowledged one, and nothing else is.
func (s *store) verifyAll(or *oracle) error {
	var next, bad int64
	var firstBad string
	fail := func(format string, args ...any) {
		if bad++; firstBad == "" {
			firstBad = fmt.Sprintf(format, args...)
		}
	}
	// absent reports acknowledged keys in [next, upto) the scan skipped.
	absent := func(upto int64) {
		for ; next < upto; next++ {
			if or.acked[next].Load() > 0 {
				fail("acknowledged key %d is missing", next)
			}
		}
	}
	err := s.db.Scan(nil, nil, func(k, v []byte) bool {
		idx, ok := parseKey(k)
		if !ok || idx < next || idx >= s.sz.keyspace() {
			fail("unexpected key %q", k)
			return true
		}
		absent(idx)
		next = idx + 1
		if !or.checkRead(idx, or.acked[idx].Load(), v, true) {
			fail("key %d holds a wrong or stale value", idx)
		}
		return true
	})
	if err != nil {
		return err
	}
	absent(s.sz.keyspace())
	if bad > 0 {
		return fmt.Errorf("%d keys wrong after reopen; first: %s", bad, firstBad)
	}
	return nil
}
