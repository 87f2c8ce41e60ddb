package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/iostat"
	wl "lsmkv/internal/workload"
)

// target is the depth a caller's calls enter at: the client over
// loopback, or the engine directly. The same op stream runs at both.
type target interface {
	get(key []byte) (val []byte, found bool, err error)
	multiGet(keys [][]byte) ([][]byte, error)
	put(key, val []byte) error
	scan(lo, hi []byte, fn func(k, v []byte) bool) error
	// writeTurn is taken before a put is timed and returns what releases
	// it; only the engine depth has turns (see engineTarget).
	writeTurn() (release func())
}

type clientTarget struct{ c *client.Client }

func (t clientTarget) get(key []byte) ([]byte, bool, error) {
	v, err := t.c.Get(key)
	if errors.Is(err, client.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}
func (t clientTarget) multiGet(keys [][]byte) ([][]byte, error) { return t.c.MultiGet(keys) }
func (t clientTarget) put(key, val []byte) error                { return t.c.Put(key, val) }
func (t clientTarget) scan(lo, hi []byte, fn func(k, v []byte) bool) error {
	return t.c.ScanStream(lo, hi, fn)
}
func (t clientTarget) writeTurn() func() { return noTurn }

func noTurn() {}

// engineTarget makes the calls the server makes for each opcode:
// GetAppend into a reused buffer, MultiGet, a synced batch, Scan. The
// server commits one group at a time; here every write is a group of
// its own, so callers take turns the same way, outside the timed call,
// and a write's span is one uncontended synced commit. What a client's
// PUT waits beyond that — its turn in a commit group — is counted as
// the wire's.
type engineTarget struct {
	db     *lsmkv.DB
	commit *sync.Mutex
	buf    []byte
	op     [1]lsmkv.BatchOp
	// One read call in a hundred goes through the engine's traced lookup,
	// which counts runs, filter verdicts and cache outcomes at the place
	// the work happens; traced sums them.
	reads  int
	traced lookupTrace
}

const tracedEvery = 100

func (t *engineTarget) get(key []byte) ([]byte, bool, error) {
	var v []byte
	var err error
	if t.reads++; t.reads%tracedEvery == 0 {
		var tr *lsmkv.Trace
		if v, tr, err = t.db.GetTraced(key); tr != nil {
			t.traced.add(tr)
		}
	} else if v, err = t.db.GetAppend(key, t.buf[:0]); err == nil {
		t.buf = v
	}
	if errors.Is(err, lsmkv.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}
func (t *engineTarget) multiGet(keys [][]byte) ([][]byte, error) {
	if t.reads++; t.reads%tracedEvery != 0 {
		return t.db.MultiGet(keys)
	}
	vals, traces, err := t.db.MultiGetTraced(keys)
	for _, tr := range traces {
		if tr != nil {
			t.traced.add(tr)
		}
	}
	return vals, err
}
func (t *engineTarget) put(key, val []byte) error {
	t.op[0] = lsmkv.PutOp(key, val)
	return t.db.ApplyBatch(t.op[:], true)
}
func (t *engineTarget) writeTurn() func() {
	t.commit.Lock()
	return t.commit.Unlock
}
func (t *engineTarget) scan(lo, hi []byte, fn func(k, v []byte) bool) error {
	return t.db.Scan(lo, hi, fn)
}

// span is one traced call. Spans of the same op at the two depths share
// caller and seq; the engine-depth span is the client-depth span's
// child.
type span struct {
	caller int
	seq    int64
	depth  string
	class  opClass
	// startNs and endNs count from processStart.
	startNs, endNs int64
}

var processStart = time.Now()

// lookupTrace sums what the engine's own read-path traces report, at
// the place the work happens.
type lookupTrace struct {
	lookups, runs, filterNegatives, falsePositives, cacheHits, cacheMisses int64
}

func (a *lookupTrace) merge(b lookupTrace) {
	a.lookups += b.lookups
	a.runs += b.runs
	a.filterNegatives += b.filterNegatives
	a.falsePositives += b.falsePositives
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
}

func (a *lookupTrace) add(tr *lsmkv.Trace) {
	a.lookups++
	a.runs += int64(len(tr.Runs))
	for _, r := range tr.Runs {
		if r.Decision == iostat.DecisionFilterNegative {
			a.filterNegatives++
		}
		if r.FalsePositive {
			a.falsePositives++
		}
		a.cacheHits += int64(r.CacheHits)
		a.cacheMisses += int64(r.CacheMisses)
	}
}

// numSlices is how many equal slices a window is cut into. A timing or
// a rate is computed per slice and reported as the median slice, so a
// disturbance shorter than half the window does not move it.
const numSlices = 10

// results is what one caller, or all of them merged, measured in one
// window. A call belongs to the slice it started in.
type results struct {
	// lat holds latencies in nanoseconds.
	lat       [numClasses][numSlices][]uint32
	attempted int64
	failed    int64
	// units is keys read plus keys written plus scans completed.
	units        [numSlices]int64
	firstFailure string
	spans        []span
}

func (r *results) merge(o *results) {
	for c := range r.lat {
		for s := range r.lat[c] {
			r.lat[c][s] = append(r.lat[c][s], o.lat[c][s]...)
		}
	}
	for s := range r.units {
		r.units[s] += o.units[s]
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
	r.spans = append(r.spans, o.spans...)
}

// samples is how many calls of a class the window timed.
func (r *results) samples(class opClass) int {
	n := 0
	for _, s := range r.lat[class] {
		n += len(s)
	}
	return n
}

// quantile returns the median over the window's slices of each slice's
// q-quantile of the class's latency, in microseconds; 0 without
// samples. It sorts the samples.
func (r *results) quantile(class opClass, q float64) float64 {
	var per []float64
	for _, s := range r.lat[class] {
		if len(s) == 0 {
			continue
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		per = append(per, float64(s[int(q*float64(len(s)-1))])/1e3)
	}
	if len(per) == 0 {
		return 0
	}
	return median(per)
}

// rate returns the median over the window's slices of units per second.
func (r *results) rate(window time.Duration) float64 {
	var per [numSlices]float64
	for s, u := range r.units {
		per[s] = float64(u) / (window.Seconds() / numSlices)
	}
	return median(per[:])
}

// caller is one closed loop: it sends a call, waits for the reply,
// checks it, and sends the next.
type caller struct {
	id, of int
	w      workload
	sz     sizing
	or     *oracle
	tgt    target
	rng    *rand.Rand
	zipf   *wl.KeyGen
	// slice is how many keys this caller owns; p scatters ranks over it.
	slice, p int64

	// depth names the spans this caller records; empty records none.
	depth string
	seq   int64
	// windowStart and sliceLen place a call in its slice of the window.
	windowStart time.Time
	sliceLen    time.Duration

	key, hi, val []byte
	mkeys        [][]byte
	midx         []int64
}

// newCallers builds the workload's callers; targetOf gives caller i the
// depth its calls enter at. The same seed gives the same op stream.
func newCallers(w workload, sz sizing, or *oracle, seed int64, targetOf func(i int) target) []*caller {
	of := numConns() * w.callersPerConn
	callers := make([]*caller, of)
	for i := range callers {
		c := &caller{
			id: i, of: of, w: w, sz: sz, or: or,
			tgt:   targetOf(i),
			rng:   rand.New(rand.NewSource(seed*1000 + int64(i))),
			slice: sz.keyspace() / int64(of),
			mkeys: make([][]byte, mgetKeys),
			midx:  make([]int64, mgetKeys),
		}
		c.p = coprime(c.slice)
		if w.zipfOver != nil {
			c.zipf = wl.NewKeyGen(wl.Zipfian, w.zipfOver(c), 0.99, seed*1000+500+int64(i))
		}
		callers[i] = c
	}
	return callers
}

// overClients spreads the callers over the store's connections.
func overClients(s *store) func(int) target {
	return func(i int) target { return clientTarget{s.clients[i%len(s.clients)]} }
}

// onEngine gives every caller its own engine target; they share the
// commit turn.
func onEngine(db *lsmkv.DB) func(int) target {
	commit := &sync.Mutex{}
	return func(int) target { return &engineTarget{db: db, commit: commit} }
}

// step makes one call and records it.
func (c *caller) step(r *results) {
	class := c.w.pick(c)
	var (
		start   time.Time
		elapsed time.Duration
		units   int64 = 1
		err     error
		wrong   string
	)
	switch class {
	case classGet:
		idx := c.w.readIndex(c)
		floor := c.or.acked[idx].Load()
		c.key = appendKey(c.key[:0], idx)
		start = time.Now()
		v, found, e := c.tgt.get(c.key)
		elapsed, err = time.Since(start), e
		if err == nil && !c.or.checkRead(idx, floor, v, found) {
			wrong = fmt.Sprintf("get %d: found=%v, not a version in [%d, issued]", idx, found, floor)
		}
	case classMget:
		// Exactly half of every batch is absent: loaded keys are the even
		// indices, and the batch alternates even and odd.
		for j := range c.mkeys {
			c.midx[j] = 2*c.rng.Int63n(c.sz.n) + int64(j&1)
			c.mkeys[j] = appendKey(c.mkeys[j][:0], c.midx[j])
		}
		start = time.Now()
		vals, e := c.tgt.multiGet(c.mkeys)
		elapsed, err, units = time.Since(start), e, mgetKeys
		if err == nil && len(vals) != mgetKeys {
			wrong = fmt.Sprintf("multiget returned %d values", len(vals))
		}
		for j := 0; err == nil && wrong == "" && j < mgetKeys; j++ {
			idx := c.midx[j]
			if !c.or.checkRead(idx, c.or.acked[idx].Load(), vals[j], vals[j] != nil) {
				wrong = fmt.Sprintf("multiget key %d: found=%v", idx, vals[j] != nil)
			}
		}
	case classPut:
		idx := c.w.ownIndex(c)
		ver := c.or.issued[idx].Load() + 1
		c.or.issued[idx].Store(ver)
		c.key = appendKey(c.key[:0], idx)
		c.val = c.or.appendValue(c.val[:0], idx, ver)
		release := c.tgt.writeTurn()
		start = time.Now()
		err = c.tgt.put(c.key, c.val)
		elapsed = time.Since(start)
		release()
		if err == nil {
			c.or.acknowledge(idx, ver)
		}
	case classScan:
		lo := min(c.w.readIndex(c), c.sz.keyspace()-scanSpan)
		last := lo + scanSpan - 1
		c.key = appendKey(c.key[:0], lo)
		c.hi = appendKey(c.hi[:0], last)
		prev, loaded := lo-1, 0
		start = time.Now()
		err = c.tgt.scan(c.key, c.hi, func(k, v []byte) bool {
			idx, ok := parseKey(k)
			// The floor is the loaded state, not acked: a write may be
			// acknowledged after the scan took its view.
			if !ok || idx <= prev || idx > last || !c.or.checkRead(idx, uint32(1-idx&1), v, true) {
				wrong = fmt.Sprintf("scan from %d: bad pair at key %q", lo, k)
			}
			if idx&1 == 0 {
				loaded++
			}
			prev = idx
			return true
		})
		elapsed = time.Since(start)
		if err == nil && wrong == "" && loaded != scanLoaded {
			wrong = fmt.Sprintf("scan from %d saw %d of %d loaded keys", lo, loaded, scanLoaded)
		}
	}
	r.attempted++
	if err != nil {
		wrong = fmt.Sprintf("%s: %v", classNames[class], err)
	}
	if wrong != "" {
		if r.failed++; r.firstFailure == "" {
			r.firstFailure = wrong
		}
		return
	}
	slice := min(int(start.Sub(c.windowStart)/c.sliceLen), numSlices-1)
	r.units[slice] += units
	r.lat[class][slice] = append(r.lat[class][slice], uint32(min(elapsed, 1<<32-1)))
	if c.depth != "" {
		at := int64(start.Sub(processStart))
		r.spans = append(r.spans, span{c.id, c.seq, c.depth, class, at, at + int64(elapsed)})
	}
	c.seq++
}

// drive runs the callers for a window of length d and returns what they
// measured. sample, when set, is called about twenty times a second
// while they run.
func drive(callers []*caller, d time.Duration, sample func()) *results {
	var stop atomic.Bool
	var wg sync.WaitGroup
	per := make([]*results, len(callers))
	start := time.Now()
	for i, c := range callers {
		c.windowStart, c.sliceLen = start, max(d/numSlices, 1)
		r := &results{}
		per[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c.step(r)
			}
		}()
	}
	for left := d; left > 0; left = d - time.Since(start) {
		time.Sleep(min(left, 50*time.Millisecond))
		if sample != nil {
			sample()
		}
	}
	stop.Store(true)
	wg.Wait()
	total := &results{}
	for _, r := range per {
		total.merge(r)
	}
	return total
}
