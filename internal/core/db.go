package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lsmkv/internal/cache"
	"lsmkv/internal/compaction"
	"lsmkv/internal/iostat"
	"lsmkv/internal/kv"
	"lsmkv/internal/manifest"
	"lsmkv/internal/memtable"
	"lsmkv/internal/sstable"
	"lsmkv/internal/vlog"
	"lsmkv/internal/wal"
)

// Errors returned by the engine.
var (
	ErrNotFound = errors.New("lsmkv: key not found")
	ErrClosed   = errors.New("lsmkv: database closed")
	// ErrCASMismatch is returned by CompareAndSwap when the current value
	// does not equal the expected one.
	ErrCASMismatch = errors.New("lsmkv: cas mismatch")
	// ErrNotCounter is returned by Incr when the key holds a value that is
	// not an 8-byte little-endian counter.
	ErrNotCounter = errors.New("lsmkv: value is not an 8-byte counter")
)

// immutableBuffer is a frozen memtable awaiting flush, paired with its
// WAL file.
type immutableBuffer struct {
	buf    *memtable.Memtable
	walNum uint64
}

// DB is the storage engine. It is safe for concurrent use.
type DB struct {
	opts Options
	// rate meters compaction output across all workers; nil when
	// unthrottled.
	rate *compaction.RateLimiter

	// commitMu serializes everything that appends to, syncs or replaces
	// the (mem, wal, walNum) triple: commits, memtable freezes (commit,
	// Flush, Close) and Checkpoint's log sync. File I/O on the log happens
	// under it and never under mu. A commit also resolves its conditional
	// ops and appends to the value log under it, and it guards commitHook.
	// Lock order: commitMu, then mu. See DESIGN.md, "Locks".
	commitMu sync.Mutex
	// queue holds submitted writes in arrival order, and lead is the
	// leader token: its holder takes the next group off the queue and
	// commits it (see Submit).
	queue chan *Write
	lead  chan struct{}
	// mem, wal and walNum change only with commitMu and mu both held, so
	// holding either is enough to read them.
	mem    *memtable.Memtable
	wal    *wal.Writer
	walNum uint64

	// mu guards the in-memory state below, and nothing slow on the
	// foreground paths: no commit, freeze, read or checkpoint does file I/O
	// under it (a version install still saves the manifest under it).
	mu     sync.Mutex
	cond   *sync.Cond // wakes writers and waiters when maintenance progresses
	bgCond *sync.Cond // wakes background workers when work may exist
	imms   []immutableBuffer
	// state is the tree as the manifest records it, the file list the
	// scheduler plans over; current holds those files' open tables, the
	// only index of them; sched claims the files of in-flight compactions.
	state   *manifest.State
	current *version
	sched   *compaction.Scheduler
	closed  bool
	bgErr   error
	// seq is the applied watermark: every entry at or below it is in a
	// memtable or a table. Stored with commitMu and mu held (or in Open),
	// after the entries are inserted; loaded anywhere (lastSeq).
	seq atomic.Uint64
	// rs is the published read state: what pin hands a read, republished
	// under mu wherever mem, imms or current change; nil once closed.
	rs atomic.Pointer[readState]
	// liveStates counts the read states some read may still hold: 1 when
	// every read in flight runs against the published one.
	liveStates atomic.Int32
	// slowdownActive tracks whether the current writes are inside a
	// slowdown episode, so the event log gets one event per episode
	// rather than one per delayed write.
	slowdownActive bool

	// snapshots maps active snapshot seqs to their refcounts.
	snapshots map[kv.SeqNum]int

	// commitHook observes every committed batch for replication (guarded
	// by commitMu); seqWaiters park WaitForSeq callers until the watermark
	// reaches their target.
	commitHook CommitHook
	seqWaiters []seqWaiter
	// walPins > 0 defers file deletion (an online checkpoint is copying the
	// file set); deadWALs, and deadSegments (a value-log segment GC emptied
	// to the sequence number its relocations ended at), await retire.
	walPins      int
	deadWALs     []uint64
	deadSegments map[uint64]kv.SeqNum
	gcCursor     uint64 // the segment emptied last: the next collection starts past it

	cache *cache.Cache
	vlog  *vlog.Log

	// The engine's instruments, always recorded: its I/O counters, its
	// per-operation latency histograms (Options.Latencies when the shard
	// router hands one set to every engine, else the engine's own) and its
	// bounded lifecycle event ring.
	stats  *iostat.Stats
	lat    *iostat.OpLatencies
	events *iostat.EventLog

	// workers tracks the flush worker and the compaction pool for
	// shutdown.
	workers sync.WaitGroup
}

// Open creates or reopens a database.
func Open(o Options) (*DB, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("core: Options.Dir is required")
	}
	if err := o.resolve(false); err != nil {
		return nil, err
	}
	if err := o.FS.MkdirAll(o.Dir); err != nil {
		return nil, err
	}
	picker, err := compaction.NewPicker(o.shape())
	if err != nil {
		return nil, err
	}
	db := &DB{
		opts:         o,
		sched:        compaction.NewScheduler(picker),
		rate:         compaction.NewRateLimiter(o.CompactionMaxBytesPerSec),
		snapshots:    make(map[kv.SeqNum]int),
		deadSegments: make(map[uint64]kv.SeqNum),
		queue:        make(chan *Write, maxQueued),
		lead:         make(chan struct{}, 1),
		stats:        &iostat.Stats{},
		lat:          o.Latencies,
		events:       iostat.NewEventLog(),
	}
	db.cond = sync.NewCond(&db.mu)
	db.bgCond = sync.NewCond(&db.mu)
	if db.lat == nil {
		db.lat = &iostat.OpLatencies{}
	}
	if o.CacheBytes > 0 {
		policy := cache.LRU
		if o.CacheClock {
			policy = cache.Clock
		}
		db.cache = cache.New(o.CacheBytes, policy)
	}
	if o.ValueSeparation {
		db.vlog, err = vlog.Open(o.FS, vlogDir(o.Dir), o.VlogSegmentBytes)
		if err != nil {
			return nil, err
		}
	}

	state, err := manifest.Load(o.FS, o.Dir)
	if err != nil {
		return nil, err
	}
	db.state = state
	db.seq.Store(state.LastSeq)
	db.current, err = db.buildVersion(state, nil)
	if err != nil {
		db.shutdownPartial()
		return nil, err
	}

	db.mem = db.newBuffer()
	if err := db.replayWALs(); err != nil {
		db.shutdownPartial()
		return nil, err
	}
	if !o.DisableWAL {
		if db.wal, db.walNum, err = db.createWAL(); err != nil {
			db.shutdownPartial()
			return nil, err
		}
	}
	db.publishLocked()

	// The flush worker drains the flush queue and nothing else, so a long
	// compaction never blocks a flush — which turned maintenance debt into
	// hard write stalls when one goroutine did both. The scheduler hands a
	// compaction worker a task whose level/file claims are disjoint from
	// every in-flight one's: merges run in parallel, installs under db.mu.
	db.workers.Add(1 + o.CompactionConcurrency)
	go db.worker(func() func() error {
		if len(db.imms) == 0 {
			return nil
		}
		im := db.imms[0]
		return func() error { return db.flush(im.buf, &im) }
	})
	for i := 0; i < o.CompactionConcurrency; i++ {
		go db.worker(func() func() error {
			task := db.sched.Next(db.state.Levels)
			if task == nil {
				return nil
			}
			return func() error { return db.compact(task) }
		})
	}
	return db, nil
}

func vlogDir(dir string) string { return dir + "/vlog" }

func (db *DB) shutdownPartial() {
	if db.current != nil {
		db.current.closeFiles()
	}
	if db.vlog != nil {
		db.vlog.Close()
	}
}

func (db *DB) newBuffer() *memtable.Memtable {
	if db.opts.TwoLevelMemtable {
		return memtable.NewTwoLevel(db.opts.MemtableBytes / 8)
	}
	return memtable.New()
}

// replayWALs re-applies batches from any WAL files left by a crash, in
// file-number order, then flushes the recovered buffer.
func (db *DB) replayWALs() error {
	names, err := db.opts.FS.List(db.opts.Dir)
	if err != nil {
		return err
	}
	var nums []uint64
	for _, name := range names {
		var n uint64
		if _, err := fmt.Sscanf(name, "%06d.wal", &n); err == nil {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	recovered := 0
	for i, n := range nums {
		complete, err := wal.Replay(db.opts.FS, db.walPath(n), func(payload []byte) error {
			firstSeq, ops, err := decodeBatch(payload)
			if err != nil {
				return err
			}
			if err := db.valuesSurvived(ops); err != nil {
				return err
			}
			db.insert(firstSeq, ops)
			db.seq.Store(max(db.seq.Load(), uint64(firstSeq)+uint64(len(ops))-1))
			recovered += len(ops)
			return nil
		})
		if errors.Is(err, errValuesLost) {
			complete, err = false, nil
		}
		if err != nil {
			return fmt.Errorf("replay %06d.wal: %w", n, err)
		}
		if !complete {
			// A torn log marks the crash point. Records in later logs were
			// written after it, so replaying them would leave a hole in
			// history; stop here for point-in-time recovery.
			if skipped := len(nums) - i - 1; skipped > 0 {
				db.opts.Logf("WAL %06d torn; dropping %d later log(s)", n, skipped)
			}
			break
		}
	}
	if recovered > 0 {
		db.opts.Logf("recovered %d entries from %d WAL files", recovered, len(nums))
		db.events.Add(iostat.Event{
			Type: iostat.EventWALRecovery, FromLevel: -1, ToLevel: -1,
			Detail: fmt.Sprintf("%d entries from %d logs", recovered, len(nums)),
		})
		if err := db.flush(db.mem, nil); err != nil {
			return err
		}
		db.mem = db.newBuffer()
	}
	db.retire(nums...)
	return nil
}

// errValuesLost marks a logged batch whose value-log bytes did not
// survive the crash. Without a synced write nothing orders the value
// log's writeback before the WAL's, so such a record is the crash point,
// as a torn tail is.
var errValuesLost = errors.New("value-log bytes lost")

// valuesSurvived returns errValuesLost if a value pointer among ops runs
// past what the value log kept, or reads back torn. A pointer into a
// segment GC removed is no loss: GC removes a segment only once the
// records re-pointing its live values are durable, and they replay later.
// It reads each replayed value once, outside the read path's counters.
func (db *DB) valuesSurvived(ops []BatchOp) error {
	for _, op := range ops {
		if op.Kind != kv.KindValuePointer || db.vlog == nil {
			continue
		}
		err := db.vlog.Verify(op.Value)
		switch {
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, vlog.ErrCorrupt):
			return errValuesLost
		case err != nil && !errors.Is(err, vlog.ErrNotFound):
			return err
		}
	}
	return nil
}

// createWAL creates the log file for a new active memtable under a fresh
// file number. Caller holds commitMu (or is in Open) and not db.mu.
func (db *DB) createWAL() (*wal.Writer, uint64, error) {
	num := db.newFileNum()
	// The log never syncs by itself: commit does, so the fsync can be timed.
	w, err := wal.Create(db.opts.FS, db.walPath(num), wal.Options{})
	if err != nil {
		return nil, 0, err
	}
	db.events.Add(iostat.Event{
		Type: iostat.EventWALRotate, FromLevel: -1, ToLevel: -1,
		Detail: fmt.Sprintf("wal %06d", num),
	})
	return w, num, nil
}

// Put stores key -> value.
func (db *DB) Put(key, value []byte) error { return db.writeOne(PutOp(key, value)) }

// PutTTL stores key -> value with a relative time-to-live: the entry
// stops being served the moment ttl elapses (lazy read-path filtering)
// and is physically reclaimed when bottommost compaction next rewrites
// its key range. TTL values are never vlog-separated.
func (db *DB) PutTTL(key, value []byte, ttl time.Duration) error {
	return db.PutAtExpiry(key, value, kv.ExpiryAfter(db.opts.Clock(), ttl.Nanoseconds()))
}

// PutAtExpiry is PutTTL with an absolute unix-nanosecond expiry.
func (db *DB) PutAtExpiry(key, value []byte, expiryUnixNano int64) error {
	return db.writeOne(PutTTLOp(key, value, expiryUnixNano))
}

// Delete removes key (writes a tombstone).
func (db *DB) Delete(key []byte) error { return db.writeOne(DeleteOp(key)) }

// Incr atomically adds delta to the signed 8-byte little-endian counter
// at key (treating an absent key as zero) and returns the new value. A
// present value of any other width fails with ErrNotCounter. A TTL on
// the previous version does not carry over.
func (db *DB) Incr(key []byte, delta int64) (int64, error) {
	op := IncrOp(key, delta)
	if err := db.writeOne(op); err != nil {
		return 0, err
	}
	return op.RMW.Result, op.RMW.Err
}

// CompareAndSwap atomically replaces key's value with newValue if the
// current value equals expected; expected == nil asserts the key is
// absent. On disagreement it returns ErrCASMismatch and writes nothing.
func (db *DB) CompareAndSwap(key, expected, newValue []byte) error {
	op := CASOp(key, expected, newValue)
	if err := db.writeOne(op); err != nil {
		return err
	}
	return op.RMW.Err
}

// writeOne commits a single-op write, timed as a "delete" when it is a
// tombstone and as a "put" otherwise.
func (db *DB) writeOne(op BatchOp) error {
	lat := latPut
	if op.Kind == kv.KindDelete {
		lat = latDelete
	}
	w := db.newWrite(false, lat)
	w.one[0] = op
	w.ops = w.one[:]
	_, err := db.enqueue(w).Wait()
	return err
}

// AppendCounter appends the 8-byte little-endian encoding of an Incr
// counter value.
func AppendCounter(dst []byte, v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return append(dst, b[:]...)
}

// DecodeCounter decodes an Incr counter value; ok is false when the
// value is not exactly 8 bytes.
func DecodeCounter(v []byte) (int64, bool) {
	if len(v) != 8 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(v)), true
}

// freezeMem moves the active memtable to the flush queue and starts a
// fresh one on a fresh log. Caller holds commitMu and not db.mu, so the
// freeze falls between commits: no record can land in a memtable whose
// log has been handed to the flusher. All file work — syncing the
// outgoing log, creating its successor — is done before the swap and
// outside db.mu; a failure there leaves (mem, wal, walNum) paired as they
// were.
func (db *DB) freezeMem() error {
	if db.mem.Len() == 0 {
		return nil
	}
	var next *wal.Writer
	var nextNum uint64
	outgoing := db.wal
	if outgoing != nil {
		// The outgoing log must be durable before its successor holds a
		// record: an unsynced log can lose a suffix that ends on a record
		// boundary, which replay cannot tell from a complete log, and it
		// would then replay the successor across the hole. Writes that
		// were synced as they committed left nothing to do.
		if err := outgoing.Sync(); err != nil {
			return err
		}
		var err error
		if next, nextNum, err = db.createWAL(); err != nil {
			return err
		}
	}
	db.mu.Lock()
	db.imms = append(db.imms, immutableBuffer{buf: db.mem, walNum: db.walNum})
	db.mem, db.wal, db.walNum = db.newBuffer(), next, nextNum
	retired := db.publishLocked()
	db.bgCond.Broadcast()
	db.mu.Unlock()
	retired.unref()
	if outgoing != nil {
		return outgoing.Close() // synced above; its flush owns the file now
	}
	return nil
}

// The engine's graduated backpressure, applied before a write may
// proceed, has two bands:
//
//  1. Soft slowdown (slowdown): once level 0 or the pending compaction
//     debt crosses its slowdown trigger, the write is delayed by an
//     amount ramping quadratically toward SlowdownMaxDelay — smearing
//     maintenance cost over many writes instead of saving it all for
//     one cliff.
//  2. Hard stop (waitRoomLocked): at L0StopTrigger or a full flush
//     queue, the write blocks until a worker makes room — the RocksDB
//     stop trigger, now the last resort rather than the only mechanism.

// slowdown sleeps the soft band's delay, if any: a group's leader once
// for the group, before it takes the group off the queue, and a
// replicated record or a GC batch before its commit. It holds no lock
// while asleep, and the writes queued meanwhile join the group, so they
// share the delay as they share the fsync.
func (db *DB) slowdown() {
	db.mu.Lock()
	d := db.slowdownDelayLocked()
	if d > 0 {
		if !db.slowdownActive {
			db.slowdownActive = true
			db.events.Add(iostat.Event{
				Type: iostat.EventWriteSlowdown, FromLevel: -1, ToLevel: -1,
				Detail: fmt.Sprintf("l0=%d debt=%dMiB delay=%s",
					db.l0RunsLocked(), db.debtLocked()>>20, d),
			})
		}
		db.stats.WriteSlowdowns.Add(1)
		db.stats.WriteSlowdownNs.Add(int64(d))
		db.bgCond.Broadcast()
	} else {
		db.slowdownActive = false
	}
	db.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// waitRoomLocked is the hard stop, and the gate every commit passes: it
// returns ErrClosed or the sticky background error when the engine can
// take no more writes. Caller holds db.mu (and commitMu, so the room it
// found is still there when the write lands); the wait releases db.mu.
func (db *DB) waitRoomLocked() error {
	if db.stallLocked() {
		start := time.Now()
		for !db.closed && db.bgErr == nil && db.stallLocked() {
			db.bgCond.Broadcast()
			db.cond.Wait()
		}
		d := time.Since(start)
		db.stats.WriteStalls.Add(1)
		db.stats.WriteStallNs.Add(int64(d))
		db.lat.Stall.Observe(d)
		db.events.Add(iostat.Event{
			Type: iostat.EventWriteStall, FromLevel: -1, ToLevel: -1,
			DurMs:  float64(d.Microseconds()) / 1e3,
			Detail: fmt.Sprintf("imms=%d l0=%d", len(db.imms), db.l0RunsLocked()),
		})
	}
	if db.closed {
		return ErrClosed
	}
	return db.bgErr
}

// stallLocked reports whether writes must hard-stop: a full flush queue
// or an overloaded level 0 both mean maintenance has lost the race with
// ingest. Caller holds db.mu.
func (db *DB) stallLocked() bool {
	return len(db.imms) >= db.opts.MaxImmutableMemtables ||
		db.l0RunsLocked() >= db.opts.L0StopTrigger
}

// slowdownDelayLocked returns the soft-backpressure delay for the next
// write: the worse of the L0 pressure (nonzero from the slowdown trigger
// on, ramping toward the stop trigger) and the debt pressure (over the
// debt limit's upper half), squared so light pressure is nearly free and
// the delay approaches SlowdownMaxDelay only near the hard stop. Caller
// holds db.mu.
func (db *DB) slowdownDelayLocked() time.Duration {
	maxDelay := db.opts.SlowdownMaxDelay
	if maxDelay <= 0 {
		return 0
	}
	var frac float64
	if lo, hi := db.opts.L0SlowdownTrigger, db.opts.L0StopTrigger; hi > lo {
		// The band engages AT the trigger: under a starved compactor the
		// steady state parks exactly on L0SlowdownTrigger, so a ramp that
		// is zero there would never fire before the hard stop.
		if l0 := db.l0RunsLocked(); l0 >= lo {
			if f := float64(l0-lo+1) / float64(hi-lo); f > frac {
				frac = f
			}
		}
	}
	if limit := db.opts.PendingCompactionSlowdownBytes; limit > 0 {
		if f := float64(db.debtLocked()-limit/2) / float64(limit-limit/2); f > frac {
			frac = f
		}
	}
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	return time.Duration(frac * frac * float64(maxDelay))
}

// debtLocked returns the pending compaction debt (bytes the tree must
// rewrite to satisfy its shape): every byte in level 0 (all of it must be
// rewritten at least once) plus each deeper level's bytes over its
// capacity. It reads the current version's level totals and the shape,
// the two things it depends on. Caller holds db.mu.
func (db *DB) debtLocked() int64 {
	shape := db.opts.shape()
	var debt int64
	for i, info := range db.current.info {
		sz := int64(info.Bytes)
		if i == 0 {
			debt += sz
		} else if c := int64(shape.LevelCapacity(i)); c > 0 && sz > c {
			debt += sz - c
		}
	}
	return debt
}

// l0RunsLocked returns the current run count of level 0. Caller holds
// db.mu.
func (db *DB) l0RunsLocked() int {
	if db.current == nil || len(db.current.levels) == 0 {
		return 0
	}
	return len(db.current.levels[0])
}

// Flush forces the active memtable to storage and waits for completion.
func (db *DB) Flush() error {
	db.commitMu.Lock()
	err := db.checkOpen()
	if err == nil {
		err = db.freezeMem()
	}
	db.commitMu.Unlock()
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for len(db.imms) > 0 && db.bgErr == nil && !db.closed {
		db.cond.Wait()
	}
	return db.bgErr
}

// checkOpen returns ErrClosed once Close has run. Close sets closed with
// commitMu held, so under commitMu the answer stays true until unlock.
func (db *DB) checkOpen() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return nil
}

// WaitIdle blocks until no flush or compaction work remains: the flush
// queue is empty, no compaction is in flight, and the tree satisfies its
// shape.
func (db *DB) WaitIdle() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		if db.closed {
			return ErrClosed
		}
		if db.bgErr != nil {
			return db.bgErr
		}
		if len(db.imms) == 0 && db.sched.Quiesced(db.state.Levels) {
			return nil
		}
		db.bgCond.Broadcast()
		db.cond.Wait()
	}
}

// setBgErrLocked records the first background failure and wakes every
// writer and worker so they observe it. Caller holds db.mu.
func (db *DB) setBgErrLocked(err error) {
	if db.bgErr == nil {
		db.bgErr = err
		db.opts.Logf("background error: %v", err)
	}
	db.cond.Broadcast()
	db.bgCond.Broadcast()
}

// worker is the one background loop, run once for flushes and
// CompactionConcurrency times for compactions: wait until next (called
// with db.mu held) has a job, run it unlocked, wake whoever waits on
// progress, and stop for good when the engine closes or a job fails.
func (db *DB) worker(next func() func() error) {
	defer db.workers.Done()
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		var run func() error
		for !db.closed && db.bgErr == nil {
			if run = next(); run != nil {
				break
			}
			db.bgCond.Wait()
		}
		if run == nil {
			return
		}
		db.mu.Unlock()
		err := run()
		db.mu.Lock()
		if err != nil {
			db.setBgErrLocked(err)
			return
		}
		// Progress frees a flush-queue slot, creates compaction work (a new
		// L0 run), relieves a stall, satisfies WaitIdle, or unblocks a
		// candidate task that conflicted with this one's claims.
		db.cond.Broadcast()
		db.bgCond.Broadcast()
	}
}

// Close flushes the memtable and stops background work.
func (db *DB) Close() error {
	// commitMu is held from the final freeze until closed is set: a write
	// cannot slip into the fresh memtable in between and be acknowledged
	// out of a log that the clean-shutdown path below then deletes.
	db.commitMu.Lock()
	if err := db.checkOpen(); err != nil {
		db.commitMu.Unlock()
		return err
	}
	// Flush what we can before shutting down.
	flushErr := db.freezeMem()
	db.mu.Lock()
	for flushErr == nil && len(db.imms) > 0 && db.bgErr == nil {
		db.bgCond.Broadcast()
		db.cond.Wait()
	}
	db.closed = true
	retired := db.publishLocked() // the closed state: reads now fail
	db.cond.Broadcast()
	db.bgCond.Broadcast()
	db.closeSeqWaitersLocked()
	db.mu.Unlock()
	db.commitMu.Unlock()
	retired.unref()

	db.workers.Wait()

	db.mu.Lock()
	// Only a clean shutdown may discard the log: after any flush or
	// background failure the WAL can still hold acknowledged records
	// that never reached a table, and the next open replays it. A
	// background failure is Close's error too: it kept the last buffers
	// from reaching a table, so Close cannot report them durable.
	if flushErr == nil {
		flushErr = db.bgErr
	}
	clean := flushErr == nil && len(db.imms) == 0
	cur := db.current
	db.mu.Unlock()
	var dead []uint64
	if db.wal != nil {
		// closed is set: no commit or checkpoint touches the log again.
		db.wal.Close()
		if clean {
			dead = append(dead, db.walNum)
		}
	}
	// A checkpoint still in flight retires what this leaves when it unpins.
	db.retire(dead...)
	cur.unref()
	cur.closeFiles()
	if db.vlog != nil {
		db.vlog.Close()
	}
	return flushErr
}

// Stats returns a snapshot of the engine's I/O counters.
func (db *DB) Stats() iostat.Snapshot { return db.stats.Snapshot() }

// Latencies returns per-operation latency summaries keyed "get", "put",
// "delete", "scan", "batch", plus "stall" for write-stall episodes;
// operations with no observations are omitted. Every key of a point-read
// batch is one "get" observation: a single Get records its own time, and
// each key of a MultiGet records its share of the batch's, the batch's
// time over its size.
func (db *DB) Latencies() map[string]iostat.LatencySummary { return db.lat.Summaries() }

// Events returns the retained engine lifecycle events, oldest first
// (flushes, compactions, WAL rotations and recoveries, value-log GC).
func (db *DB) Events() []iostat.Event { return db.events.Events() }

// EventLog exposes the engine's event ring, so the serving layer can
// interleave its own events with the engine's.
func (db *DB) EventLog() *iostat.EventLog { return db.events }

// cacheIface adapts the possibly-nil cache to the sstable hook.
func (db *DB) cacheIface() sstable.BlockCache {
	if db.cache == nil {
		return nil
	}
	return db.cache
}
