package server

import (
	"errors"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/kv"
	"lsmkv/internal/sketch"
)

// rmwOp is one read-modify-write (INCR or CAS) riding a commitReq. The
// commit loop resolves it — reads the current value, applies the
// modification, and appends the resulting set to the group — under the
// shard's single-writer serialization, which is what makes the opcodes
// atomic without any extra locking. After done fires, result carries the
// INCR outcome and err any resolution failure (conflict, non-counter);
// a resolution failure excludes the op from the group, so the group's
// own commit error and err are independent.
type rmwOp struct {
	op          Opcode // OpIncr or OpCas
	key         []byte
	delta       int64  // INCR addend
	expected    []byte // CAS comparand (when hasExpected)
	hasExpected bool
	newValue    []byte // CAS replacement
	result      int64  // INCR outcome
	err         error  // resolution failure
}

// commitReq is one shard's slice of a write request (PUT, DELETE, BATCH,
// or a read-modify-write) waiting for that shard's group-commit loop.
// done receives the commit outcome exactly once; on success, seq holds
// the shard's sequence watermark after the commit group applied, which
// the ack layer forwards to clients as their read-your-writes coordinate.
type commitReq struct {
	ops   []core.BatchOp
	rmw   *rmwOp // when non-nil, ops is produced by resolution
	shard int
	seq   uint64
	done  chan error
}

// committer is one shard's group-commit loop: a single goroutine drains
// its submission channel, coalescing every write request it can grab (up
// to maxOps engine ops) into one ApplyShardBatch call — one WAL record
// and, when sync is on, one fsync for the whole group. Under load the
// group grows toward maxOps and the fsync cost amortizes across writers;
// idle, each write commits alone with no added latency.
//
// The server runs one per shard, so shards group-commit (and fsync)
// independently — the per-shard WAL is pointless if every shard's commits
// still funnel through one loop.
type committer struct {
	eng    Engine
	shard  int
	ch     chan *commitReq
	maxOps int
	sync   bool
	// sketches is fed each successfully committed group's keys — the
	// write-stream feed behind SKETCH. Only the commit loop writes it.
	sketches *sketch.Set
	metrics  *Metrics
	done     chan struct{}
}

func newCommitter(eng Engine, shard, maxOps int, sync bool, m *Metrics) *committer {
	return &committer{
		eng:      eng,
		shard:    shard,
		ch:       make(chan *commitReq, 4096),
		maxOps:   maxOps,
		sync:     sync,
		sketches: sketch.NewSet(),
		metrics:  m,
		done:     make(chan struct{}),
	}
}

func (c *committer) start() { go c.loop() }

// submit enqueues a write for the next commit group. It blocks when the
// queue is full — backpressure on the submitting connection.
func (c *committer) submit(req *commitReq) {
	c.metrics.CommitQueue.Add(1)
	c.ch <- req
}

// stop closes the submission channel and waits for the loop to drain
// every queued request. Callers must guarantee no submit is in flight.
func (c *committer) stop() {
	close(c.ch)
	<-c.done
}

// currentValue resolves key's value as the pending group ops (applied in
// order) overlay it on the engine: the newest pending op for key wins,
// with TTL entries judged against the wall clock (the one that stamped
// their expiry at dispatch). found=false means the key is
// absent (deleted, expired, or never written).
func (c *committer) currentValue(key []byte, pending []core.BatchOp) (value []byte, found bool, err error) {
	for i := len(pending) - 1; i >= 0; i-- {
		op := pending[i]
		if string(op.Key) != string(key) {
			continue
		}
		switch op.Kind {
		case kv.KindDelete:
			return nil, false, nil
		case kv.KindSetTTL:
			exp, payload, ok := kv.SplitExpiryValue(op.Value)
			if !ok || time.Now().UnixNano() >= exp {
				return nil, false, nil
			}
			return payload, true, nil
		default:
			return op.Value, true, nil
		}
	}
	// The engine routes by key, and every key this committer sees belongs
	// to its shard.
	v, err := c.eng.GetAppend(key, nil)
	if errors.Is(err, core.ErrNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// resolveRMW turns r into the BatchOp it commits as, reading the current
// value through the pending-group overlay. A nil return (with r.err set)
// excludes the op from the group.
func (c *committer) resolveRMW(r *rmwOp, pending []core.BatchOp) *core.BatchOp {
	cur, found, err := c.currentValue(r.key, pending)
	if err != nil {
		r.err = err
		return nil
	}
	switch r.op {
	case OpIncr:
		var n int64
		if found {
			var ok bool
			if n, ok = core.DecodeCounter(cur); !ok {
				r.err = core.ErrNotCounter
				return nil
			}
		}
		n += r.delta
		r.result = n
		op := core.PutOp(r.key, core.AppendCounter(nil, n))
		return &op
	case OpCas:
		if r.hasExpected != found || (found && string(cur) != string(r.expected)) {
			r.err = core.ErrCASMismatch
			return nil
		}
		op := core.PutOp(r.key, r.newValue)
		return &op
	default:
		r.err = errors.New("server: unknown rmw op")
		return nil
	}
}

func (c *committer) loop() {
	defer close(c.done)
	reqs := make([]*commitReq, 0, 64)
	ops := make([]core.BatchOp, 0, 256)
	add := func(r *commitReq) {
		reqs = append(reqs, r)
		if r.rmw != nil {
			// Resolution order is arrival order, and each RMW sees every
			// op already folded into this group — two INCRs of one key in
			// one group serialize exactly as if they committed apart.
			if op := c.resolveRMW(r.rmw, ops); op != nil {
				r.ops = append(r.ops[:0], *op)
				ops = append(ops, *op)
			}
			return
		}
		ops = append(ops, r.ops...)
	}
	for first := range c.ch {
		reqs, ops = reqs[:0], ops[:0]
		add(first)
		// Grab everything already queued without blocking: the writers
		// behind these requests are all waiting on an fsync anyway, so
		// folding them into this group is free latency-wise.
	drain:
		for len(ops) < c.maxOps {
			select {
			case r, open := <-c.ch:
				if !open {
					break drain
				}
				add(r)
			default:
				break drain
			}
		}
		c.metrics.CommitQueue.Add(int64(-len(reqs)))
		var err error
		if len(ops) > 0 {
			err = c.eng.ApplyShardBatch(c.shard, ops, c.sync)
			c.metrics.observeCommit(len(ops))
		}
		// The group's watermark is necessarily >= every member write's own
		// sequence number, so it is a valid (if slightly conservative)
		// read-your-writes coordinate for each of them.
		var seq uint64
		if err == nil {
			for _, op := range ops {
				c.sketches.Observe(op.Key)
			}
			seq = c.eng.LastSeqs()[c.shard]
		}
		for _, r := range reqs {
			r.seq = seq
			r.done <- err
		}
	}
}
