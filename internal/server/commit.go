package server

import (
	"lsmkv/internal/core"
	"lsmkv/internal/sketch"
)

// commitReq is one shard's slice of a write request (PUT, DELETE, BATCH,
// INCR or CAS) waiting for that shard's group-commit loop. done receives
// the commit outcome exactly once; on success, seq holds the shard's
// sequence watermark after the commit group applied, which the ack layer
// forwards to clients as their read-your-writes coordinate. An INCR or
// CAS is one op carrying a core.RMW: the engine resolves it inside the
// group's commit and writes the outcome there. A resolution failure
// (conflict, non-counter) leaves that op out of the group, so it and the
// group's own commit error are independent.
type commitReq struct {
	ops   []core.BatchOp
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

func (c *committer) loop() {
	defer close(c.done)
	reqs := make([]*commitReq, 0, 64)
	ops := make([]core.BatchOp, 0, 256)
	add := func(r *commitReq) {
		reqs = append(reqs, r)
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
		// Ops commit in arrival order, and the engine resolves each INCR or
		// CAS against the ops ahead of it in the group — N INCRs of one key
		// are one WAL record and one fsync, and still serialize.
		err := c.eng.ApplyShardBatch(c.shard, ops, c.sync)
		committed := 0
		for _, op := range ops {
			if op.RMW != nil && op.RMW.Err != nil {
				continue // resolution failed: not part of the record
			}
			committed++
			if err == nil {
				c.sketches.Observe(op.Key)
			}
		}
		if committed > 0 {
			c.metrics.observeCommit(committed)
		}
		// The group's watermark is necessarily >= every member write's own
		// sequence number, so it is a valid (if slightly conservative)
		// read-your-writes coordinate for each of them.
		var seq uint64
		if err == nil {
			seq = c.eng.LastSeqs()[c.shard]
		}
		for _, r := range reqs {
			r.seq = seq
			r.done <- err
		}
	}
}
