package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
)

// conn is one client connection. Three goroutines cooperate to give
// pipelining without unbounded buffering:
//
//   - readLoop decodes frames; reads (GET/SCANSTREAM/STATS/PING) execute
//     inline, writes are handed to their shards' group committers and a
//     pending-ack token is queued on acks.
//   - ackLoop awaits each write's commit outcome in submission order and
//     emits its response.
//   - writeLoop serializes responses from out, flushing once the queue
//     goes momentarily idle so pipelined responses share syscalls.
//
// Responses carry request IDs, so reads and writes may complete out of
// order relative to each other; writes are acknowledged only after their
// commit group is applied (and fsynced when SyncWrites is on). A client
// that wants read-your-writes on one connection waits for the write ack
// before issuing the read.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	out  chan *respBuf
	acks chan *pendingWrite

	// stop closes when the connection is going away — on drain or when the
	// write side breaks. Replication streams (which occupy the read loop
	// and never see the read deadline) select on it to terminate.
	stop     chan struct{}
	stopOnce sync.Once

	dmu      sync.Mutex // guards read-deadline arming vs drain
	draining bool
}

// pendingWrite tracks one write awaiting its shard's commit group — for a
// BATCH spanning shards, every involved shard's. The ack goes out only
// after all of them complete; the first error wins.
type pendingWrite struct {
	id    uint32
	op    Opcode
	start time.Time
	reqs  []*commitReq
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:  s,
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		bw:   bufio.NewWriterSize(nc, 64<<10),
		out:  make(chan *respBuf, 256),
		acks: make(chan *pendingWrite, 1024),
		stop: make(chan struct{}),
	}
}

// signalStop closes the connection's stop channel (idempotent).
func (c *conn) signalStop() {
	c.stopOnce.Do(func() { close(c.stop) })
}

func (c *conn) run() {
	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)
	go c.ackLoop()
	c.readLoop()
	// readLoop is the only sender on acks; ackLoop drains what remains
	// (every queued write still gets its response) then closes out, and
	// writeLoop flushes before exiting. That ordering is the drain
	// guarantee: no acknowledged-or-accepted request is dropped.
	close(c.acks)
	<-writerDone
	c.nc.Close()
	c.srv.removeConn(c)
}

// beginDrain stops this connection from decoding further requests:
// in-flight ones still complete and their responses are written.
func (c *conn) beginDrain() {
	c.dmu.Lock()
	c.draining = true
	c.nc.SetReadDeadline(time.Now())
	c.dmu.Unlock()
	c.signalStop()
}

// armReadDeadline sets the idle deadline unless the connection is
// draining (in which case the now-deadline must stay in force).
func (c *conn) armReadDeadline() bool {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if c.draining {
		return false
	}
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
	return true
}

func (c *conn) readLoop() {
	for {
		if !c.armReadDeadline() {
			return
		}
		payload, err := ReadFrame(c.br, c.srv.cfg.MaxFrameBytes)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrMalformed) {
				// Framing is lost; tell the client why on the reserved
				// connection-level ID, then hang up.
				c.srv.metrics.DecodeErrors.Add(1)
				c.send(&Response{ID: ConnErrID, Status: StatusError, Value: []byte(err.Error())})
			}
			return
		}
		c.srv.metrics.BytesIn.Add(int64(len(payload) + frameHeaderLen))
		req, err := DecodeRequest(payload)
		if err != nil {
			// Frame boundary intact, body malformed: answer and carry on.
			c.srv.metrics.DecodeErrors.Add(1)
			c.send(&Response{ID: req.ID, Status: StatusError, Value: []byte(err.Error())})
			continue
		}
		c.dispatch(&req)
	}
}

func (c *conn) dispatch(req *Request) {
	m := c.srv.metrics
	m.Inflight.Add(1)
	start := time.Now()

	if c.srv.bucket != nil && req.Op != OpPing {
		wait, ok := c.srv.bucket.Reserve(c.srv.cfg.MaxThrottleDelay)
		if !ok {
			m.Throttled.Add(1)
			c.srv.events.Add(iostat.Event{
				Type: iostat.EventThrottle, FromLevel: -1, ToLevel: -1,
				Detail: req.Op.String(),
			})
			m.observeOp(req.Op, time.Since(start))
			c.send(&Response{ID: req.ID, Status: StatusThrottled, Value: []byte("rate limit exceeded")})
			return
		}
		if wait > 0 {
			// Sleeping in the read loop is the backpressure: this
			// connection stops feeding the server until its debt clears.
			m.ThrottleWaitNs.Add(int64(wait))
			time.Sleep(wait)
		}
	}

	switch req.Op {
	case OpPing:
		c.finishRead(req, start, &Response{ID: req.ID, Status: StatusOK})
	case OpGet:
		c.handleGet(req, start)
	case OpMultiGet:
		c.handleMultiGet(req, start)
	case OpScanStream:
		c.handleScanStream(req, start)
	case OpStats:
		c.handleStats(req, start)
	case OpTrace:
		c.handleTrace(req, start)
	case OpGetSeq:
		c.handleGetSeq(req, start)
	case OpCheckpoint:
		c.handleCheckpoint(req, start)
	case OpMerkle:
		c.handleMerkle(req, start)
	case OpReplSync:
		c.handleReplSync(req, start)
	case OpSketch:
		c.handleSketch(req, start)
	case OpPut:
		c.submitWrite(req, start, []core.BatchOp{core.PutOp(req.Key, req.Value)})
	case OpPutTTL:
		// The absolute expiry is stamped server-side at dispatch, so
		// clients never need a synchronized clock — only a duration.
		exp := time.Now().UnixNano() + int64(req.TTLMillis)*int64(time.Millisecond)
		c.submitWrite(req, start, []core.BatchOp{core.PutTTLOp(req.Key, req.Value, exp)})
	case OpDelete:
		c.submitWrite(req, start, []core.BatchOp{core.DeleteOp(req.Key)})
	case OpBatch:
		c.submitWrite(req, start, req.Ops)
	case OpIncr:
		c.submitWrite(req, start, []core.BatchOp{core.IncrOp(req.Key, req.Delta)})
	case OpCas:
		// Expected is non-nil exactly when the request has one (see
		// DecodeRequest); nil asserts the key absent.
		c.submitWrite(req, start, []core.BatchOp{core.CASOp(req.Key, req.Expected, req.Value)})
	}
}

// finishRead records metrics for an inline-served request and sends its
// response.
func (c *conn) finishRead(req *Request, start time.Time, resp *Response) {
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	c.send(resp)
}

// handleGet serves GET: the value lands directly after the response
// header in the pooled buffer — no intermediate value slice at all.
func (c *conn) handleGet(req *Request, start time.Time) {
	rb := getRespBuf()
	rb.b = binary.LittleEndian.AppendUint32(rb.b, req.ID)
	rb.b = append(rb.b, byte(StatusOK))
	b, err := c.srv.cfg.DB.GetAppend(req.Key, rb.b)
	switch {
	case err == nil:
		rb.b = b
	case errors.Is(err, core.ErrNotFound):
		rb.b = AppendResponse(rb.b[:0], &Response{ID: req.ID, Status: StatusNotFound})
	default:
		resp := errResponse(req.ID, err)
		rb.b = AppendResponse(rb.b[:0], &resp)
	}
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	c.sendBuf(rb)
}

// handleMultiGet serves the MULTIGET opcode: one batched lookup, fanned
// out per shard in parallel by the engine, whose response carries
// found/value slots aligned with the request's keys.
func (c *conn) handleMultiGet(req *Request, start time.Time) {
	vals, err := c.srv.cfg.DB.MultiGet(req.Keys)
	if err != nil {
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	rb := getRespBuf()
	rb.b = binary.LittleEndian.AppendUint32(rb.b, req.ID)
	rb.b = append(rb.b, byte(StatusOK))
	rb.b = AppendMultiGetValues(rb.b, vals)
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	c.sendBuf(rb)
}

// handleScanStream serves SCANSTREAM: the whole scan flows to the
// client as a sequence of SCAN-shaped frames on this request's ID —
// more=1 frames while data remains, a final more=0 frame to end the
// stream. Like REPLSYNC it occupies the read loop, and the bounded out
// channel is the backpressure: a slow client stalls the scan instead of
// buffering it. Limit bounds pairs per frame, not the stream.
func (c *conn) handleScanStream(req *Request, start time.Time) {
	limit := int(req.Limit)
	if limit <= 0 || limit > c.srv.cfg.MaxScanResults {
		limit = c.srv.cfg.MaxScanResults
	}
	byteBudget := c.srv.cfg.MaxFrameBytes / 2
	pairs := make([]KV, 0, 16)
	used := 0
	stopped := false
	emit := func(more bool) {
		// send encodes synchronously, so the pair buffers may be reused
		// as soon as it returns.
		c.send(&Response{ID: req.ID, Status: StatusOK, Pairs: pairs, More: more})
		pairs = pairs[:0]
		used = 0
	}
	err := c.srv.cfg.DB.Scan(req.Lo, req.Hi, func(k, v []byte) bool {
		select {
		case <-c.stop:
			stopped = true
			return false
		default:
		}
		pairs = append(pairs, KV{Key: k, Value: v})
		used += len(k) + len(v) + 16
		if len(pairs) >= limit || used >= byteBudget {
			emit(true)
		}
		return true
	})
	if stopped {
		// Teardown mid-stream: the client learns from the closing
		// connection, not a frame.
		c.srv.metrics.observeOp(req.Op, time.Since(start))
		return
	}
	if err != nil {
		// A StatusError frame on this ID ends the stream.
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	emit(false)
	c.srv.metrics.observeOp(req.Op, time.Since(start))
}

func (c *conn) handleStats(req *Request, start time.Time) {
	body, err := json.Marshal(c.srv.payload())
	resp := Response{ID: req.ID, Status: StatusOK, Value: body}
	if err != nil {
		resp = errResponse(req.ID, err)
	}
	c.finishRead(req, start, &resp)
}

// handleTrace serves the TRACE opcode: a traced point lookup whose JSON
// trace is the response body. Not-found is still StatusOK — the trace
// reports the outcome, and the miss path is the diagnostic payoff.
func (c *conn) handleTrace(req *Request, start time.Time) {
	_, tr, err := c.srv.cfg.DB.GetTraced(req.Key)
	if err != nil && !errors.Is(err, core.ErrNotFound) {
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	body, jerr := json.Marshal(tr)
	resp := Response{ID: req.ID, Status: StatusOK, Value: body}
	if jerr != nil {
		resp = errResponse(req.ID, jerr)
	}
	c.finishRead(req, start, &resp)
}

// getSeqWaitTimeout bounds how long a GETSEQ read waits for its shard's
// watermark; a lagging follower answers with an error the client can
// retry rather than holding the connection indefinitely.
const getSeqWaitTimeout = 30 * time.Second

// handleGetSeq serves the read-your-writes GET: wait until the key's
// shard has applied at least MinSeq (on a follower, until replication
// catches up), then read.
func (c *conn) handleGetSeq(req *Request, start time.Time) {
	if req.MinSeq > 0 {
		db := c.srv.cfg.DB
		if err := db.WaitForSeq(db.ShardOf(req.Key), req.MinSeq, getSeqWaitTimeout); err != nil {
			resp := errResponse(req.ID, err)
			c.finishRead(req, start, &resp)
			return
		}
	}
	c.handleGet(req, start)
}

// handleCheckpoint serves the CHECKPOINT opcode: an online backup into a
// named subdirectory of the server's checkpoint root. It runs inline —
// blocking only this connection — while writes proceed through the
// committers; the response body is the durable marker's JSON.
func (c *conn) handleCheckpoint(req *Request, start time.Time) {
	name := string(req.Key)
	if c.srv.cfg.CheckpointDir == "" {
		resp := Response{ID: req.ID, Status: StatusError, Value: []byte("server: checkpoints not enabled (no -checkpoint-dir)")}
		c.finishRead(req, start, &resp)
		return
	}
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		resp := Response{ID: req.ID, Status: StatusError, Value: []byte("server: checkpoint name must be a plain directory name")}
		c.finishRead(req, start, &resp)
		return
	}
	info, err := c.srv.cfg.DB.Checkpoint(filepath.Join(c.srv.cfg.CheckpointDir, name))
	if err != nil {
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	body, jerr := json.Marshal(info)
	resp := Response{ID: req.ID, Status: StatusOK, Value: body}
	if jerr != nil {
		resp = errResponse(req.ID, jerr)
	}
	c.srv.cfg.Logf("server: checkpoint %q: %d files, %d bytes", name, info.Files, info.Bytes)
	c.finishRead(req, start, &resp)
}

// handleMerkle serves the MERKLE opcode: a Merkle summary of the
// engine's logical content pinned at the request's sequence vector
// (current watermarks when empty). The full scan runs inline, blocking
// only this connection.
func (c *conn) handleMerkle(req *Request, start time.Time) {
	seqs := req.Seqs
	if len(seqs) == 0 {
		seqs = nil
	}
	// An explicit vector may be ahead of this server (a follower still
	// catching up to the primary's pin point): wait for each shard before
	// pinning, so cross-server comparison doesn't race replication.
	for shard, seq := range seqs {
		if err := c.srv.cfg.DB.WaitForSeq(shard, seq, getSeqWaitTimeout); err != nil {
			resp := errResponse(req.ID, err)
			c.finishRead(req, start, &resp)
			return
		}
	}
	tree, err := c.srv.cfg.DB.MerkleAt(int(req.Buckets), seqs)
	if err != nil {
		resp := errResponse(req.ID, err)
		c.finishRead(req, start, &resp)
		return
	}
	body, jerr := json.Marshal(tree)
	resp := Response{ID: req.ID, Status: StatusOK, Value: body}
	if jerr != nil {
		resp = errResponse(req.ID, jerr)
	}
	c.finishRead(req, start, &resp)
}

// handleReplSync turns the connection into a replication stream: frames
// flow as StatusOK responses bearing this request's ID until the
// follower hangs up, the server drains, or the follower's watermarks
// fall off the backlog (an error frame explains, then the stream ends).
// The call occupies the read loop, so the connection is dedicated —
// exactly how the follower uses it.
func (c *conn) handleReplSync(req *Request, start time.Time) {
	if c.srv.cfg.Repl == nil {
		resp := Response{ID: req.ID, Status: StatusError, Value: []byte("server: replication not enabled")}
		c.finishRead(req, start, &resp)
		return
	}
	c.srv.cfg.Logf("server: replication stream from %s at watermarks %v", c.nc.RemoteAddr(), req.Seqs)
	send := func(frame []byte) error {
		select {
		case <-c.stop:
			return errStreamStopped
		default:
		}
		c.send(&Response{ID: req.ID, Status: StatusOK, Value: frame})
		return nil
	}
	err := c.srv.cfg.Repl.Stream(req.Seqs, send, c.stop)
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	if err != nil && !errors.Is(err, errStreamStopped) {
		c.srv.cfg.Logf("server: replication stream from %s ended: %v", c.nc.RemoteAddr(), err)
	}
}

// errStreamStopped marks a replication stream ended by connection
// teardown rather than a protocol condition.
var errStreamStopped = errors.New("server: stream stopped")

// submitWrite routes ops to their shards' group committers and queues
// the ack. Ops that all land on one shard — every point write, and any
// BATCH at one shard — go to that shard's committer as they are, so they
// commit as one WAL record; a BATCH spanning shards is split into
// per-shard sub-batches and the ack waits for all of them. All channels
// apply backpressure by blocking the read loop when full.
func (c *conn) submitWrite(req *Request, start time.Time, ops []core.BatchOp) {
	if c.srv.cfg.ReadOnly {
		resp := Response{ID: req.ID, Status: StatusError, Value: []byte("server: read-only replica (writes go to the primary)")}
		c.finishRead(req, start, &resp)
		return
	}
	if len(ops) == 0 {
		c.finishRead(req, start, &Response{ID: req.ID, Status: StatusOK})
		return
	}
	pw := &pendingWrite{id: req.ID, op: req.Op, start: start}
	submit := func(shard int, ops []core.BatchOp) {
		cr := &commitReq{ops: ops, shard: shard, done: make(chan error, 1)}
		c.srv.committers[shard].submit(cr)
		pw.reqs = append(pw.reqs, cr)
	}
	db := c.srv.cfg.DB
	first := db.ShardOf(ops[0].Key)
	var subs [][]core.BatchOp // nil while every op lands on first
	for i, op := range ops[1:] {
		shard := db.ShardOf(op.Key)
		if subs == nil {
			if shard == first {
				continue
			}
			subs = make([][]core.BatchOp, len(c.srv.committers))
			subs[first] = append(subs[first], ops[:i+1]...)
		}
		subs[shard] = append(subs[shard], op)
	}
	if subs == nil {
		submit(first, ops)
	}
	for i, sub := range subs {
		if len(sub) > 0 {
			submit(i, sub)
		}
	}
	c.acks <- pw
}

// handleSketch serves the SKETCH opcode from the server's per-shard
// write-stream sketches: freq routes to the key's owning shard's
// count-min; card sums the per-shard HyperLogLog estimates, which is
// sound because hash routing makes shard keyspaces disjoint.
func (c *conn) handleSketch(req *Request, start time.Time) {
	var est uint64
	switch req.Sub {
	case SketchFreq:
		est = c.srv.committers[c.srv.cfg.DB.ShardOf(req.Key)].sketches.Freq(req.Key)
	case SketchCard:
		for _, cm := range c.srv.committers {
			est += cm.sketches.Card()
		}
	}
	resp := Response{ID: req.ID, Status: StatusOK, Value: binary.AppendUvarint(nil, est)}
	c.finishRead(req, start, &resp)
}

func (c *conn) ackLoop() {
	for pw := range c.acks {
		var err error
		for _, cr := range pw.reqs {
			if e := <-cr.done; e != nil && err == nil {
				err = e
			}
		}
		resp := Response{ID: pw.id, Status: StatusOK}
		if err != nil {
			resp = errResponse(pw.id, err)
		} else if rmw := pw.reqs[0].ops[0].RMW; rmw != nil {
			// RMW acks own their body (the INCR result), so they carry no
			// seq-ack coordinates; see PROTOCOL.md.
			switch {
			case errors.Is(rmw.Err, core.ErrCASMismatch):
				resp = Response{ID: pw.id, Status: StatusConflict, Value: []byte(rmw.Err.Error())}
			case rmw.Err != nil:
				resp = errResponse(pw.id, rmw.Err)
			case pw.op == OpIncr:
				resp.Value = binary.AppendVarint(nil, rmw.Result)
			}
		} else {
			// Successful write acks carry (shard, seq) coordinates for
			// read-your-writes against replicas; clients that predate them
			// ignore ack bodies.
			acks := make([]ShardSeq, 0, len(pw.reqs))
			for _, cr := range pw.reqs {
				if cr.seq > 0 {
					acks = append(acks, ShardSeq{Shard: cr.shard, Seq: cr.seq})
				}
			}
			if len(acks) > 0 {
				resp.Value = AppendSeqAcks(nil, acks)
			}
		}
		c.srv.metrics.observeOp(pw.op, time.Since(pw.start))
		c.send(&resp)
	}
	close(c.out)
}

func errResponse(id uint32, err error) Response {
	status := StatusError
	if errors.Is(err, core.ErrClosed) {
		status = StatusShutdown
	}
	return Response{ID: id, Status: status, Value: []byte(err.Error())}
}

// send encodes resp into a pooled buffer and queues it; it blocks when
// the client stops reading (bounded buffering, natural backpressure).
// The write loop returns the buffer to the pool after the frame is out.
func (c *conn) send(resp *Response) {
	rb := getRespBuf()
	rb.b = AppendResponse(rb.b, resp)
	c.sendBuf(rb)
}

// sendBuf queues an already-encoded pooled payload. Everything on c.out
// is pool-owned: the write loop is the single point of release.
func (c *conn) sendBuf(rb *respBuf) {
	c.out <- rb
}

func (c *conn) writeLoop(done chan struct{}) {
	defer close(done)
	broken := false
	write := func(rb *respBuf) {
		defer putRespBuf(rb)
		if broken {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if err := WriteFrame(c.bw, rb.b); err != nil {
			// The connection is dead: keep draining out so the other
			// goroutines never block, and close to unblock the reader. The
			// stop signal terminates any replication stream feeding out.
			broken = true
			c.nc.Close()
			c.signalStop()
			return
		}
		c.srv.metrics.BytesOut.Add(int64(len(rb.b) + frameHeaderLen))
	}
	flush := func() {
		if broken {
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if err := c.bw.Flush(); err != nil {
			broken = true
			c.nc.Close()
			c.signalStop()
		}
	}
	for rb := range c.out {
		write(rb)
		// Fold every already-queued response into this flush: pipelined
		// responses share syscalls the same way commits share fsyncs.
	batch:
		for {
			select {
			case rb2, open := <-c.out:
				if !open {
					break batch
				}
				write(rb2)
			default:
				break batch
			}
		}
		flush()
	}
	flush()
}
