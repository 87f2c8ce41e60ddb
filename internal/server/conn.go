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
	"lsmkv/internal/kv"
	"lsmkv/internal/shard"
)

// conn is one client connection. Three goroutines cooperate to give
// pipelining without unbounded buffering:
//
//   - readLoop decodes frames; reads (GET/SCANSTREAM/STATS/PING) execute
//     inline, writes are submitted to the engine's commit queues — in
//     the order they arrived — and a pending-ack token is queued on acks.
//   - ackLoop waits for each write in submission order, leading its
//     shard's commit group when no one else does, and emits its
//     response.
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

	// out carries encoded responses in pooled buffers; the write loop is
	// the single point that returns them to the pool.
	out  chan *respBuf
	acks chan *pendingWrite

	// stop closes when the connection is going away — on drain or when the
	// write side breaks. Replication streams (which occupy the read loop
	// and never see the read deadline) select on it to terminate.
	stop     chan struct{}
	stopOnce sync.Once

	// req is the request the read loop is dispatching: a field, not a
	// local whose address the handlers would move to the heap. No
	// handler keeps it once dispatch returns.
	req Request

	dmu      sync.Mutex // guards read-deadline arming vs drain
	draining bool
	readDL   lazyDeadline // under dmu
	writeDL  lazyDeadline // the write loop's own
}

// lazyDeadline is one of a connection's deadlines, a fixed timeout after
// it was last armed. Re-arming costs a runtime timer update, so a
// deadline set less than timeout/16 ago is left in force: whenever it is
// checked, at least 15/16 of the timeout is still ahead.
type lazyDeadline struct {
	timeout time.Duration
	armed   time.Time // when the deadline in force was set; zero for none
}

// rearm reports whether the deadline must be set again at now — it was
// never set, or set more than timeout/16 ago, whether or not it has
// passed since — and if so records now as its arming time and returns
// the deadline to set.
func (d *lazyDeadline) rearm(now time.Time) (time.Time, bool) {
	if !d.armed.IsZero() && now.Sub(d.armed) <= d.timeout/16 {
		return time.Time{}, false
	}
	d.armed = now
	return now.Add(d.timeout), true
}

// pendingWrite tracks one submitted write awaiting its commit — for a
// BATCH spanning shards, every involved shard's part. The ack goes out
// only after all of them complete; the first error wins.
type pendingWrite struct {
	id    uint32
	op    Opcode
	start time.Time
	ops   []core.BatchOp
	w     shard.Write
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:     s,
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		bw:      bufio.NewWriterSize(nc, 64<<10),
		out:     make(chan *respBuf, 256),
		acks:    make(chan *pendingWrite, 1024),
		stop:    make(chan struct{}),
		readDL:  lazyDeadline{timeout: idleTimeout},
		writeDL: lazyDeadline{timeout: writeTimeout},
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

// armReadDeadline keeps the idle deadline in force (see lazyDeadline)
// unless the connection is draining, in which case the now-deadline must
// stay in force.
func (c *conn) armReadDeadline() bool {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if c.draining {
		return false
	}
	if at, ok := c.readDL.rearm(time.Now()); ok {
		c.nc.SetReadDeadline(at)
	}
	return true
}

func (c *conn) readLoop() {
	for {
		if !c.armReadDeadline() {
			return
		}
		payload, err := ReadFrame(c.br, MaxFrameBytes)
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
		if c.req, err = DecodeRequest(payload); err != nil {
			// Frame boundary intact, body malformed: answer and carry on.
			c.srv.metrics.DecodeErrors.Add(1)
			c.send(&Response{ID: c.req.ID, Status: StatusError, Value: []byte(err.Error())})
		} else {
			c.dispatch(&c.req)
		}
		c.req = Request{} // a connection waiting for its next frame pins no payload
	}
}

// The handler shapes; an opTable row names exactly one.
type (
	// opsFunc turns a write or rmw request into the ops submitWrite
	// hands the engine.
	opsFunc func(req *Request) []core.BatchOp
	// serveFunc answers a read or admin request: it appends the StatusOK
	// body to dst, or returns the error reply turns into a status.
	serveFunc func(c *conn, req *Request, dst []byte) ([]byte, error)
	// streamFunc answers a stream request, one emit per frame, until it
	// is done or emit fails; an error it returns ends the stream.
	streamFunc func(c *conn, req *Request, emit func(*Response) error) error
)

func (c *conn) dispatch(req *Request) {
	m := c.srv.metrics
	m.Inflight.Add(1)
	start := time.Now()

	row := req.Op.row()
	if c.srv.bucket != nil && !row.unthrottled {
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

	switch row.class {
	case ClassWrite, ClassRMW:
		c.submitWrite(req, start, row.ops)
	case ClassStream:
		c.stream(req, start, row.stream)
	default: // ClassRead, ClassAdmin: DecodeRequest admits no other
		c.reply(req, start, row.serve)
	}
}

// reply is the one site that answers an inline-served request. The
// handler appends its body straight after the response header in the
// pooled buffer — a GET's value lands there from the engine with no
// intermediate slice — and an error replaces the frame with its status.
func (c *conn) reply(req *Request, start time.Time, serve serveFunc) {
	rb := getRespBuf()
	rb.b = binary.LittleEndian.AppendUint32(rb.b, req.ID)
	rb.b = append(rb.b, byte(StatusOK))
	b, err := serve(c, req, rb.b)
	if err != nil {
		resp := errResponse(req.ID, err)
		b = AppendResponse(rb.b[:0], &resp)
	}
	rb.b = b
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	c.out <- rb
}

// serveEmpty answers with an empty StatusOK body (PING, an empty BATCH).
func serveEmpty(c *conn, req *Request, dst []byte) ([]byte, error) { return dst, nil }

func serveGet(c *conn, req *Request, dst []byte) ([]byte, error) {
	return c.srv.cfg.DB.GetAppend(req.Key, dst)
}

// serveMultiGet serves the MULTIGET opcode: the request's keys as one
// engine batch per shard they route to (one pinned view and one walk of
// each run per batch, the shards' batches in parallel), whose response
// carries found/value slots aligned with the request's keys. The values
// alias the batches' arenas only until they are copied into dst.
func serveMultiGet(c *conn, req *Request, dst []byte) ([]byte, error) {
	vals, err := c.srv.cfg.DB.MultiGet(req.Keys)
	if err != nil {
		return nil, err
	}
	return AppendMultiGetValues(dst, vals), nil
}

// appendJSON is the body of the opcodes that answer with a document
// (STATS, TRACE, CHECKPOINT, MERKLE).
func appendJSON(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	return append(dst, body...), err
}

func serveStats(c *conn, req *Request, dst []byte) ([]byte, error) {
	return appendJSON(dst, c.srv.payload())
}

// serveTrace serves the TRACE opcode: a traced point lookup whose JSON
// trace is the response body. Not-found is still StatusOK — the trace
// reports the outcome, and the miss path is the diagnostic payoff.
func serveTrace(c *conn, req *Request, dst []byte) ([]byte, error) {
	_, tr, err := c.srv.cfg.DB.GetTraced(req.Key)
	if err != nil && !errors.Is(err, core.ErrNotFound) {
		return nil, err
	}
	return appendJSON(dst, tr)
}

// getSeqWaitTimeout bounds how long a GETSEQ read waits for its shard's
// watermark; a lagging follower answers with an error the client can
// retry rather than holding the connection indefinitely.
const getSeqWaitTimeout = 30 * time.Second

// serveGetSeq serves the read-your-writes GET: wait until the key's
// shard has applied at least MinSeq (on a follower, until replication
// catches up), then read.
func serveGetSeq(c *conn, req *Request, dst []byte) ([]byte, error) {
	if db := c.srv.cfg.DB; req.MinSeq > 0 {
		if err := db.WaitForSeq(db.ShardOf(req.Key), req.MinSeq, getSeqWaitTimeout); err != nil {
			return nil, err
		}
	}
	return serveGet(c, req, dst)
}

// serveCheckpoint serves the CHECKPOINT opcode: an online backup into a
// named subdirectory of the server's checkpoint root. It runs inline —
// blocking only this connection — while other connections' writes go on
// committing; the response body is the durable marker's JSON. A
// read-only follower serves it too: backing up from a replica is the
// point, and the backup writes nothing to the store.
func serveCheckpoint(c *conn, req *Request, dst []byte) ([]byte, error) {
	name := string(req.Key)
	if c.srv.cfg.CheckpointDir == "" {
		return nil, errors.New("server: checkpoints not enabled (no -checkpoint-dir)")
	}
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		return nil, errors.New("server: checkpoint name must be a plain directory name")
	}
	info, err := c.srv.cfg.DB.Checkpoint(filepath.Join(c.srv.cfg.CheckpointDir, name))
	if err != nil {
		return nil, err
	}
	c.srv.cfg.Logf("server: checkpoint %q: %d files, %d bytes", name, info.Files, info.Bytes)
	return appendJSON(dst, info)
}

// serveMerkle serves the MERKLE opcode: a Merkle summary of the engine's
// logical content pinned at the request's sequence vector (current
// watermarks when empty). The full scan runs inline, blocking only this
// connection.
func serveMerkle(c *conn, req *Request, dst []byte) ([]byte, error) {
	seqs := req.Seqs
	if len(seqs) == 0 {
		seqs = nil
	}
	// An explicit vector may be ahead of this server (a follower still
	// catching up to the primary's pin point): wait for each shard before
	// pinning, so cross-server comparison doesn't race replication.
	for shard, seq := range seqs {
		if err := c.srv.cfg.DB.WaitForSeq(shard, seq, getSeqWaitTimeout); err != nil {
			return nil, err
		}
	}
	tree, err := c.srv.cfg.DB.MerkleAt(int(req.Buckets), seqs)
	if err != nil {
		return nil, err
	}
	return appendJSON(dst, tree)
}

// serveSketch serves the SKETCH opcode from the server's per-shard
// write-stream sketches: freq routes to the key's owning shard's
// count-min; card sums the per-shard HyperLogLog estimates, which is
// sound because hash routing makes shard keyspaces disjoint.
func serveSketch(c *conn, req *Request, dst []byte) ([]byte, error) {
	var est uint64
	if req.Sub == SketchFreq {
		est = c.srv.sketches[c.srv.cfg.DB.ShardOf(req.Key)].Freq(req.Key)
	} else {
		for _, sk := range c.srv.sketches {
			est += sk.Card()
		}
	}
	return binary.AppendUvarint(dst, est), nil
}

// errStreamStopped marks a stream ended by connection teardown rather
// than a protocol condition.
var errStreamStopped = errors.New("server: stream stopped")

// stopped reports whether the connection is being torn down.
func (c *conn) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// stream runs a streaming opcode. The handler occupies the read loop,
// so the connection is in effect dedicated, and pushes frames on the
// request's ID through emit until it is done or c.stop closes. The
// bounded out channel behind emit is the backpressure: a slow client
// stalls the stream instead of buffering it.
func (c *conn) stream(req *Request, start time.Time, run streamFunc) {
	err := run(c, req, func(resp *Response) error {
		if c.stopped() {
			return errStreamStopped
		}
		resp.ID, resp.Status = req.ID, StatusOK
		c.send(resp)
		return nil
	})
	c.srv.metrics.observeOp(req.Op, time.Since(start))
	// After a teardown mid-stream the client learns from the closing
	// connection, not a frame; any other error frame ends the stream.
	if err != nil && !errors.Is(err, errStreamStopped) {
		resp := errResponse(req.ID, err)
		c.send(&resp)
	}
}

// streamScan serves SCANSTREAM: the whole scan flows to the client as a
// sequence of scan frames — more=1 while data remains, a final more=0
// frame to end the stream. Limit bounds pairs per frame, not the stream.
func streamScan(c *conn, req *Request, emit func(*Response) error) error {
	limit := int(req.Limit)
	if limit <= 0 || limit > c.srv.cfg.MaxScanResults {
		limit = c.srv.cfg.MaxScanResults
	}
	pairs := make([]KV, 0, 16)
	used := 0
	var emitErr error
	flush := func(more bool) {
		// emit encodes synchronously, so the pair buffers may be reused
		// as soon as it returns.
		emitErr = emit(&Response{Pairs: pairs, More: more})
		pairs, used = pairs[:0], 0
	}
	err := c.srv.cfg.DB.Scan(req.Lo, req.Hi, func(k, v []byte) bool {
		// Checked per pair, not only per frame: a frame can be
		// MaxScanResults pairs of scanning away.
		if c.stopped() {
			emitErr = errStreamStopped
			return false
		}
		pairs = append(pairs, KV{Key: k, Value: v})
		used += len(k) + len(v) + 16
		if len(pairs) >= limit || used >= MaxFrameBytes/2 {
			flush(true)
		}
		return emitErr == nil
	})
	if err == nil && emitErr == nil {
		flush(false)
	}
	return errors.Join(err, emitErr)
}

// streamRepl turns the connection into a replication stream: frames
// flow as StatusOK responses bearing this request's ID until the
// follower hangs up, the server drains, or the follower's watermarks
// fall off the backlog.
func streamRepl(c *conn, req *Request, emit func(*Response) error) error {
	if c.srv.cfg.Repl == nil {
		return errors.New("server: replication not enabled")
	}
	c.srv.cfg.Logf("server: replication stream from %s at watermarks %v", c.nc.RemoteAddr(), req.Seqs)
	err := c.srv.cfg.Repl.Stream(req.Seqs, func(frame []byte) error {
		return emit(&Response{Value: frame})
	}, c.stop)
	// Stream has already shipped a replication error frame saying why, so
	// the error is logged and not answered a second time.
	if err != nil && !errors.Is(err, errStreamStopped) {
		c.srv.cfg.Logf("server: replication stream from %s ended: %v", c.nc.RemoteAddr(), err)
	}
	return nil
}

// The write and rmw rows: a request as the engine ops it commits.
func putOps(req *Request) []core.BatchOp    { return []core.BatchOp{core.PutOp(req.Key, req.Value)} }
func deleteOps(req *Request) []core.BatchOp { return []core.BatchOp{core.DeleteOp(req.Key)} }
func batchOps(req *Request) []core.BatchOp  { return req.Ops }
func incrOps(req *Request) []core.BatchOp   { return []core.BatchOp{core.IncrOp(req.Key, req.Delta)} }

// putTTLOps stamps the absolute expiry server-side, so clients never
// need a synchronized clock — only a duration. decodeField has capped
// TTLMillis, so the product cannot overflow, and the sum saturates.
func putTTLOps(req *Request) []core.BatchOp {
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	exp := kv.ExpiryAfter(time.Now().UnixNano(), ttl.Nanoseconds())
	return []core.BatchOp{core.PutTTLOp(req.Key, req.Value, exp)}
}

// casOps relies on Expected being non-nil exactly when the request has
// one (see decodeField); nil asserts the key absent.
func casOps(req *Request) []core.BatchOp {
	return []core.BatchOp{core.CASOp(req.Key, req.Expected, req.Value)}
}

var errReadOnly = errors.New("server: read-only replica (writes go to the primary)")

// submitWrite submits a write's ops to the engine and queues the ack; a
// follower refuses here, so by class. Submitting from the read loop keeps
// the connection's writes in the order they arrived: the engine commits
// each shard's share in Submit order (shard.DB.Submit). A full commit
// queue or a full acks channel blocks the read loop: backpressure.
func (c *conn) submitWrite(req *Request, start time.Time, opsOf opsFunc) {
	if c.srv.cfg.Follower != nil {
		c.reply(req, start, func(*conn, *Request, []byte) ([]byte, error) { return nil, errReadOnly })
		return
	}
	ops := opsOf(req)
	if len(ops) == 0 {
		c.reply(req, start, serveEmpty)
		return
	}
	c.acks <- &pendingWrite{id: req.ID, op: req.Op, start: start, ops: ops,
		w: c.srv.cfg.DB.Submit(ops, c.srv.cfg.SyncWrites)}
}

func (c *conn) ackLoop() {
	for pw := range c.acks {
		err := pw.w.Wait()
		if err == nil {
			c.srv.observeWrite(pw.ops)
		}
		resp := Response{ID: pw.id, Status: StatusOK}
		if err != nil {
			resp = errResponse(pw.id, err)
		} else if rmw := pw.ops[0].RMW; rmw != nil {
			// RMW acks own their body (the INCR result), so they carry no
			// seq-ack coordinates; see PROTOCOL.md.
			if rmw.Err != nil {
				resp = errResponse(pw.id, rmw.Err)
			} else if rmw.Incr {
				resp.Value = binary.AppendVarint(nil, rmw.Result)
			}
		} else {
			// Successful write acks carry (shard, seq) coordinates for
			// read-your-writes against replicas; clients that predate them
			// ignore ack bodies.
			parts := pw.w.Parts()
			acks := make([]ShardSeq, 0, len(parts))
			for _, p := range parts {
				if p.Seq > 0 {
					acks = append(acks, ShardSeq{Shard: p.Shard, Seq: p.Seq})
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

// errResponse is the one mapping from an error to a response status.
func errResponse(id uint32, err error) Response {
	status := StatusError
	switch {
	case errors.Is(err, core.ErrNotFound):
		return Response{ID: id, Status: StatusNotFound}
	case errors.Is(err, core.ErrCASMismatch):
		status = StatusConflict
	case errors.Is(err, core.ErrClosed):
		status = StatusShutdown
	}
	return Response{ID: id, Status: status, Value: []byte(err.Error())}
}

// send encodes resp into a pooled buffer and queues it; it blocks when
// the client stops reading (bounded buffering, natural backpressure).
func (c *conn) send(resp *Response) {
	rb := getRespBuf()
	rb.b = AppendResponse(rb.b, resp)
	c.out <- rb
}

// writeLoop writes out's responses in batches, each one flush. The write
// deadline is checked at the start of every batch, before its first
// frame: a batch ends at a frame that would not fit in bw, so bufio never
// writes to the socket on its own under a deadline that went stale while
// the connection sat idle, and every socket write runs with at least
// 15/16 of writeTimeout ahead of it.
func (c *conn) writeLoop(done chan struct{}) {
	defer close(done)
	broken := false
	fail := func() {
		// The connection is dead: keep draining out so the other
		// goroutines never block, and close to unblock the reader. The
		// stop signal terminates any replication stream feeding out.
		broken = true
		c.nc.Close()
		c.signalStop()
	}
	flush := func() {
		if !broken && c.bw.Flush() != nil {
			fail()
		}
	}
	write := func(rb *respBuf) {
		defer putRespBuf(rb)
		if broken {
			return
		}
		if c.bw.Buffered() > 0 && len(rb.b)+frameHeaderLen > c.bw.Available() {
			flush()
			if broken {
				return
			}
		}
		if c.bw.Buffered() == 0 {
			if at, ok := c.writeDL.rearm(time.Now()); ok {
				c.nc.SetWriteDeadline(at)
			}
		}
		if err := WriteFrame(c.bw, rb.b); err != nil {
			fail()
			return
		}
		c.srv.metrics.BytesOut.Add(int64(len(rb.b) + frameHeaderLen))
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
}
