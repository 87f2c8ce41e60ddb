// Package client implements a Go client for the lsmkv network protocol.
// One connection carries many concurrent requests (pipelining): calls
// from any number of goroutines are written back-to-back and matched to
// responses by request ID, so throughput is not bounded by round-trip
// latency. Transient failures — connection resets, server drain,
// throttling — are retried with backoff over a fresh connection when
// Options.MaxRetries is set. What may be re-sent follows the opcode's
// class in the server's table: reads and the plain writes (PUT, PUTTTL,
// DELETE, BATCH — last writer wins, tombstones) are idempotent, so
// re-sending one whose response was lost is safe. A read-modify-write
// (INCR, CAS) is not — a second INCR adds twice, a second CAS mismatches
// its own first success — so once its frame may be out it is never
// re-sent: the caller gets the transport error and re-reads. A throttled
// or draining server answered without running the request, so that is
// retried for every class.
//
// This package is the one client of the protocol: nothing else in the
// module dials a server or frames a request (TestOneProtocolClient). A
// stream opcode — SCANSTREAM for Scan, REPLSYNC for a replication
// Follower — is one call on the same path: the read loop hands each
// response frame to the call's consumer, which decodes the body shape it
// asked for, and RequestTimeout bounds the gap between frames.
package client

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/iostat"
	"lsmkv/internal/replica"
	"lsmkv/internal/server"
)

// Errors returned by the client. ErrNotFound and ErrCASMismatch are the
// engine's own sentinels, so one errors.Is test serves both transports.
var (
	// ErrNotFound is the engine's not-found result.
	ErrNotFound = core.ErrNotFound
	// ErrThrottled is returned when the server sheds the request under
	// backpressure and retries are exhausted (or disabled).
	ErrThrottled = errors.New("client: throttled by server")
	// ErrShutdown is returned when the server is draining.
	ErrShutdown = errors.New("client: server shutting down")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("client: closed")
	// ErrTimeout is returned when a response misses RequestTimeout.
	ErrTimeout = errors.New("client: request timed out")
	// ErrCASMismatch is returned when a CompareAndSwap's expected value did
	// not match the current one; nothing was written. Not transient —
	// re-read before retrying.
	ErrCASMismatch = core.ErrCASMismatch
)

// ServerError is a request-level failure reported by the server in a
// well-formed response (StatusError). The connection that carried it is
// healthy.
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return "client: server error: " + e.Msg }

// Op is one batch operation; build with core.PutOp / core.DeleteOp.
type Op = core.BatchOp

// KV is one scan result pair.
type KV = server.KV

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// Options configures a Client. Zero values select defaults.
type Options struct {
	// RequestTimeout bounds each call, and the gap between a stream's
	// frames. Default 30s.
	RequestTimeout time.Duration
	// MaxRetries redials and retries transient failures this many times.
	// Default 0 (no retries).
	MaxRetries int
	// RetryBackoff is the initial backoff, doubled per attempt. Default
	// 20ms.
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 20 * time.Millisecond
	}
	return o
}

// Client is a connection to an lsmserver. Safe for concurrent use;
// concurrent calls pipeline over the single connection.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	w      *wire
	closed bool
}

// Dial connects to addr. A nil opts selects defaults.
func Dial(addr string, opts *Options) (*Client, error) {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	c := newClient(addr, o)
	if _, err := c.wire(); err != nil {
		return nil, err
	}
	return c, nil
}

// newClient builds a client that dials on its first call.
func newClient(addr string, opts Options) *Client {
	return &Client{addr: addr, opts: opts.withDefaults()}
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	w := c.w
	c.w = nil
	c.closed = true
	c.mu.Unlock()
	if w != nil {
		w.fail(ErrClosed)
	}
	return nil
}

// Get returns the value of key, or ErrNotFound.
func (c *Client) Get(key []byte) ([]byte, error) {
	return c.call(&server.Request{Op: server.OpGet, Key: key})
}

// Put stores key -> value.
func (c *Client) Put(key, value []byte) error {
	_, err := c.call(&server.Request{Op: server.OpPut, Key: key, Value: value})
	return err
}

// PutTTL stores key -> value with a time-to-live. The client sends the
// duration (millisecond resolution, minimum 1ms); the server stamps the
// absolute expiry with its own clock, so client/server clock skew never
// shifts the deadline. A zero or negative ttl is sent as 0 — an entry
// already expired when it lands, as the embedded PutTTL stores it.
func (c *Client) PutTTL(key, value []byte, ttl time.Duration) error {
	millis := uint64(max(ttl, 0) / time.Millisecond)
	if millis == 0 && ttl > 0 {
		millis = 1
	}
	_, err := c.call(&server.Request{Op: server.OpPutTTL, Key: key, Value: value, TTLMillis: millis})
	return err
}

// Incr atomically adds delta to the 8-byte little-endian counter at key
// (absent keys start at zero) and returns the new value. The engine
// resolves it inside the key's commit group, so concurrent Incrs never
// lose updates.
func (c *Client) Incr(key []byte, delta int64) (int64, error) {
	body, err := c.call(&server.Request{Op: server.OpIncr, Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	n, w := binary.Varint(body)
	if w <= 0 {
		return 0, fmt.Errorf("client: malformed incr response")
	}
	return n, nil
}

// CompareAndSwap atomically replaces key's value with newValue if the
// current value equals expected; a nil expected asserts the key is
// absent. On mismatch it returns ErrCASMismatch and the server writes
// nothing.
func (c *Client) CompareAndSwap(key, expected, newValue []byte) error {
	req := &server.Request{Op: server.OpCas, Key: key, Value: newValue}
	if expected != nil {
		req.HasExpected = true
		req.Expected = expected
	}
	_, err := c.call(req)
	return err
}

// SketchFreq returns the server's estimate (never an undercount) of how
// many writes key has received since the server started.
func (c *Client) SketchFreq(key []byte) (uint64, error) {
	return c.sketch(&server.Request{Op: server.OpSketch, Sub: server.SketchFreq, Key: key})
}

// SketchCard returns the server's estimate (±~1%) of how many distinct
// keys have been written since the server started.
func (c *Client) SketchCard() (uint64, error) {
	return c.sketch(&server.Request{Op: server.OpSketch, Sub: server.SketchCard})
}

func (c *Client) sketch(req *server.Request) (uint64, error) {
	body, err := c.call(req)
	if err != nil {
		return 0, err
	}
	est, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, fmt.Errorf("client: malformed sketch response")
	}
	return est, nil
}

// Delete removes key.
func (c *Client) Delete(key []byte) error {
	_, err := c.call(&server.Request{Op: server.OpDelete, Key: key})
	return err
}

// Batch applies ops atomically on the server.
func (c *Client) Batch(ops []Op) error {
	_, err := c.call(&server.Request{Op: server.OpBatch, Ops: ops})
	return err
}

// Scan streams every pair in [lo, hi] to fn, until fn returns false or
// the range is exhausted. It rides a single streamed SCANSTREAM request —
// one request frame for the whole range, the server pushing response
// frames as it walks. With retries enabled, a transient mid-stream
// failure resumes just past the last delivered key, so fn sees every
// pair exactly once.
func (c *Client) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	backoff := c.opts.RetryBackoff
	attempt := 0
	for {
		var last []byte
		delivered := false
		err := c.ScanStream(lo, hi, func(k, v []byte) bool {
			delivered = true
			last = append(last[:0], k...)
			return fn(k, v)
		})
		if err == nil {
			return nil
		}
		if delivered {
			// Progress was made: restart the retry budget and resume just
			// past the last delivered key (appending 0x00 yields the
			// smallest key strictly greater under bytewise order) rather
			// than replaying pairs fn has already seen.
			attempt = 0
			backoff = c.opts.RetryBackoff
			lo = append(append(make([]byte, 0, len(last)+1), last...), 0)
		}
		if attempt >= c.opts.MaxRetries || !transient(err) {
			return err
		}
		attempt++
		time.Sleep(backoff)
		backoff *= 2
	}
}

// ScanStream issues one streamed SCANSTREAM request for [lo, hi] and
// delivers every pair to fn as frames arrive, until completion, fn
// returning false (which cancels the stream), or the first error. Unlike
// Scan it never retries: a transport failure mid-stream surfaces
// immediately.
func (c *Client) ScanStream(lo, hi []byte, fn func(key, value []byte) bool) error {
	return c.stream(&server.Request{Op: server.OpScanStream, Lo: lo, Hi: hi}, func(payload []byte) (bool, error) {
		resp, err := decode(payload, true)
		if err != nil {
			return false, err
		}
		for _, pr := range resp.Pairs {
			if !fn(pr.Key, pr.Value) {
				return false, nil
			}
		}
		return resp.More, nil
	})
}

// stream issues req, a stream opcode, and hands each response frame's
// payload to frame, which decodes it and reports whether the stream goes
// on. It ends when frame says done or fails, the wire dies, or no frame
// arrives for RequestTimeout; it never retries. The wire rule is call's:
// a decoded response leaves the connection to the calls pipelined on it,
// anything else — a timeout included, whose stream still occupies the
// server's read loop — drops it, so the next call redials.
func (c *Client) stream(req *server.Request, frame func(payload []byte) (more bool, err error)) error {
	w, err := c.wire()
	if err != nil {
		return err
	}
	// Up to 32 frames of read-ahead: the read loop keeps draining the
	// socket while the consumer works on a frame.
	p := &pendingCall{ch: make(chan []byte, 32), quit: make(chan struct{})}
	if _, err := w.send(req, p); err != nil {
		c.dropWire(w, err)
		return err
	}
	defer func() {
		// Unblock the read loop if it is mid-delivery and forget the
		// call; any frames still in flight are then discarded.
		close(p.quit)
		w.abandon(req.ID)
	}()
	timer := time.NewTimer(c.opts.RequestTimeout)
	defer timer.Stop()
	for {
		var payload []byte
		// Prefer frames already delivered over a concurrent wire failure
		// so a stream that completed just before teardown still finishes.
		select {
		case payload = <-p.ch:
		default:
			select {
			case payload = <-p.ch:
			case <-w.dead:
				err := w.errOr(io.ErrUnexpectedEOF)
				c.detachWire(w)
				return err
			case <-timer.C:
				c.dropWire(w, ErrTimeout)
				return ErrTimeout
			}
		}
		more, err := frame(payload)
		switch {
		case errors.Is(err, ErrShutdown):
			c.detachWire(w)
		case err != nil && !responseError(err):
			c.dropWire(w, err)
		}
		if err != nil || !more {
			return err
		}
		// Each frame restarts the clock: RequestTimeout bounds the gap
		// between frames, not the stream's total duration.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(c.opts.RequestTimeout)
	}
}

// MultiGet looks up keys in one round trip and returns values aligned
// with keys: nil marks an absent key (never an error), an empty
// non-nil slice a present key whose value is empty. Against a sharded
// server the batch fans out across shards in parallel.
func (c *Client) MultiGet(keys [][]byte) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	body, err := c.call(&server.Request{Op: server.OpMultiGet, Keys: keys})
	if err != nil {
		return nil, err
	}
	vals, err := server.DecodeMultiGetValues(body)
	if err != nil {
		return nil, fmt.Errorf("client: decode multiget response: %w", err)
	}
	if len(vals) != len(keys) {
		return nil, fmt.Errorf("client: multiget: %d values for %d keys", len(vals), len(keys))
	}
	return vals, nil
}

// Stats returns the server's /metrics JSON (server counters with
// per-opcode latency quantiles, engine iostat snapshot, and both event
// rings).
func (c *Client) Stats() ([]byte, error) {
	return c.call(&server.Request{Op: server.OpStats})
}

// Trace runs a traced point lookup of key on the server and returns the
// read-path trace. The key being absent is not an error: the trace
// reports the outcome (that miss path is what TRACE exists to explain).
func (c *Client) Trace(key []byte) (*iostat.Trace, error) {
	body, err := c.call(&server.Request{Op: server.OpTrace, Key: key})
	if err != nil {
		return nil, err
	}
	var tr iostat.Trace
	if err := json.Unmarshal(body, &tr); err != nil {
		return nil, fmt.Errorf("client: decode trace: %w", err)
	}
	return &tr, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.call(&server.Request{Op: server.OpPing})
	return err
}

// ShardSeq is a write acknowledgment's read-your-writes coordinate: the
// shard that applied the write and its sequence watermark afterwards.
// Pass it to GetAtSeq on any replica of the same database.
type ShardSeq = server.ShardSeq

// PutSeq stores key -> value and returns the write's (shard, seq)
// coordinate (nil against servers without sequence watermarks).
func (c *Client) PutSeq(key, value []byte) ([]ShardSeq, error) {
	body, err := c.call(&server.Request{Op: server.OpPut, Key: key, Value: value})
	if err != nil {
		return nil, err
	}
	return server.DecodeSeqAcks(body)
}

// BatchSeq applies ops like Batch and returns one coordinate per shard
// the batch touched.
func (c *Client) BatchSeq(ops []Op) ([]ShardSeq, error) {
	body, err := c.call(&server.Request{Op: server.OpBatch, Ops: ops})
	if err != nil {
		return nil, err
	}
	return server.DecodeSeqAcks(body)
}

// GetAtSeq is the read-your-writes read: the server holds the request
// until key's shard has applied at least minSeq — on a follower, until
// replication catches up to the write that produced the coordinate —
// then reads. minSeq 0 degrades to a plain Get.
func (c *Client) GetAtSeq(key []byte, minSeq uint64) ([]byte, error) {
	return c.call(&server.Request{Op: server.OpGetSeq, Key: key, MinSeq: minSeq})
}

// Checkpoint takes an online backup into the named subdirectory of the
// server's checkpoint root and returns the durable marker's JSON
// (files, bytes, per-shard seqs).
func (c *Client) Checkpoint(name string) ([]byte, error) {
	return c.call(&server.Request{Op: server.OpCheckpoint, Key: []byte(name)})
}

// Merkle asks the server for a Merkle summary of its logical content,
// pinned at seqs (nil = the server's current watermarks) with the given
// bucket count (0 = server default). Equal roots at equal vectors on a
// primary and follower mean zero divergence.
func (c *Client) Merkle(buckets int, seqs []uint64) (*replica.Tree, error) {
	if buckets < 0 {
		buckets = 0
	}
	body, err := c.call(&server.Request{Op: server.OpMerkle, Buckets: uint64(buckets), Seqs: seqs})
	if err != nil {
		return nil, err
	}
	var t replica.Tree
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, fmt.Errorf("client: decode merkle tree: %w", err)
	}
	return &t, nil
}

// call runs one request with the retry policy and returns the StatusOK
// response's body.
func (c *Client) call(req *server.Request) ([]byte, error) {
	backoff := c.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		w, err := c.wire()
		if err == nil {
			var body []byte
			var sent bool
			if body, sent, err = c.roundTrip(w, req); err == nil {
				return body, nil
			}
			switch {
			case !responseError(err):
				// Transport-level failure: the connection may be poisoned;
				// retries redial.
				c.dropWire(w, err)
				if sent && req.Op.Class() == server.ClassRMW {
					// The server may have applied it, and a second copy
					// would apply it again. Only the caller can find out.
					return nil, err
				}
			case errors.Is(err, ErrShutdown):
				// A decoded response proves the connection is healthy:
				// leave it — and every other call pipelined on it — alone.
				// But a draining server will close the wire itself, so
				// detach it now and let the retry redial instead of
				// re-entering the drain.
				c.detachWire(w)
			}
		}
		if attempt >= c.opts.MaxRetries || !transient(err) {
			return nil, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// roundTrip issues req on w and waits for its response's body. sent
// reports whether any byte of the request frame may have left this
// process.
func (c *Client) roundTrip(w *wire, req *server.Request) (body []byte, sent bool, err error) {
	p := callPool.Get().(*pendingCall)
	if sent, err = w.send(req, p); err != nil {
		return nil, sent, err
	}
	p.timer.Reset(c.opts.RequestTimeout)
	select {
	case payload, ok := <-p.ch:
		stopped := p.timer.Stop()
		if !ok {
			return nil, true, w.errOr(io.ErrUnexpectedEOF)
		}
		if stopped {
			// The read loop took p out of the wire's pending set before
			// its one send, and the timer never fired: nothing can reach
			// p's channels any more.
			callPool.Put(p)
		}
		resp, err := decode(payload, false)
		return resp.Value, true, err
	case <-p.timer.C:
		// The read loop may already hold p and be about to deliver the
		// late response into p.ch: p never returns to the pool.
		w.abandon(req.ID)
		return nil, true, ErrTimeout
	}
}

// decode parses a response payload, its body as a scan frame when scan is
// set, and maps a status other than OK to its error.
func decode(payload []byte, scan bool) (server.Response, error) {
	resp, err := server.DecodeResponse(payload, scan)
	if err != nil {
		return resp, err
	}
	return resp, statusError(resp)
}

// statusError is the one mapping from a response's status to the error
// a call returns (PROTOCOL.md "Client error mapping").
func statusError(resp server.Response) error {
	switch resp.Status {
	case server.StatusOK:
		return nil
	case server.StatusNotFound:
		return ErrNotFound
	case server.StatusThrottled:
		return ErrThrottled
	case server.StatusShutdown:
		return ErrShutdown
	case server.StatusConflict:
		return ErrCASMismatch
	default:
		return &ServerError{Msg: string(resp.Value)}
	}
}

// responseError reports whether err was decoded from a successfully
// received response frame. Such errors are definitive answers about one
// request, carried by a healthy connection; tearing the wire down for
// them would fail every other call pipelined on it.
func responseError(err error) bool {
	var se *ServerError
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrThrottled) ||
		errors.Is(err, ErrShutdown) || errors.Is(err, ErrCASMismatch) ||
		errors.As(err, &se)
}

// transient reports whether err is worth a redial-and-retry. ErrNotFound
// and server-side request errors are definitive; connection failures,
// timeouts, throttling, and drain are not.
func transient(err error) bool {
	if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrClosed) {
		return false
	}
	if errors.Is(err, ErrThrottled) || errors.Is(err, ErrShutdown) || errors.Is(err, ErrTimeout) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// wire returns the live connection, dialing if needed.
func (c *Client) wire() (*wire, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.w != nil {
		select {
		case <-c.w.dead:
			c.w = nil
		default:
			return c.w, nil
		}
	}
	w, err := dialWire(c.addr)
	if err != nil {
		return nil, err
	}
	c.w = w
	return w, nil
}

// detachWire unlinks w so future calls dial afresh, while leaving its
// read loop running to serve responses still in flight.
func (c *Client) detachWire(w *wire) {
	c.mu.Lock()
	if c.w == w {
		c.w = nil
	}
	c.mu.Unlock()
}

// dropWire discards w (if still current) after a transport failure.
func (c *Client) dropWire(w *wire, err error) {
	c.detachWire(w)
	w.fail(err)
}

// ---------------------------------------------------------------------------
// wire: one live connection with a demultiplexing read loop.
// ---------------------------------------------------------------------------

// pendingCall receives the response payloads of one request; the caller
// decodes them. A plain call resolves on its one response. A stream call
// is the one with quit: it stays pending, its frames delivered in order,
// until its consumer closes quit and abandons it.
type pendingCall struct {
	ch    chan []byte
	quit  chan struct{}
	timer *time.Timer // a plain call's RequestTimeout, stopped while pooled
}

// callPool recycles plain calls: a call goes back only after its one
// response was received from ch and its timer was stopped before it
// fired, so a reused call starts with an empty channel and an idle timer.
// A call that timed out, or whose channel fail closed, is left to the GC,
// and so is one whose timer fired as its response arrived: with
// asynchronous timer channels (the default below go 1.23 in go.mod) the
// expiry may still be on its way to timer.C after Stop has returned, so
// no drain can be sure to catch it.
var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &pendingCall{ch: make(chan []byte, 1), timer: t}
}}

// encMaxRetain caps the encode buffer a wire keeps between requests; a
// larger request (a big BATCH) is framed in a buffer the GC takes back.
const encMaxRetain = 64 << 10

type wire struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	wmu sync.Mutex // serializes frame writes
	enc []byte     // under wmu: the request being framed

	pmu     sync.Mutex
	pending map[uint32]*pendingCall
	err     error

	nextID atomic.Uint32
	dead   chan struct{}
	once   sync.Once
}

func dialWire(addr string) (*wire, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	w := &wire{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 64<<10),
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint32]*pendingCall),
		dead:    make(chan struct{}),
	}
	go w.readLoop()
	return w, nil
}

// send registers p as req's pending call and writes the request frame.
// sent is false only when the wire was already dead and nothing was
// written; after a write error part of the frame may be out.
func (w *wire) send(req *server.Request, p *pendingCall) (sent bool, err error) {
	req.ID = w.nextID.Add(1)
	if req.ID == server.ConnErrID {
		// Skip the reserved connection-level-error ID on wraparound.
		req.ID = w.nextID.Add(1)
	}
	w.pmu.Lock()
	if w.err != nil {
		err := w.err
		w.pmu.Unlock()
		return false, err
	}
	w.pending[req.ID] = p
	w.pmu.Unlock()

	w.wmu.Lock()
	w.enc = server.AppendRequest(w.enc[:0], req)
	err = server.WriteFrame(w.bw, w.enc)
	if err == nil {
		err = w.bw.Flush()
	}
	if cap(w.enc) > encMaxRetain {
		w.enc = nil
	}
	w.wmu.Unlock()
	if err != nil {
		w.fail(err)
	}
	return true, err
}

// abandon forgets a timed-out call so its late response is discarded.
func (w *wire) abandon(id uint32) {
	w.pmu.Lock()
	delete(w.pending, id)
	w.pmu.Unlock()
}

// fail poisons the wire: the connection closes and every pending call's
// channel is closed (callers read the error via errOr).
func (w *wire) fail(err error) {
	w.once.Do(func() {
		w.pmu.Lock()
		w.err = err
		calls := w.pending
		w.pending = make(map[uint32]*pendingCall)
		w.pmu.Unlock()
		close(w.dead)
		w.nc.Close()
		for _, p := range calls {
			if p.quit != nil {
				// Stream consumers watch w.dead; the read loop may still
				// be blocked sending on ch, so it must not be closed.
				continue
			}
			close(p.ch)
		}
	})
}

func (w *wire) errOr(fallback error) error {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	if w.err != nil {
		return w.err
	}
	return fallback
}

func (w *wire) readLoop() {
	for {
		payload, err := server.ReadFrame(w.br, server.MaxFrameBytes)
		if err != nil {
			w.fail(err)
			return
		}
		id := binary.LittleEndian.Uint32(payload)
		if id == server.ConnErrID {
			// Reserved ID: the server reports that framing was lost on
			// this connection and is about to hang up. Surface its
			// message rather than a bare EOF.
			err := io.ErrUnexpectedEOF
			if resp, derr := server.DecodeResponse(payload, false); derr == nil {
				err = fmt.Errorf("client: connection error from server: %s", resp.Value)
			}
			w.fail(err)
			return
		}
		w.pmu.Lock()
		p := w.pending[id]
		if p != nil && p.quit == nil {
			// Taken out under the lock that fail swaps the map under, so
			// fail never closes the channel this loop is about to send on.
			delete(w.pending, id)
		}
		w.pmu.Unlock()
		switch {
		case p == nil:
			// abandoned (timed out, or a stream its consumer left)
		case p.quit == nil:
			p.ch <- payload // buffered: never blocks for a single-shot call
		default:
			select {
			case p.ch <- payload:
			case <-p.quit:
				// Consumer left (timeout, early stop); its abandon makes
				// the rest of the stream land in the case above.
			}
		}
	}
}
