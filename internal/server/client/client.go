// Package client is the Go client for the melserved scan daemon: one
// TCP connection, any number of concurrent callers. Requests are
// pipelined — each Scan gets a fresh request id, writes its frame, and
// waits for the matching response, so goroutines sharing a client keep
// the connection full without head-of-line blocking on scan order.
//
// No background goroutine runs. A waiting caller reads the connection
// itself: one caller at a time holds the reader role and reads frames
// until its own response arrives, handing other callers' responses to
// them on the way, and when it leaves the role passes to the next
// waiter. With one request in flight the caller reads its own response,
// with no goroutine hand-off between the socket and the caller.
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/telemetry/tracing"
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("client: closed")

// Result is one scan verdict as served over the wire. Params are
// derived server-side and not transmitted; MEL, threshold, and the
// verdict bit carry everything a gateway decision needs.
type Result struct {
	// Malicious is true when MEL exceeded the server's threshold.
	Malicious bool
	// MEL is the measured maximum executable length.
	MEL int
	// BestStart is the offset where the longest path begins.
	BestStart int
	// Threshold is the server's derived τ for this payload size.
	Threshold float64
	// TextOnly reports pure keyboard-enterable text.
	TextOnly bool
	// Cached reports that the verdict came from the server's
	// content-hash cache rather than fresh pseudo-execution.
	Cached bool
	// TriageCleared (content scans only) reports that the server's
	// triage stage cleared the payload without a MEL pass.
	TriageCleared bool
	// TriageScore (content scans only) is the triage suspicion score in
	// [0,1]; scores at or above 0.5 never clear.
	TriageScore float64
	// ViewIndex (content scans only) is the decoded view the verdict
	// came from: 0 is the raw payload, higher values count the views the
	// decode front end produced.
	ViewIndex int
	// DecodeChain (content scans only) names the encoding layers peeled
	// to reach the flagged view, outermost first ("gzip>base64"); empty
	// for a raw-payload verdict.
	DecodeChain string
	// Trace carries the latency attribution for this request when the
	// client was built WithTracing and the server echoed timings; nil
	// otherwise.
	Trace *Trace
}

// Trace attributes one traced request's client-observed latency to
// network versus server queue versus compute.
type Trace struct {
	// ID is the trace id, shared with the server's flight recorder —
	// chase it at the daemon's /debug/traces endpoint.
	ID tracing.TraceID
	// Elapsed is the client-observed round trip, from frame send to
	// response receipt.
	Elapsed time.Duration
	// Server is the server-side total (queue wait included), as echoed
	// in the response.
	Server time.Duration
	// Network is Elapsed minus Server: wire transit, framing, and
	// scheduling on both sides. Clamped at zero (clocks on the two ends
	// never mix; both durations are monotonic on their own host).
	Network time.Duration
	// Stages holds the server's per-stage durations, indexed by
	// tracing.Stage; -1 marks stages the server did not record.
	Stages [tracing.NumStages]time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithTimeout sets the default per-request timeout (default 30s;
// 0 or negative disables). ScanContext overrides it per call.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithMaxFrame overrides the largest response frame body the client
// will accept (default 64 KiB; the server's verdicts and error messages
// are well under a kilobyte). The client keeps a read buffer that holds
// one frame of this size.
func WithMaxFrame(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.maxFrame = uint32(n)
		}
	}
}

// WithTracing makes every scan carry a trace id and request the
// server's stage timings; results then populate Result.Trace. Against
// a pre-tracing server the first scan downgrades the connection
// (one transparent retry, then untraced from there on), so the option
// is safe to enable unconditionally.
func WithTracing() Option {
	return func(c *Client) { c.tracing.Store(true) }
}

// WithContent routes every scan through the server's content pipeline
// (triage → decode → MEL); results then carry the content fields
// (TriageCleared, ViewIndex, DecodeChain). Against a server without
// the pipeline — pre-content, or running with it disabled — the first
// scan downgrades the connection to plain scans with one transparent
// retry, so the option is safe to enable unconditionally.
func WithContent() Option {
	return func(c *Client) { c.content.Store(true) }
}

// Client is a concurrent-safe connection to a scan daemon.
type Client struct {
	conn     net.Conn
	bw       *bufio.Writer
	br       *bufio.Reader // read only by the holder of the reader role
	timeout  time.Duration
	maxFrame uint32
	tracing  atomic.Bool
	content  atomic.Bool

	wmu sync.Mutex // serializes frame writes and flushes

	// readTok holds a token while a caller has the reader role.
	readTok chan struct{}
	// wakeMu guards the read deadline through which a context's end
	// wakes the role holder out of a blocked read.
	wakeMu sync.Mutex
	// wakeGen counts reader-role holds; a wake armed for an earlier
	// hold does nothing.
	wakeGen uint64
	// woken reports that a wake set the read deadline to now and no
	// holder has cleared it since.
	woken bool

	mu      sync.Mutex
	pending map[uint64]chan response
	nextID  uint64
	closed  bool
	brokenE error // set when the connection fails; fails later calls fast
}

// response is one raw reply frame.
type response struct {
	typ     byte
	payload []byte
}

// Frame geometry: a response frame is a 4-byte length, then a body of
// type, request id and payload.
const (
	lenPrefix       = 4
	frameHeader     = 1 + 8
	defaultMaxFrame = 64 << 10
)

// Dial connects to a scan daemon.
func Dial(addr string, opts ...Option) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return NewClient(conn, opts...), nil
}

// NewClient wraps an established connection (ownership transfers).
func NewClient(conn net.Conn, opts ...Option) *Client {
	c := &Client{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 64<<10),
		timeout:  30 * time.Second,
		maxFrame: defaultMaxFrame,
		readTok:  make(chan struct{}, 1),
		pending:  make(map[uint64]chan response),
	}
	for _, opt := range opts {
		opt(c)
	}
	c.br = bufio.NewReaderSize(conn, lenPrefix+int(c.maxFrame))
	return c
}

// Scan submits one payload and blocks for its verdict, bounded by the
// client's default timeout. Typed daemon errors (server.ErrOverloaded,
// server.ErrPayloadTooLarge, ...) come back errors.Is-matchable.
func (c *Client) Scan(payload []byte) (Result, error) {
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	return c.ScanContext(ctx, payload)
}

// ScanContext submits one payload and blocks for its verdict or the
// context's end.
func (c *Client) ScanContext(ctx context.Context, payload []byte) (Result, error) {
	traced := c.tracing.Load()
	viaContent := c.content.Load()
	res, err := c.scan(ctx, payload, traced, viaContent)
	if err != nil && viaContent && errors.Is(err, server.ErrBadRequest) {
		// A server without the content pipeline rejects MsgScanContent
		// (unknown type on pre-content builds, CodeBadRequest when the
		// pipeline is disabled). Downgrade the connection to plain scans
		// and retry this request.
		c.content.Store(false)
		viaContent = false
		res, err = c.scan(ctx, payload, traced, false)
	}
	if err != nil && traced && errors.Is(err, server.ErrBadRequest) {
		// A pre-tracing server rejects MsgScanTraced as an unknown type.
		// Downgrade the connection and retry this request untraced.
		c.tracing.Store(false)
		return c.scan(ctx, payload, false, viaContent)
	}
	return res, err
}

// scan runs one request in any of the four mode combinations.
func (c *Client) scan(ctx context.Context, payload []byte, traced, viaContent bool) (Result, error) {
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.closed || c.brokenE != nil {
		err := c.brokenE
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return Result{}, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	if d, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(d)
	} else {
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	// The frame is built in the write buffer's free space; one larger
	// than that space is written straight through.
	var tid *tracing.TraceID
	if traced {
		t := tracing.NewID()
		tid = &t
	}
	frame := server.AppendRequest(c.bw.AvailableBuffer(), id, viaContent, tid, payload)
	start := time.Now()
	_, werr := c.bw.Write(frame)
	if werr == nil {
		werr = c.bw.Flush()
	}
	c.wmu.Unlock()
	if werr != nil {
		c.unregister(id)
		return Result{}, fmt.Errorf("client: send: %w", werr)
	}

	resp, err := c.await(ctx, ch)
	if err != nil {
		c.unregister(id)
		return Result{}, err
	}
	return decodeResponse(resp, time.Since(start))
}

// unregister drops id's pending entry, so a late response is dropped.
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// await waits for the response on ch, until ctx ends or the connection
// fails. A caller that finds the reader role free takes it and reads
// the connection itself until its response arrives.
func (c *Client) await(ctx context.Context, ch chan response) (response, error) {
	select {
	case resp, ok := <-ch:
		return c.received(resp, ok)
	case <-ctx.Done():
		return response{}, ctx.Err()
	case c.readTok <- struct{}{}:
	}
	defer func() { <-c.readTok }() // the next waiter takes the role
	stop := c.armWake(ctx)
	defer stop()
	for {
		select {
		case resp, ok := <-ch:
			return c.received(resp, ok)
		default:
		}
		typ, id, payload, err := c.readFrame()
		switch {
		case err == nil:
			c.deliver(id, response{typ: typ, payload: payload})
		case ctx.Err() != nil && errors.Is(err, os.ErrDeadlineExceeded):
			// ctx's wake cut the read short. No partial frame was
			// consumed, so the next holder reads on from a frame
			// boundary.
			return response{}, ctx.Err()
		default:
			c.fail(err) // closes ch
		}
	}
}

// received turns what a pending call's channel yielded into the
// response or, for a closed channel, the connection's error.
func (c *Client) received(resp response, ok bool) (response, error) {
	if ok {
		return resp, nil
	}
	c.mu.Lock()
	err := c.brokenE
	c.mu.Unlock()
	if err == nil {
		err = ErrClosed
	}
	return response{}, err
}

// armWake makes ctx's end wake the reader-role holder out of a blocked
// read by setting the read deadline to now. A wake left set by an
// earlier holder is cleared first. A wake that fires after this hold
// ended finds the generation moved on and does nothing, so it cannot
// cut a later holder's read short. The returned stop disarms the wake.
func (c *Client) armWake(ctx context.Context) (stop func() bool) {
	c.wakeMu.Lock()
	c.wakeGen++
	gen := c.wakeGen
	if c.woken {
		c.woken = false
		_ = c.conn.SetReadDeadline(time.Time{})
	}
	c.wakeMu.Unlock()
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	return context.AfterFunc(ctx, func() {
		c.wakeMu.Lock()
		defer c.wakeMu.Unlock()
		if c.wakeGen == gen {
			c.woken = true
			_ = c.conn.SetReadDeadline(time.Now())
		}
	})
}

// readFrame parses the next response frame out of the read buffer. It
// peeks until the whole frame is buffered and only then discards it,
// so a read cut short consumes nothing.
func (c *Client) readFrame() (typ byte, id uint64, payload []byte, err error) {
	b, err := c.br.Peek(lenPrefix)
	if err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(b)
	if n < frameHeader || n > c.maxFrame {
		return 0, 0, nil, fmt.Errorf("client: response frame body of %d bytes, want %d to %d", n, frameHeader, c.maxFrame)
	}
	if b, err = c.br.Peek(lenPrefix + int(n)); err != nil {
		return 0, 0, nil, err
	}
	typ = b[lenPrefix]
	id = binary.BigEndian.Uint64(b[lenPrefix+1:])
	payload = append([]byte(nil), b[lenPrefix+frameHeader:]...)
	_, _ = c.br.Discard(lenPrefix + int(n))
	return typ, id, payload, nil
}

// deliver hands a response to the call waiting for id; a frame for an
// id nobody waits for (answered already, or abandoned) is dropped.
func (c *Client) deliver(id uint64, resp response) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		ch <- resp
	}
}

// fail ends the connection for every pending call: their channels
// close, and they and every later call fail with the connection's
// error — ErrClosed after Close.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.brokenE == nil {
		if c.closed {
			c.brokenE = ErrClosed
		} else {
			c.brokenE = fmt.Errorf("client: connection lost: %w", err)
		}
	}
	pending := c.pending
	c.pending = make(map[uint64]chan response)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch) // receivers translate a closed channel via brokenE
	}
}

// decodeResponse turns a raw reply into a Result or typed error.
// elapsed is the client-observed round trip, used to attribute traced
// responses.
func decodeResponse(resp response, elapsed time.Duration) (Result, error) {
	if resp.typ == server.MsgError {
		code, msg, err := server.DecodeError(resp.payload)
		if err != nil {
			return Result{}, err
		}
		return Result{}, server.ErrorForCode(code, msg)
	}
	v, cached, wt, err := server.DecodeVerdictOf(resp.typ, resp.payload)
	if err != nil {
		return Result{}, err
	}
	res := fromVerdict(v, cached)
	if !v.TraceID.IsZero() {
		// Only a traced verdict carries an id: the server adopts the
		// request's, or opens a fresh one for a zero id.
		res.Trace = traceFor(wt, elapsed)
	}
	return res, nil
}

// traceFor attributes a traced response's client-observed latency.
func traceFor(wt server.WireTrace, elapsed time.Duration) *Trace {
	network := elapsed - wt.Total
	if network < 0 {
		network = 0
	}
	return &Trace{
		ID:      wt.ID,
		Elapsed: elapsed,
		Server:  wt.Total,
		Network: network,
		Stages:  wt.Stages,
	}
}

// fromVerdict converts the wire verdict into the client result type.
// The content fields are zero on plain verdicts.
func fromVerdict(v core.Verdict, cached bool) Result {
	return Result{
		Malicious:     v.Malicious,
		MEL:           v.MEL,
		BestStart:     v.BestStart,
		Threshold:     v.Threshold,
		TextOnly:      v.TextOnly,
		Cached:        cached,
		TriageCleared: v.TriageCleared,
		TriageScore:   v.TriageScore,
		ViewIndex:     v.ViewIndex,
		DecodeChain:   v.DecodeChain,
	}
}

// Close tears the connection down and fails outstanding requests with
// ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.fail(ErrClosed)
	return err
}
