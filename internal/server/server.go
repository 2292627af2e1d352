package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/tracing"
)

// Server defaults.
const (
	// DefaultMaxPayload bounds one scan request's payload.
	DefaultMaxPayload = 1 << 20
	// DefaultReadTimeout is the per-frame read deadline: a connection
	// idle longer than this is closed.
	DefaultReadTimeout = 2 * time.Minute
	// DefaultWriteTimeout is the per-flush write deadline.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultRequestTimeout bounds a request from arrival to verdict.
	DefaultRequestTimeout = 10 * time.Second
	// connOutDepth buffers per-connection responses between the workers
	// and the connection's writer goroutine, and bounds the requests a
	// connection has in flight.
	connOutDepth = 64
	// maxKeptReadBuf caps the request buffer a connection keeps for
	// reuse; a larger frame's buffer is left to the collector.
	maxKeptReadBuf = 64 << 10
)

// Config configures a Server.
type Config struct {
	// Detector performs the scans; required.
	Detector *core.Detector
	// Workers, QueueDepth, and CacheSize configure the shared pool (see
	// PoolConfig).
	Workers    int
	QueueDepth int
	CacheSize  int
	// MaxPayload bounds one request's payload bytes; <= 0 selects
	// DefaultMaxPayload. Oversized requests get ErrPayloadTooLarge.
	MaxPayload int
	// ReadTimeout closes connections idle longer than this between
	// frames; 0 selects DefaultReadTimeout, negative disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush; 0 selects
	// DefaultWriteTimeout, negative disables.
	WriteTimeout time.Duration
	// RequestTimeout is the per-request deadline from frame arrival to
	// verdict; 0 selects DefaultRequestTimeout, negative disables.
	RequestTimeout time.Duration
	// Metrics receives pool and server instruments; nil creates a
	// private registry.
	Metrics *telemetry.Registry
	// Recorder, when set, enables per-scan tracing (see
	// PoolConfig.Recorder). Clients that send MsgScanTraced get their
	// trace id adopted and the stage timings echoed back.
	Recorder *tracing.Recorder
	// OnVerdict, when set, receives every served verdict (see
	// PoolConfig.OnVerdict).
	OnVerdict func(core.Verdict)
	// Content, when set, enables the content scan path
	// (MsgScanContent / MsgScanContentTraced) through this pipeline; see
	// PoolConfig.Content. Without it those requests are answered with
	// CodeBadRequest and clients downgrade to plain scans.
	Content *content.Pipeline
	// Events, when set, journals one wide event per submission outcome;
	// see PoolConfig.Events.
	Events *events.Journal
	// InstrumentDetector, when true, also wires the detector's observer
	// hook into the registry (detector_* metrics). Leave false when the
	// detector is shared and already instrumented elsewhere.
	InstrumentDetector bool
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Server is a running scan daemon: one shared worker pool, any number
// of client connections, each with a reader and a writer goroutine so
// a slow peer never stalls scanning for the others.
type Server struct {
	cfg  Config
	pool *Pool
	reg  *telemetry.Registry

	connsActive *telemetry.Gauge
	connsTotal  *telemetry.Counter
	badFrames   *telemetry.Counter

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	// draining is set by Close before it wakes the readers; readers
	// check it without the mutex after every deadline arm.
	draining atomic.Bool

	connWG sync.WaitGroup
}

// New validates the configuration and starts the worker pool. The
// server accepts no connections until Serve.
func New(cfg Config) (*Server, error) {
	if cfg.Detector == nil {
		return nil, errors.New("server: nil detector")
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	pool, err := NewPool(PoolConfig{
		Detector:   cfg.Detector,
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		CacheSize:  cfg.CacheSize,
		Metrics:    reg,
		Recorder:   cfg.Recorder,
		OnVerdict:  cfg.OnVerdict,
		Content:    cfg.Content,
		Events:     cfg.Events,
	})
	if err != nil {
		return nil, err
	}
	if cfg.InstrumentDetector {
		InstrumentDetector(cfg.Detector, reg)
	}
	return &Server{
		cfg:         cfg,
		pool:        pool,
		reg:         reg,
		connsActive: reg.Gauge("connections_active", "open client connections"),
		connsTotal:  reg.Counter("connections_total", "client connections accepted"),
		badFrames:   reg.Counter("bad_requests_total", "malformed or unknown request frames"),
		conns:       make(map[net.Conn]struct{}),
	}, nil
}

// Metrics returns the server's registry — mount it with
// telemetry.DebugMux for the /metrics and /debug/pprof endpoints.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Pool returns the shared worker pool, so other ingress paths (the
// proxy) can route scans through the same scheduler and cache.
func (s *Server) Pool() *Pool { return s.pool }

// Serve accepts connections on ln until Close. It takes ownership of
// the listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrShuttingDown
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil // deliberate shutdown
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.connsTotal.Inc()
		s.connsActive.Inc()
		go func() {
			defer s.connWG.Done()
			defer s.connsActive.Dec()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, drains in-flight requests, closes the
// connections, and shuts the pool down. Requests already accepted get
// their responses; requests arriving during the drain are refused with
// ErrShuttingDown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	ln := s.ln
	// Unblock every reader stuck in a frame read: readers notice the
	// shutdown when the deadline fires and exit through their drain
	// path, which flushes pending responses before closing.
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.connWG.Wait()
	s.pool.Close()
	return err
}

// handleConn runs one connection: this goroutine reads frames and
// submits jobs; a writer goroutine serializes the responses workers
// produce. Workers hand completed verdicts to the writer through out;
// dead tears the writer down after it drains whatever is already
// queued. A request the pool answers inside Submit (a cache hit) is
// written here, on the reader, straight to the shared buffered writer —
// no hand-off to another goroutine.
//
// Every frame read holds a slot of w.slots until its response leaves
// out (or, written here, until it is written), so out never holds more
// frames than it has room for and a worker handing over a response
// never waits on a slow peer. With every slot taken the reader stops
// reading, and the peer's unread requests back up in TCP.
func (s *Server) handleConn(conn net.Conn) {
	out := make(chan []byte, connOutDepth)
	dead := make(chan struct{})
	writerDone := make(chan struct{})
	w := &connOut{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		timeout: s.cfg.WriteTimeout,
		slots:   make(chan struct{}, connOutDepth),
	}
	var reqWG sync.WaitGroup

	go func() {
		defer close(writerDone)
		w.run(out, dead)
	}()

	// respond hands one encoded frame to the writer unless the
	// connection died or the writer already exited on a write error —
	// without the writerDone arm a worker could block forever on a
	// full queue whose consumer is gone.
	respond := func(frame []byte) {
		select {
		case out <- frame:
		case <-dead:
		case <-writerDone:
		}
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	maxBody := uint32(headerLen + s.cfg.MaxPayload + maxFrameSlop)
	// buf is the request buffer frames are read into. It is reused
	// until a request that was queued takes it along; only then does
	// the next frame get a fresh one.
	var buf []byte
reading:
	for {
		if s.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
			// Close wakes readers by setting their deadline to now; an
			// arm that landed after that wakeup must not outlast it.
			if s.draining.Load() {
				_ = conn.SetReadDeadline(time.Now())
			}
		}
		if cap(buf) > maxKeptReadBuf {
			buf = nil
		}
		typ, id, payload, err := readFrameInto(br, maxBody, &buf)
		if err != nil && !errors.Is(err, errFrameTooLarge) {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !s.draining.Load() {
				s.cfg.Logf("server: %s: idle timeout", conn.RemoteAddr())
			}
			break
		}
		select {
		case w.slots <- struct{}{}:
		case <-writerDone:
			break reading
		}
		if err != nil {
			// The oversized body was consumed; answer with the typed
			// error and keep the connection.
			respond(appendError(nil, id, CodeTooLarge,
				fmt.Sprintf("payload exceeds maximum %d", s.cfg.MaxPayload)))
			continue
		}
		if typ != MsgScan && typ != MsgScanTraced && typ != MsgScanContent && typ != MsgScanContentTraced {
			s.badFrames.Inc()
			respond(appendError(nil, id, CodeBadRequest, fmt.Sprintf("unknown request type 0x%02x", typ)))
			continue
		}
		isContent := typ == MsgScanContent || typ == MsgScanContentTraced
		if isContent && s.cfg.Content == nil {
			s.badFrames.Inc()
			respond(appendError(nil, id, CodeBadRequest, ErrContentDisabled.Error()))
			continue
		}
		var tr *tracing.Trace
		if typ == MsgScanTraced || typ == MsgScanContentTraced {
			if len(payload) < traceIDLen {
				s.badFrames.Inc()
				respond(appendError(nil, id, CodeBadRequest, "traced scan shorter than trace id"))
				continue
			}
			var tid tracing.TraceID
			copy(tid[:], payload[:traceIDLen])
			payload = payload[traceIDLen:]
			// Adopt the client's id (a zero id gets a fresh one) so the
			// flight-recorder entry and the client's view share identity.
			tr = tracing.New(tid, len(payload))
		}
		if len(payload) > s.cfg.MaxPayload {
			respond(appendError(nil, id, CodeTooLarge,
				fmt.Sprintf("payload %d exceeds maximum %d", len(payload), s.cfg.MaxPayload)))
			continue
		}
		if s.draining.Load() {
			respond(appendError(nil, id, CodeShuttingDown, ErrShuttingDown.Error()))
			continue
		}
		var deadline time.Time
		if s.cfg.RequestTimeout > 0 {
			deadline = time.Now().Add(s.cfg.RequestTimeout)
		}
		reqWG.Add(1)
		// rs decides who writes the response: whichever of done and the
		// code after Submit moves it off reqPending first. done wins only
		// when it ran before Submit returned — on this goroutine for a
		// cache hit, or on a worker that beat the reader — and then
		// leaves the outcome for the reader to write directly.
		rs := &reqState{id: id, content: isContent, tr: tr}
		done := func(v core.Verdict, cached bool, scanErr error) {
			rs.v, rs.cached, rs.err = v, cached, scanErr
			if rs.state.CompareAndSwap(reqPending, reqInline) {
				return
			}
			respond(rs.appendResponse(nil))
			reqWG.Done()
		}
		switch {
		case isContent && tr != nil:
			err = s.pool.SubmitContentTraced(payload, deadline, tr, done)
		case isContent:
			err = s.pool.SubmitContent(payload, deadline, done)
		case tr != nil:
			err = s.pool.SubmitTraced(payload, deadline, tr, done)
		default:
			err = s.pool.Submit(payload, deadline, done)
		}
		if err != nil {
			reqWG.Done()
			respond(appendError(nil, id, codeFor(err), err.Error()))
			continue
		}
		if rs.state.CompareAndSwap(reqPending, reqQueued) {
			// A worker owns payload now and will hand the response to
			// the writer.
			buf = nil
			continue
		}
		// done has run, so nothing holds payload any more: buf is
		// reused for the next frame.
		reqWG.Done()
		ok := w.send(rs)
		<-w.slots
		if !ok {
			break // the peer is gone or stalled past the write timeout
		}
	}

	// Drain: wait for this connection's in-flight scans so their
	// responses reach out, let the writer flush them, then tear down.
	reqWG.Wait()
	close(dead)
	<-writerDone
	conn.Close()
}

// Request states in reqState: pending until either Submit returns with
// the job queued (reqQueued) or done runs first (reqInline).
const (
	reqPending int32 = iota
	reqQueued
	reqInline
)

// reqState is one request's response hand-off on a connection.
type reqState struct {
	id      uint64
	content bool
	tr      *tracing.Trace
	state   atomic.Int32
	// The outcome done recorded. The reader reads it only after its
	// compare-and-swap found reqInline.
	v      core.Verdict
	cached bool
	err    error
}

// appendResponse appends the response frame for the recorded outcome.
// The pool finished the trace before invoking done, so the stage
// durations read here are final.
func (r *reqState) appendResponse(dst []byte) []byte {
	switch {
	case r.err != nil:
		return appendError(dst, r.id, codeFor(r.err), r.err.Error())
	case r.content && r.tr != nil:
		return appendVerdictContentTraced(dst, r.id, r.v, r.cached, r.tr)
	case r.content:
		return appendVerdictContent(dst, r.id, r.v, r.cached)
	case r.tr != nil:
		return appendVerdictTraced(dst, r.id, r.v, r.cached, r.tr)
	default:
		return appendVerdict(dst, r.id, r.v, r.cached)
	}
}

// connOut is a connection's buffered write side. The writer goroutine
// and the reader (for responses produced inline) share it; mu
// serializes their writes and flushes. slots holds one token per
// request in flight on the connection (see handleConn); the writer
// returns a frame's token as it takes the frame off the queue.
type connOut struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
	slots   chan struct{}
}

// write buffers one frame under the write deadline. The caller holds
// mu.
func (w *connOut) write(frame []byte) bool {
	if w.timeout > 0 {
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	_, err := w.bw.Write(frame)
	return err == nil
}

// send encodes r's response straight into the buffered writer's free
// space and flushes it — the reader's direct path.
func (w *connOut) send(r *reqState) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.write(r.appendResponse(w.bw.AvailableBuffer())) && w.bw.Flush() == nil
}

// run is the writer goroutine. It batches whatever responses are
// pending into one buffered flush. On dead it drains the queue,
// flushes, and exits; a write error ends it at once.
func (w *connOut) run(out <-chan []byte, dead <-chan struct{}) {
	for {
		select {
		case frame := <-out:
			<-w.slots
			if !w.batch(frame, out) {
				return
			}
		case <-dead:
			w.mu.Lock()
			defer w.mu.Unlock()
			for {
				select {
				case f := <-out:
					<-w.slots
					if !w.write(f) {
						return
					}
				default:
					_ = w.bw.Flush()
					return
				}
			}
		}
	}
}

// batch writes frame plus everything already queued behind it, then
// flushes, all under one hold of mu.
func (w *connOut) batch(frame []byte, out <-chan []byte) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.write(frame) {
		return false
	}
	for {
		select {
		case f := <-out:
			<-w.slots
			if !w.write(f) {
				return false
			}
		default:
			return w.bw.Flush() == nil
		}
	}
}
