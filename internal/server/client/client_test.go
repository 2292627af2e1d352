package client

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// request is one frame a fake server received.
type request struct {
	typ     byte
	id      uint64
	payload []byte
}

// fakeServer accepts one connection and hands every request frame to
// the test through reqs; the test answers by writing frames to conn.
type fakeServer struct {
	conn chan net.Conn
	reqs chan request
}

func startFake(t *testing.T) (*fakeServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{conn: make(chan net.Conn, 1), reqs: make(chan request, 64)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(f.reqs)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		f.conn <- c
		for {
			typ, id, payload, err := server.ReadFrame(c, 1<<20)
			if err != nil {
				return
			}
			f.reqs <- request{typ, id, payload}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case c := <-f.conn:
			c.Close()
		default:
		}
		wg.Wait()
	})
	return f, ln.Addr().String()
}

// accepted returns the server side of the client's connection.
func (f *fakeServer) accepted(t *testing.T) net.Conn {
	t.Helper()
	c := <-f.conn
	f.conn <- c // keep it for cleanup
	return c
}

// next returns the next request the client sent.
func (f *fakeServer) next(t *testing.T) request {
	t.Helper()
	select {
	case r, ok := <-f.reqs:
		if !ok {
			t.Fatal("fake server: connection ended")
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("fake server: no request")
	}
	return request{}
}

// frame wraps a response body (type, id, fields) in its length prefix.
func frame(typ byte, id uint64, fields ...byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(1+8+len(fields)))
	b = append(b, typ)
	b = binary.BigEndian.AppendUint64(b, id)
	return append(b, fields...)
}

// verdictFrame is a MsgVerdict with the given MEL and τ 40.
func verdictFrame(id uint64, mel int, cached bool) []byte {
	var flags byte
	if cached {
		flags |= 1 << 2
	}
	f := []byte{flags}
	f = binary.BigEndian.AppendUint32(f, uint32(mel))
	f = binary.BigEndian.AppendUint32(f, 0)
	f = binary.BigEndian.AppendUint64(f, math.Float64bits(40))
	return frame(server.MsgVerdict, id, f...)
}

// errorFrame is a MsgError carrying code.
func errorFrame(id uint64, code byte) []byte {
	return frame(server.MsgError, id, append([]byte{code}, "refused"...)...)
}

func write(t *testing.T, c net.Conn, frames ...[]byte) {
	t.Helper()
	for _, f := range frames {
		if _, err := c.Write(f); err != nil {
			t.Fatal(err)
		}
	}
}

func pendingLen(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// TestPipelinedScansResolveOnce: concurrent Scans share one connection
// and the server answers them in reverse order, as an inline cache hit
// overtaking earlier misses would. Each call resolves exactly once with
// its own verdict; a duplicate and an unknown id are dropped without
// reaching any caller.
func TestPipelinedScansResolveOnce(t *testing.T) {
	f, addr := startFake(t)
	c, err := Dial(addr, WithTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := f.accepted(t)

	const n = 16
	type outcome struct {
		want int
		res  Result
		err  error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			p := make([]byte, 100+i) // the fake's verdict MEL is len(payload)
			res, err := c.Scan(p)
			results <- outcome{len(p), res, err}
		}(i)
	}
	reqs := make([]request, n)
	ids := map[uint64]bool{}
	for i := range reqs {
		reqs[i] = f.next(t)
		if reqs[i].typ != server.MsgScan || ids[reqs[i].id] {
			t.Fatalf("request %d: type 0x%02x id %d (seen %v)", i, reqs[i].typ, reqs[i].id, ids)
		}
		ids[reqs[i].id] = true
	}
	for i := n - 1; i >= 0; i-- {
		write(t, conn, verdictFrame(reqs[i].id, len(reqs[i].payload), i%2 == 0))
	}
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.MEL != o.want {
			t.Fatalf("call with %d-byte payload got MEL %d: another request's verdict", o.want, o.res.MEL)
		}
	}
	if p := pendingLen(c); p != 0 {
		t.Fatalf("%d ids still pending after every call resolved", p)
	}

	// Stale frames: a repeat of an answered id and an id never issued.
	write(t, conn, verdictFrame(reqs[0].id, 1, false), verdictFrame(1<<40, 2, false))
	done := make(chan Result, 1)
	go func() {
		res, err := c.Scan(make([]byte, 77))
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	r := f.next(t)
	write(t, conn, verdictFrame(r.id, len(r.payload), false))
	if res := <-done; res.MEL != 77 {
		t.Fatalf("scan after stale frames got MEL %d, want 77", res.MEL)
	}
	select {
	case o := <-results:
		t.Fatalf("a stale frame resolved a call twice: %+v", o)
	default:
	}
}

// TestContextTimeoutUnregisters: a call whose context ends before its
// response unregisters its id, so the late response is dropped and the
// next call gets its own verdict.
func TestContextTimeoutUnregisters(t *testing.T) {
	f, addr := startFake(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := f.accepted(t)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.ScanContext(ctx, []byte("never answered")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out scan err = %v, want context.DeadlineExceeded", err)
	}
	if p := pendingLen(c); p != 0 {
		t.Fatalf("%d ids still pending after the timeout", p)
	}
	late := f.next(t)
	write(t, conn, verdictFrame(late.id, 999, false))

	done := make(chan Result, 1)
	go func() {
		res, err := c.Scan([]byte("answered"))
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	r := f.next(t)
	if r.id == late.id {
		t.Fatal("request id reused")
	}
	write(t, conn, verdictFrame(r.id, 8, false))
	if res := <-done; res.MEL != 8 {
		t.Fatalf("next scan got MEL %d, want its own 8", res.MEL)
	}
}

// TestCloseFailsInFlight: Close fails a call still waiting for its
// response with ErrClosed, and later calls too.
func TestCloseFailsInFlight(t *testing.T) {
	f, addr := startFake(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Scan([]byte("in flight"))
		errc <- err
	}()
	f.next(t) // the request is on the wire and registered
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("in-flight scan err = %v, want ErrClosed", err)
	}
	if _, err := c.Scan([]byte("after close")); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan after Close err = %v, want ErrClosed", err)
	}
}

// TestDowngradeOnBadRequest: against a server that refuses content and
// traced frames with CodeBadRequest, a client built WithContent and
// WithTracing retries the same call as a traced plain scan, then as a
// plain scan, and stays downgraded. Other errors do not downgrade.
func TestDowngradeOnBadRequest(t *testing.T) {
	f, addr := startFake(t)
	c, err := Dial(addr, WithContent(), WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := f.accepted(t)

	// An overloaded content server: the error is returned as is.
	errc := make(chan error, 1)
	go func() {
		_, err := c.Scan([]byte("busy"))
		errc <- err
	}()
	r := f.next(t)
	if r.typ != server.MsgScanContentTraced {
		t.Fatalf("first frame type 0x%02x, want content traced", r.typ)
	}
	write(t, conn, errorFrame(r.id, server.CodeOverloaded))
	if err := <-errc; !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("overloaded scan err = %v, want ErrOverloaded", err)
	}
	if !c.content.Load() || !c.tracing.Load() {
		t.Fatal("an overload downgraded the connection")
	}

	type res struct {
		r   Result
		err error
	}
	resc := make(chan res, 1)
	scan := func() {
		go func() {
			r, err := c.Scan([]byte("downgrade me"))
			resc <- res{r, err}
		}()
	}
	scan()
	var types []byte
	for {
		r := f.next(t)
		types = append(types, r.typ)
		if r.typ != server.MsgScan {
			write(t, conn, errorFrame(r.id, server.CodeBadRequest))
			continue
		}
		write(t, conn, verdictFrame(r.id, 5, false))
		break
	}
	if got := <-resc; got.err != nil || got.r.MEL != 5 || got.r.Trace != nil {
		t.Fatalf("downgraded scan = (%+v, %v)", got.r, got.err)
	}
	want := []byte{server.MsgScanContentTraced, server.MsgScanTraced, server.MsgScan}
	if string(types) != string(want) {
		t.Fatalf("frame types % x, want % x", types, want)
	}
	if c.content.Load() || c.tracing.Load() {
		t.Fatal("connection not left downgraded")
	}

	scan()
	r = f.next(t)
	if r.typ != server.MsgScan {
		t.Fatalf("after downgrade frame type 0x%02x, want plain", r.typ)
	}
	write(t, conn, verdictFrame(r.id, 6, false))
	if got := <-resc; got.err != nil || got.r.MEL != 6 {
		t.Fatalf("steady-state scan = (%+v, %v)", got.r, got.err)
	}
}

// TestReverseBurstResolvesOnce: the server answers concurrent calls in
// reverse order in one write, so whichever caller holds the reader role
// reads every response and hands the others theirs. Each call resolves
// exactly once with its own verdict.
func TestReverseBurstResolvesOnce(t *testing.T) {
	f, addr := startFake(t)
	c, err := Dial(addr, WithTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := f.accepted(t)

	const n = 12
	type outcome struct {
		want int
		res  Result
		err  error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			p := make([]byte, 200+i)
			res, err := c.Scan(p)
			results <- outcome{len(p), res, err}
		}(i)
	}
	var burst []byte
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = f.next(t)
	}
	for i := n - 1; i >= 0; i-- {
		burst = append(burst, verdictFrame(reqs[i].id, len(reqs[i].payload), false)...)
	}
	write(t, conn, burst)
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil || o.res.MEL != o.want {
			t.Fatalf("call with %d-byte payload = (MEL %d, %v)", o.want, o.res.MEL, o.err)
		}
	}
	if p := pendingLen(c); p != 0 {
		t.Fatalf("%d ids still pending after every call resolved", p)
	}
	if len(c.readTok) != 0 {
		t.Fatal("reader role still held after every call resolved")
	}
}

// notifyConn reports the size of every read that returned data.
type notifyConn struct {
	net.Conn
	reads chan int
}

func (c *notifyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		select {
		case c.reads <- n:
		default:
		}
	}
	return n, err
}

// TestCancelledReaderLeavesFrameIntact: the caller holding the reader
// role has read half of another call's response frame when its context
// ends. It leaves without consuming the partial frame, the role passes
// to the waiting call, and that call gets its whole frame.
func TestCancelledReaderLeavesFrameIntact(t *testing.T) {
	f, addr := startFake(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc := &notifyConn{Conn: raw, reads: make(chan int, 16)}
	c := NewClient(nc, WithTimeout(20*time.Second))
	defer c.Close()
	conn := f.accepted(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	holderErr := make(chan error, 1)
	go func() {
		_, err := c.ScanContext(ctx, []byte("abandoned"))
		holderErr <- err
	}()
	abandoned := f.next(t)
	for deadline := time.Now().Add(10 * time.Second); len(c.readTok) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first caller never took the reader role")
		}
	}

	waiter := make(chan Result, 1)
	go func() {
		res, err := c.Scan(make([]byte, 42))
		if err != nil {
			t.Error(err)
		}
		waiter <- res
	}()
	r := f.next(t)
	fr := verdictFrame(r.id, len(r.payload), false)
	write(t, conn, fr[:len(fr)/2])
	<-nc.reads // the holder has the half frame in its buffer
	cancel()
	if err := <-holderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled holder err = %v, want context.Canceled", err)
	}
	write(t, conn, fr[len(fr)/2:])
	if res := <-waiter; res.MEL != 42 {
		t.Fatalf("waiting call got MEL %d, want its own 42", res.MEL)
	}

	// The abandoned call's late response is dropped; the stream stays
	// in step for the next call.
	write(t, conn, verdictFrame(abandoned.id, 999, false))
	go func() {
		res, err := c.Scan(make([]byte, 7))
		if err != nil {
			t.Error(err)
		}
		waiter <- res
	}()
	r = f.next(t)
	write(t, conn, verdictFrame(r.id, len(r.payload), false))
	if res := <-waiter; res.MEL != 7 {
		t.Fatalf("next call got MEL %d, want its own 7", res.MEL)
	}
}

// TestCloseLeavesNoGoroutine: Dial starts no goroutine, and after Close
// fails a set of blocked calls the goroutine count returns to its value
// before Dial.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	before := runtime.NumGoroutine()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Dial left %d goroutines running", n-before)
	}

	const callers = 8
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Scan([]byte("blocked"))
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if _, _, _, err := server.ReadFrame(srv, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked call err = %v, want ErrClosed", err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Dial, %d after Close", before, runtime.NumGoroutine())
		}
	}
}
