package server_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
)

// stallListener hands out its first accepted connection wrapped so that
// every server-side write blocks until release closes: a peer that
// stopped reading, without depending on socket buffer sizes.
type stallListener struct {
	net.Listener
	once    sync.Once
	stalled chan struct{} // closed on the first blocked write
	release chan struct{}
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wrapped := net.Conn(nil)
	l.once.Do(func() { wrapped = &stallConn{Conn: c, l: l} })
	if wrapped != nil {
		return wrapped, nil
	}
	return c, nil
}

type stallConn struct {
	net.Conn
	l       *stallListener
	blocked sync.Once
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.blocked.Do(func() { close(c.l.stalled) })
	<-c.l.release
	return c.Conn.Write(p)
}

// TestInlineHitsInterleaveWithMisses: cache hits (answered on the
// connection's reader) and misses (answered through a worker and the
// writer goroutine) pipelined on one connection each get exactly their
// own verdict, while another connection whose peer has stopped reading
// has more misses in flight than its response queue holds. No worker
// waits on the stalled peer — its reader stops reading instead — so the
// healthy connection's scans complete; once the peer reads again, every
// one of its requests resolves.
func TestInlineHitsInterleaveWithMisses(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Detector: det, Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &stallListener{Listener: inner, stalled: make(chan struct{}), release: make(chan struct{})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	released := false
	defer func() {
		if !released {
			close(ln.release)
		}
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := inner.Addr().String()

	// The stalled peer connects first, so it is the connection the
	// listener wraps. It speaks the raw protocol so the order of its
	// requests on the wire is fixed.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	healthy, err := client.Dial(addr, client.WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	local := func(p []byte) core.Verdict {
		v, err := det.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	hot := benignPayloads(t, 61, 3)
	hot = append(hot, wormPayload(t, 61))
	for _, p := range hot { // prime the cache over the healthy connection
		if res, err := healthy.Scan(p); err != nil || res.Cached {
			t.Fatalf("priming scan = (%+v, %v)", res, err)
		}
	}

	// The stalled peer pipelines more misses than a connection's
	// response queue holds (64), then a hit. The writer blocks on the
	// first flush; the reader stops once the queue is full.
	stalledReqs := append(benignPayloads(t, 62, 100), hot[0])
	var frames []byte
	for i, p := range stalledReqs {
		frames = server.AppendScanRequest(frames, uint64(i+1), p)
	}
	go func() {
		// The peer's own write backs up once the server stops reading.
		if _, err := stalled.Write(frames); err != nil {
			t.Error(err)
		}
	}()
	<-ln.stalled
	reg := srv.Metrics()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		if n, _ := reg.Value("scans_total"); n >= float64(len(hot)+64) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the stalled connection's requests were never served")
		}
	}

	// Hits and misses interleaved and pipelined on the healthy
	// connection: each caller gets its own verdict, hits flagged cached.
	misses := benignPayloads(t, 63, 6)
	misses = append(misses, wormPayload(t, 63))
	type req struct {
		p      []byte
		cached bool
	}
	var reqs []req
	for i, p := range misses {
		reqs = append(reqs, req{p, false}, req{hot[i%len(hot)], true})
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r req) {
			defer wg.Done()
			res, err := healthy.Scan(r.p)
			if err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			want := local(r.p)
			if res.MEL != want.MEL || res.BestStart != want.BestStart || res.Malicious != want.Malicious ||
				res.Threshold != want.Threshold || res.Cached != r.cached {
				errs <- fmt.Errorf("request %d: got %+v, want %+v cached=%v", i, res, want, r.cached)
			}
		}(i, r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The stalled peer reads again: each of its requests resolves once.
	close(ln.release)
	released = true
	_ = stalled.SetReadDeadline(time.Now().Add(20 * time.Second))
	seen := map[uint64]bool{}
	for range stalledReqs {
		typ, id, body, err := server.ReadFrame(stalled, 1<<20)
		if err != nil {
			t.Fatalf("stalled peer read: %v", err)
		}
		if typ != server.MsgVerdict || id < 1 || id > uint64(len(stalledReqs)) || seen[id] {
			t.Fatalf("stalled peer got frame type 0x%02x id %d (seen %v)", typ, id, seen)
		}
		seen[id] = true
		v, cached, err := server.DecodeVerdict(body)
		if err != nil {
			t.Fatal(err)
		}
		want := local(stalledReqs[id-1])
		if v.MEL != want.MEL || v.Threshold != want.Threshold || cached != (int(id) == len(stalledReqs)) {
			t.Fatalf("stalled request %d: got %+v cached=%v, want %+v", id, v, cached, want)
		}
	}
}
