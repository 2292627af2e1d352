package server_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shellcode"
)

// startServer runs a server on an ephemeral loopback port and returns
// it with its address; cleanup closes it.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Detector == nil {
		det, err := core.New()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Detector = det
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func benignPayloads(t *testing.T, seed uint64, n int) [][]byte {
	t.Helper()
	cases, err := corpus.Dataset(seed, n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i, c := range cases {
		out[i] = c.Data
	}
	return out
}

func wormPayload(t *testing.T, seed uint64) []byte {
	t.Helper()
	worm, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	benign := benignPayloads(t, seed, 1)[0]
	p := append(append([]byte{}, benign[:2000]...), worm.Bytes...)
	p = append(p, benign[2000:]...)
	if len(p) > 4096 {
		p = p[:4096]
	}
	return p
}

// TestServeVerdictsMatchLocal: verdicts over the wire equal local
// Scan verdicts, for benign and malicious payloads alike.
func TestServeVerdictsMatchLocal(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, server.Config{Detector: det, CacheSize: -1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payloads := benignPayloads(t, 3, 4)
	payloads = append(payloads, wormPayload(t, 3))
	sawMalicious := false
	for i, p := range payloads {
		want, err := det.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Scan(p)
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if got.Malicious != want.Malicious || got.MEL != want.MEL ||
			got.BestStart != want.BestStart || got.Threshold != want.Threshold ||
			got.TextOnly != want.TextOnly {
			t.Fatalf("payload %d: wire verdict %+v, local %+v", i, got, want)
		}
		if got.Cached {
			t.Fatalf("payload %d: cached verdict from cache-disabled server", i)
		}
		sawMalicious = sawMalicious || got.Malicious
	}
	if !sawMalicious {
		t.Fatal("worm payload not flagged — detection broke en route")
	}
}

// TestCacheHitFlagAndMetrics: the second scan of identical bytes is
// served from the cache, flagged as such, and counted.
func TestCacheHitFlagAndMetrics(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := benignPayloads(t, 5, 1)[0]
	first, err := c.Scan(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first scan reported cached")
	}
	second, err := c.Scan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second scan of identical bytes not served from cache")
	}
	if second.MEL != first.MEL || second.Threshold != first.Threshold {
		t.Fatalf("cached verdict diverged: %+v vs %+v", second, first)
	}
	reg := srv.Metrics()
	for name, want := range map[string]float64{
		"scans_total":        2,
		"cache_hits_total":   1,
		"cache_misses_total": 1,
	} {
		if got, ok := reg.Value(name); !ok || got != want {
			t.Fatalf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	if v, ok := reg.Value("verdicts_benign_total"); !ok || v < 1 {
		t.Fatalf("verdicts_benign_total = %v, ok=%v", v, ok)
	}
}

// TestPipelinedConcurrentClients: many goroutines share one client
// connection; every request gets its own matching response.
func TestPipelinedConcurrentClients(t *testing.T) {
	_, addr := startServer(t, server.Config{Workers: 4, QueueDepth: 64})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payloads := benignPayloads(t, 7, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				p := payloads[(g+i)%len(payloads)]
				res, err := c.Scan(p)
				if err != nil {
					errs <- err
					return
				}
				if res.MEL < 0 || res.Threshold <= 0 {
					errs <- errors.New("implausible verdict")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOverloadShedsTyped: with one worker, a tiny queue, and a flood of
// in-flight requests, excess requests shed with ErrOverloaded — and
// every request returns a verdict or that typed error; nothing hangs.
// Two shapes: one payload repeated into a one-slot queue, and a burst
// of 64 requests cycling 32 distinct payloads into a two-slot queue.
func TestOverloadShedsTyped(t *testing.T) {
	for _, tc := range []struct {
		name            string
		queue, inflight int
		distinct        int
	}{
		{"repeat", 1, 32, 1},
		{"burst", 2, 64, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, server.Config{Workers: 1, QueueDepth: tc.queue, CacheSize: -1})
			c, err := client.Dial(addr, client.WithTimeout(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			payloads := benignPayloads(t, 9, tc.distinct)
			var wg sync.WaitGroup
			var mu sync.Mutex
			var shed, served int
			var unexpected []error
			for i := 0; i < tc.inflight; i++ {
				wg.Add(1)
				go func(p []byte) {
					defer wg.Done()
					_, err := c.Scan(p)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err == nil:
						served++
					case errors.Is(err, server.ErrOverloaded):
						shed++
					default:
						unexpected = append(unexpected, err)
					}
				}(payloads[i%len(payloads)])
			}
			wg.Wait()
			if len(unexpected) > 0 {
				t.Fatalf("unexpected errors: %v", unexpected)
			}
			if served == 0 {
				t.Fatal("no request served under overload")
			}
			if shed == 0 {
				t.Fatalf("no request shed: queue depth %d with %d in flight must shed", tc.queue, tc.inflight)
			}
			if served+shed != tc.inflight {
				t.Fatalf("served %d + shed %d != %d", served, shed, tc.inflight)
			}
			if v, ok := srv.Metrics().Value("shed_total"); !ok || v != float64(shed) {
				t.Fatalf("shed_total = %v, want %d", v, shed)
			}
		})
	}
}

// TestPayloadTooLargeTyped: oversized payloads get the typed error,
// and the connection survives for further requests.
func TestPayloadTooLargeTyped(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxPayload: 1024})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Scan(make([]byte, 4096)); !errors.Is(err, server.ErrPayloadTooLarge) {
		t.Fatalf("oversized scan err = %v, want ErrPayloadTooLarge", err)
	}
	if _, err := c.Scan(benignPayloads(t, 11, 1)[0][:512]); err != nil {
		t.Fatalf("connection unusable after typed error: %v", err)
	}
}

// TestGracefulDrain: requests in flight when Close begins still get
// verdicts; the listener refuses new connections afterwards.
func TestGracefulDrain(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Detector: det, Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payloads := benignPayloads(t, 13, 4)
	results := make(chan error, len(payloads))
	var wg sync.WaitGroup
	for _, p := range payloads {
		wg.Add(1)
		go func(p []byte) {
			defer wg.Done()
			_, err := c.Scan(p)
			results <- err
		}(p)
	}
	wg.Wait() // all four verdicts back before Close — sanity baseline
	close(results)
	for err := range results {
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after Close", err)
	}
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}

// armListener wraps every accepted connection in an armConn.
type armListener struct {
	net.Listener
	conns chan *armConn
}

func (l *armListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &armConn{Conn: c, armed: make(chan struct{}), woken: make(chan struct{})}
	l.conns <- sc
	return sc, nil
}

// armConn holds the reader's second read-deadline arm until Close has
// set the deadline to now, then lets it through: the interleaving in
// which re-arming overwrote Close's wakeup and the reader slept the
// full ReadTimeout.
type armConn struct {
	net.Conn
	mu       sync.Mutex
	arms     int
	armed    chan struct{} // closed when the held arm arrives
	woken    chan struct{} // closed once Close's wakeup is applied
	wakeOnce sync.Once
}

func (c *armConn) SetReadDeadline(t time.Time) error {
	if !t.After(time.Now()) {
		err := c.Conn.SetReadDeadline(t)
		c.wakeOnce.Do(func() { close(c.woken) })
		return err
	}
	c.mu.Lock()
	c.arms++
	second := c.arms == 2
	c.mu.Unlock()
	if second {
		close(c.armed)
		<-c.woken
	}
	return c.Conn.SetReadDeadline(t)
}

// TestCloseWakesReaderBetweenFrames pins the drain race: Close must
// return promptly even when a reader re-arms its read deadline right
// after Close set it to now. A reader re-arms only once its last arm
// is older than ReadTimeout/16, so the second frame comes after that.
func TestCloseWakesReaderBetweenFrames(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	const readTimeout = 10 * time.Second
	srv, err := server.New(server.Config{Detector: det, ReadTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &armListener{Listener: inner, conns: make(chan *armConn, 1)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c, err := client.Dial(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payloads := benignPayloads(t, 17, 2)
	if _, err := c.Scan(payloads[0]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(readTimeout/16 + 100*time.Millisecond)
	if _, err := c.Scan(payloads[1]); err != nil {
		t.Fatal(err)
	}
	sc := <-ln.conns
	select {
	case <-sc.armed:
	case <-time.After(5 * time.Second):
		t.Fatal("reader never re-armed its read deadline for the next frame")
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked 2s into a 10s ReadTimeout: the reader re-armed over the wakeup")
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after Close", err)
	}
}

// TestReadTimeoutClosesIdleConn: a connection that goes quiet after a
// frame is closed once its read deadline passes. A frame re-arms the
// deadline only when the last arm is older than ReadTimeout/16, so the
// close comes no sooner than 15/16 of the timeout after the frame.
func TestReadTimeoutClosesIdleConn(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	_, addr := startServer(t, server.Config{ReadTimeout: readTimeout})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	if _, err := conn.Write(server.AppendScanRequest(nil, 1, benignPayloads(t, 19, 1)[0])); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := server.ReadFrame(conn, 1<<20); err != nil || typ != server.MsgVerdict {
		t.Fatalf("first frame: type %#x, err %v; want a verdict", typ, err)
	}
	if n, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("idle read returned (%d, %v), want EOF from the server's idle close", n, err)
	}
	idle := time.Since(sent)
	if lo, hi := readTimeout*15/16, readTimeout+500*time.Millisecond; idle < lo || idle > hi {
		t.Fatalf("idle connection closed %v after its frame, want within [%v, %v]", idle, lo, hi)
	}
}

// TestReadTimeoutSparesBusyConn: a connection that sends a frame every
// half ReadTimeout for five timeouts is never cut — each frame that
// finds the deadline's arm stale pushes it out again.
func TestReadTimeoutSparesBusyConn(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	_, addr := startServer(t, server.Config{ReadTimeout: readTimeout})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := benignPayloads(t, 23, 1)[0]
	for i := 0; i < 10; i++ {
		time.Sleep(readTimeout / 2)
		if _, err := c.Scan(payload); err != nil {
			t.Fatalf("frame %d, %v into the connection: %v", i, time.Duration(i+1)*readTimeout/2, err)
		}
	}
}

// submit queues payload on pool the way a connection reader does with
// more requests buffered: never scanned inline, shed when the queue is
// full.
func submit(pool *server.Pool, payload []byte, deadline time.Time, done func(core.Verdict, bool, error)) error {
	return server.RunOrSubmit(pool, payload, deadline, nil, false, false, done)
}

// TestPoolDrainServesQueuedWork: jobs accepted before Close are served
// during the drain, never dropped.
func TestPoolDrainServesQueuedWork(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := server.NewPool(server.PoolConfig{Detector: det, Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := benignPayloads(t, 15, 1)[0]
	const jobs = 6
	done := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		err := submit(pool, p, time.Time{}, func(_ core.Verdict, _ bool, err error) { done <- err })
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	pool.Close() // must drain all six
	for i := 0; i < jobs; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued job failed during drain: %v", err)
		}
	}
	if err := submit(pool, p, time.Time{}, func(core.Verdict, bool, error) {}); !errors.Is(err, server.ErrShuttingDown) {
		t.Fatalf("submit after close = %v, want ErrShuttingDown", err)
	}
}

// TestRequestDeadlineExpiresTyped: a request whose deadline passed
// before a worker reached it fails with ErrDeadlineExceeded.
func TestRequestDeadlineExpiresTyped(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := server.NewPool(server.PoolConfig{Detector: det, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	p := benignPayloads(t, 17, 1)[0]

	// Stall the single worker with a long job, then queue one whose
	// deadline is already in the past — deterministically expired by
	// the time the worker frees up.
	blockDone := make(chan struct{})
	if err := submit(pool, p, time.Time{}, func(core.Verdict, bool, error) { close(blockDone) }); err != nil {
		t.Fatal(err)
	}
	expired := make(chan error, 1)
	if err := submit(pool, p, time.Now().Add(-time.Second), func(_ core.Verdict, _ bool, err error) { expired <- err }); err != nil {
		t.Fatal(err)
	}
	<-blockDone
	if err := <-expired; !errors.Is(err, server.ErrDeadlineExceeded) {
		t.Fatalf("expired job err = %v, want ErrDeadlineExceeded", err)
	}
}

// TestQueuedFrameBufferReuseHammer: many distinct payloads of mixed
// lengths, pipelined on one connection into a multi-worker pool with no
// verdict cache, so every request is queued and each finished request
// hands its frame buffer back for a later frame to be read into. A
// buffer recycled while a worker still read it would scan another
// request's bytes; every wire verdict must equal the in-process one.
func TestQueuedFrameBufferReuseHammer(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, server.Config{Detector: det, Workers: 3, QueueDepth: 256, CacheSize: -1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var payloads [][]byte
	for i, p := range benignPayloads(t, 23, 48) {
		payloads = append(payloads, p[:1024+(i*331)%3072])
	}
	for seed := uint64(0); seed < 8; seed++ {
		payloads = append(payloads, wormPayload(t, seed))
	}
	want := make([]core.Verdict, len(payloads))
	for i, p := range payloads {
		if want[i], err = det.Scan(p); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range payloads {
					i := (k*7 + g*5 + r) % len(payloads)
					got, err := c.Scan(payloads[i])
					if err != nil {
						errs <- err
						return
					}
					if got.Malicious != want[i].Malicious || got.MEL != want[i].MEL ||
						got.BestStart != want[i].BestStart || got.Threshold != want[i].Threshold {
						errs <- fmt.Errorf("payload %d: wire verdict %+v, in-process %+v", i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
