package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/client"
)

// clients is the closed loop's concurrency: two callers, each waiting
// for its verdict before sending again, as a gateway or melproxy waits
// on a verdict before forwarding.
const clients = 2

// sample is one request (or proxy session) of a closed loop.
type sample struct {
	req     uint64 // schedule index
	item    int32
	bytes   int32
	ok      bool // answered with a verdict
	flagged bool
	cached  bool
	lat     time.Duration
	end     time.Duration // completion, from the phase start
}

// phase bounds one closed-loop run: requests from schedule index from
// on, either count of them or as many as fit in duration.
type phase struct {
	from     uint64
	count    uint64
	duration time.Duration
}

// closedLoop runs do on `clients` workers until ph is exhausted and
// returns the samples and the wall time. Indices are drawn from one
// counter, so the set of requests a count-bounded phase sends is fixed;
// a time-bounded phase checks the clock before drawing, so every drawn
// index is sent and the next phase continues at from+len(samples).
func closedLoop(ph phase, do func(worker int, i uint64) sample) ([]sample, time.Duration) {
	var next atomic.Uint64
	next.Store(ph.from)
	per := make([][]sample, clients)
	t0 := time.Now()
	deadline := t0.Add(ph.duration)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ph.count > 0 || time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if ph.count > 0 && i >= ph.from+ph.count {
					return
				}
				s := do(w, i)
				s.end = time.Since(t0)
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// tally counts problems of one kind, verdict mismatches or failed
// requests, keeping the first few for the report.
type tally struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (m *tally) note(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	if len(m.first) < 5 {
		m.first = append(m.first, fmt.Sprintf(format, args...))
	}
}

func (m *tally) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// wireLoad sends wire scans to melserved over one connection per
// worker.
type wireLoad struct {
	w       *workload
	want    []verdict
	conns   []*client.Client
	spans   []*tracer      // per worker when the loop is traced, else nil
	bad     *tally         // answers that differ from the expected ones
	failed  *tally         // requests answered with an error instead of a verdict
	timings [][]wireTiming // per worker, when set
}

// wireTiming is the client-side attribution of one traced request.
type wireTiming struct{ rtt, server, network time.Duration }

func dialWire(addr string, n int, content, traced bool) ([]*client.Client, error) {
	var opts []client.Option
	if content {
		opts = append(opts, client.WithContent())
	}
	if traced {
		opts = append(opts, client.WithTracing())
	}
	conns := make([]*client.Client, 0, n)
	for range n {
		c, err := client.Dial(addr, opts...)
		if err != nil {
			closeWire(conns)
			return nil, fmt.Errorf("dial melserved: %w", err)
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeWire(conns []*client.Client) {
	for _, c := range conns {
		c.Close()
	}
}

func (d *wireLoad) do(worker int, i uint64) sample {
	k := d.w.pick(i)
	p := d.w.items[k]
	s := sample{req: i, item: int32(k), bytes: int32(len(p))}
	var sp int32
	if d.spans != nil {
		sp = d.spans[worker].begin("client.Client.Scan", -1, i)
	}
	t := time.Now()
	res, err := d.conns[worker].Scan(p)
	s.lat = time.Since(t)
	if d.spans != nil {
		d.spans[worker].end(sp)
	}
	if err != nil {
		d.failed.note("request %d: %v", i, err)
		return s
	}
	s.ok, s.flagged, s.cached = true, res.Malicious, res.Cached
	if got := fromClient(res); got != d.want[k] {
		d.bad.note("request %d (item %d): served %+v, expected %+v", i, k, got, d.want[k])
	}
	if res.Trace != nil && d.timings != nil {
		d.timings[worker] = append(d.timings[worker], wireTiming{res.Trace.Elapsed, res.Trace.Server, res.Trace.Network})
	}
	return s
}

// proxyLoad writes sessions through melproxy to the sink. Each
// session dials from its own loopback source address, derived from its
// schedule index, so melproxy's ALERT lines (which name the client
// address) map back to the session without ambiguity.
type proxyLoad struct {
	w      *workload
	addr   string
	spans  []*tracer
	failed *tally

	mu     sync.Mutex
	alerts map[uint64][]alert // by sessionKey
}

const sessionTimeout = 30 * time.Second

// sessionKey and sessionIP map a schedule index to one of 2^22 source
// addresses in 127.64.0.0/10.
func sessionKey(i uint64) uint64 { return i & (1<<22 - 1) }

func sessionIP(i uint64) net.IP {
	x := sessionKey(i)
	return net.IPv4(127, byte(64+x>>16), byte(x>>8), byte(x))
}

// onLine parses melproxy's "ALERT <client addr> window@<off> MEL=<n> ..."
// log lines.
func (d *proxyLoad) onLine(line string) {
	_, rest, ok := strings.Cut(line, "ALERT ")
	if !ok {
		return
	}
	f := strings.Fields(rest)
	if len(f) < 3 {
		return
	}
	host, _, err := net.SplitHostPort(f[0])
	ip := net.ParseIP(host).To4()
	off, err1 := strconv.ParseInt(strings.TrimPrefix(f[1], "window@"), 10, 64)
	mel, err2 := strconv.Atoi(strings.TrimPrefix(f[2], "MEL="))
	if err != nil || ip == nil || ip[0] != 127 || ip[1] < 64 || err1 != nil || err2 != nil {
		fmt.Fprintf(os.Stderr, "perfbench: unparsed melproxy line: %s\n", line)
		return
	}
	key := uint64(ip[1]-64)<<16 | uint64(ip[2])<<8 | uint64(ip[3])
	d.mu.Lock()
	d.alerts[key] = append(d.alerts[key], alert{off, mel})
	d.mu.Unlock()
}

func (d *proxyLoad) do(worker int, i uint64) sample {
	k := d.w.pick(i)
	p := d.w.items[k]
	s := sample{req: i, item: int32(k), bytes: int32(len(p))}
	var sp int32
	if d.spans != nil {
		sp = d.spans[worker].begin("proxy.session", -1, i)
	}
	t := time.Now()
	err := session(d.addr, &net.TCPAddr{IP: sessionIP(i)}, p)
	s.lat = time.Since(t)
	if d.spans != nil {
		d.spans[worker].end(sp)
	}
	if err != nil {
		d.failed.note("session %d: %v", i, err)
		return s
	}
	s.ok = true
	return s
}

// session writes p through the proxy at addr and returns once the proxy
// has scanned it, forwarded it and closed the connection.
func session(addr string, local net.Addr, p []byte) error {
	dl := net.Dialer{LocalAddr: local, Timeout: sessionTimeout}
	conn, err := dl.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(sessionTimeout)); err != nil {
		return err
	}
	if _, err := conn.Write(p); err != nil {
		return err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, conn)
	return err
}

// check compares each served session's alerts with the expectation and
// sets its flagged bit. Call it only after melproxy has exited, so every
// ALERT line has been read.
func (d *proxyLoad) check(samples []sample, want [][]alert, bad *tally) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for n := range samples {
		s := &samples[n]
		if !s.ok {
			continue
		}
		got := d.alerts[sessionKey(s.req)]
		sortAlerts(got)
		s.flagged = len(got) > 0
		if !alertsEqual(got, want[s.item]) {
			bad.note("session %d (item %d): melproxy alerted %v, expected %v", s.req, s.item, got, want[s.item])
		}
	}
}

func alertsEqual(a, b []alert) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sink is the upstream melproxy forwards to: it accepts connections,
// reads each to EOF and counts the bytes delivered.
type sink struct {
	ln    net.Listener
	bytes atomic.Int64

	mu       sync.Mutex
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
	accepted chan struct{}
	once     sync.Once
}

func startSink() (*sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{ln: ln, conns: make(map[net.Conn]bool), accepted: make(chan struct{})}
	go func() {
		defer close(s.accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[c] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				n, _ := io.Copy(io.Discard, c)
				s.bytes.Add(n)
				c.Close()
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
			}()
		}
	}()
	return s, nil
}

func (s *sink) addr() string { return s.ln.Addr().String() }

// close stops accepting and waits for every reader to finish; a
// connection still open is closed, since nothing writes to it any more.
// Safe to call more than once.
func (s *sink) close() {
	s.once.Do(func() {
		s.ln.Close()
		<-s.accepted
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
}
