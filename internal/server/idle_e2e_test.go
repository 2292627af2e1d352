package server_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry/tracing"
)

// scanProbe wraps the detector as the content pipeline's MEL pass and
// watches every scan the server runs: how many run at once, and
// whether one ran on a connection's reader goroutine. gate, when set,
// holds each scan until it closes; hold stretches each scan so that
// scans racing for the pool overlap.
type scanProbe struct {
	det      *core.Detector
	gate     chan struct{}
	hold     time.Duration
	running  atomic.Int32
	peak     atomic.Int32
	onReader atomic.Int32
	scans    atomic.Int32
}

func (p *scanProbe) scan(payload []byte, tr *tracing.Trace) (core.Verdict, error) {
	n := p.running.Add(1)
	defer p.running.Add(-1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	p.scans.Add(1)
	stack := make([]byte, 8<<10)
	if bytes.Contains(stack[:runtime.Stack(stack, false)], []byte("(*Server).handleConn")) {
		p.onReader.Add(1)
	}
	if p.gate != nil {
		select {
		case <-p.gate:
		case <-time.After(20 * time.Second):
		}
	}
	time.Sleep(p.hold)
	return p.det.ScanTraced(payload, tr)
}

// probedServer starts a daemon whose content pipeline scans through
// probe, with the verdict cache off so every request scans.
func probedServer(t *testing.T, workers int, probe *scanProbe) string {
	t.Helper()
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	probe.det = det
	pipe, err := content.NewPipeline(probe.scan, content.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, server.Config{Detector: det, Content: pipe, Workers: workers, QueueDepth: 64, CacheSize: -1,
		Recorder: tracing.NewRecorder(tracing.RecorderConfig{Recent: 16})})
	return addr
}

// shortPayload is too short for the triage gate to clear, so its
// content scan always reaches the MEL pass.
func shortPayload(i int) []byte {
	return []byte(fmt.Sprintf("request %d: short enough that triage never clears it", i))
}

// TestIdleMissServedOnReader: a miss on an idle connection of an idle
// server is scanned on the connection's reader, and its trace still
// times the queue wait, near zero.
func TestIdleMissServedOnReader(t *testing.T) {
	probe := &scanProbe{}
	addr := probedServer(t, 2, probe)
	c, err := client.Dial(addr, client.WithContent(), client.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		res, err := c.Scan(shortPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("traced scan returned no trace")
		}
		if qw := res.Trace.Stages[tracing.StageQueueWait]; qw < 0 || qw > 10*time.Millisecond {
			t.Fatalf("inline miss queue wait = %v, want recorded and near zero", qw)
		}
	}
	if got := probe.onReader.Load(); got != 5 {
		t.Fatalf("%d of 5 one-at-a-time misses scanned on the reader, want all", got)
	}
}

// TestScansNeverExceedWorkers: many connections, each sending misses
// one at a time, race for the pool. Readers that scan inline and
// workers together never run more than Workers scans at once.
func TestScansNeverExceedWorkers(t *testing.T) {
	const workers, conns, perConn = 2, 6, 25
	probe := &scanProbe{hold: 200 * time.Microsecond}
	addr := probedServer(t, workers, probe)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithContent(), client.WithTimeout(30*time.Second))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perConn; i++ {
				if _, err := c.Scan(shortPayload(k*perConn + i)); err != nil {
					errs <- err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := probe.scans.Load(); got != conns*perConn {
		t.Fatalf("%d scans ran, want %d", got, conns*perConn)
	}
	if peak := probe.peak.Load(); peak > workers {
		t.Fatalf("%d scans ran at once with %d workers", peak, workers)
	}
	if probe.onReader.Load() == 0 {
		t.Fatal("no miss was scanned on a reader")
	}
}

// TestBurstOverlapsOnWorkers: requests written back to back on one
// connection are queued to the workers rather than scanned one by one
// on the reader, so two of them run at once. Each scan is held until
// the peak reaches two; a burst served serially would never get there.
func TestBurstOverlapsOnWorkers(t *testing.T) {
	const burst = 4
	probe := &scanProbe{gate: make(chan struct{})}
	addr := probedServer(t, 2, probe)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frames []byte
	for i := 0; i < burst; i++ {
		frames = server.AppendScanContentRequest(frames, uint64(i+1), shortPayload(i))
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); probe.peak.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("burst never overlapped: peak %d running scans", probe.peak.Load())
		}
	}
	close(probe.gate)
	_ = conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	seen := map[uint64]bool{}
	for range burst {
		typ, id, _, err := server.ReadFrame(conn, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if typ != server.MsgVerdictContent || id < 1 || id > burst || seen[id] {
			t.Fatalf("frame type 0x%02x id %d (seen %v)", typ, id, seen)
		}
		seen[id] = true
	}
	if peak := probe.peak.Load(); peak != 2 {
		t.Fatalf("peak %d running scans, want 2", peak)
	}
}
