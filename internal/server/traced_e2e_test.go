package server_test

import (
	"encoding/binary"
	"math"
	"net"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry/tracing"
)

// TestTracedScanEndToEnd: a client built WithTracing gets back a
// populated Result.Trace whose stage timings are real, and the same
// trace is retrievable from the server's flight recorder by id.
func TestTracedScanEndToEnd(t *testing.T) {
	rec := tracing.NewRecorder(tracing.RecorderConfig{Recent: 64, Slow: 8})
	_, addr := startServer(t, server.Config{Recorder: rec})
	c, err := client.Dial(addr, client.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := benignPayloads(t, 11, 1)[0]
	res, err := c.Scan(payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced scan returned nil Result.Trace")
	}
	tr := res.Trace
	if tr.ID.IsZero() {
		t.Fatal("zero trace id")
	}
	if tr.Server <= 0 {
		t.Fatalf("server total = %v, want > 0", tr.Server)
	}
	if tr.Elapsed < tr.Server {
		t.Fatalf("elapsed %v < server %v", tr.Elapsed, tr.Server)
	}
	if tr.Network < 0 {
		t.Fatalf("network = %v, want >= 0", tr.Network)
	}
	// A cache-miss scan must time the queue wait, the cache probe, the
	// threshold derivation, and the scan. The daemon runs the fused
	// single pass, which decodes and runs the DP in one sweep: it is
	// timed whole as the DP stage, and the decode stage stays unset.
	for _, s := range []tracing.Stage{
		tracing.StageQueueWait, tracing.StageCache, tracing.StageThreshold,
		tracing.StageDP,
	} {
		if tr.Stages[s] < 0 {
			t.Fatalf("stage %s not recorded", s)
		}
	}
	if tr.Stages[tracing.StageDP] <= 0 {
		t.Fatalf("DP stage = %v — the fused scan was not timed", tr.Stages[tracing.StageDP])
	}
	if tr.Stages[tracing.StageDecode] >= 0 {
		t.Fatalf("decode stage = %v, want unset on the fused path", tr.Stages[tracing.StageDecode])
	}

	// The flight recorder holds the same trace under the same id.
	found := false
	for _, got := range rec.Recent(0) {
		if got.ID == tr.ID {
			found = true
			if got.Bytes != len(payload) {
				t.Fatalf("recorded trace bytes = %d, want %d", got.Bytes, len(payload))
			}
			if got.MEL != res.MEL {
				t.Fatalf("recorded trace MEL = %d, verdict %d", got.MEL, res.MEL)
			}
			if got.Total() != tr.Server {
				t.Fatalf("recorded total %v != echoed total %v", got.Total(), tr.Server)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in flight recorder", tr.ID)
	}
}

// TestTracedCacheHitGetsFreshTraceID: a repeat scan is served from the
// verdict cache but still carries its own trace id, not the miss's.
func TestTracedCacheHitGetsFreshTraceID(t *testing.T) {
	rec := tracing.NewRecorder(tracing.RecorderConfig{Recent: 64, Slow: 8})
	_, addr := startServer(t, server.Config{Recorder: rec})
	c, err := client.Dial(addr, client.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := benignPayloads(t, 12, 1)[0]
	first, err := c.Scan(payload)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Scan(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical scan not served from cache")
	}
	if second.Trace == nil {
		t.Fatal("cache hit lost its trace")
	}
	if second.Trace.ID == first.Trace.ID {
		t.Fatal("cache hit reused the miss's trace id")
	}
	if second.Trace.Stages[tracing.StageCache] < 0 {
		t.Fatal("cache hit did not time the cache stage")
	}
	if second.Trace.Stages[tracing.StageDP] >= 0 {
		t.Fatal("cache hit claims a DP stage")
	}
}

// TestUntracedClientAgainstTracingServer: a plain client against a
// recorder-enabled server gets plain verdicts (nil Trace), and the
// server still records a trace for the request.
func TestUntracedClientAgainstTracingServer(t *testing.T) {
	rec := tracing.NewRecorder(tracing.RecorderConfig{Recent: 64, Slow: 8})
	_, addr := startServer(t, server.Config{Recorder: rec})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Scan(benignPayloads(t, 13, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced scan returned a Trace")
	}
	if len(rec.Recent(0)) == 0 {
		t.Fatal("server did not auto-trace the untraced request")
	}
}

// fakeLegacyServer speaks the pre-tracing protocol: MsgScan gets a
// canned verdict, MsgScanTraced gets the bad-request error a server
// that predates the frame type would send.
func fakeLegacyServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			typ, id, _, err := server.ReadFrame(conn, 1<<20)
			if err != nil {
				return
			}
			var resp []byte
			switch typ {
			case server.MsgScan:
				// Hand-rolled MsgVerdict: flags | MEL | BestStart | τ.
				body := make([]byte, 0, 9+17)
				body = append(body, server.MsgVerdict)
				body = binary.BigEndian.AppendUint64(body, id)
				body = append(body, 0)
				body = binary.BigEndian.AppendUint32(body, 21)
				body = binary.BigEndian.AppendUint32(body, 3)
				body = binary.BigEndian.AppendUint64(body, math.Float64bits(104.0))
				resp = binary.BigEndian.AppendUint32(nil, uint32(len(body)))
				resp = append(resp, body...)
			default:
				body := make([]byte, 0, 9+1)
				body = append(body, server.MsgError)
				body = binary.BigEndian.AppendUint64(body, id)
				body = append(body, server.CodeBadRequest)
				resp = binary.BigEndian.AppendUint32(nil, uint32(len(body)))
				resp = append(resp, body...)
			}
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestTracingClientDowngradesAgainstLegacyServer: a WithTracing client
// talking to a server that rejects MsgScanTraced transparently retries
// untraced and stays downgraded.
func TestTracingClientDowngradesAgainstLegacyServer(t *testing.T) {
	addr := fakeLegacyServer(t)
	c, err := client.Dial(addr, client.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two scans: the first exercises the downgrade-and-retry path, the
	// second the downgraded steady state.
	for i := 0; i < 2; i++ {
		res, err := c.Scan([]byte("hello legacy"))
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if res.Trace != nil {
			t.Fatalf("scan %d: legacy server produced a Trace", i)
		}
		if res.MEL != 21 {
			t.Fatalf("scan %d: MEL = %d, want canned 21", i, res.MEL)
		}
	}
}
