package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/mel"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/modelwatch"
	"repro/internal/telemetry/tracing"
)

// Spans. The traced run records a span around every call the harness
// makes into a layer's public entry point: name, start, end, parent span
// and request id. Spans live in memory and are written out when the run
// ends; every per-layer metric is computed from them. The program itself
// carries no spans, so where a layer's call cannot be nested inside the
// harness's span of its caller (Engine.Scan inside Detector.Scan), the
// caller's self time is taken per input, as the caller's span minus the
// inner call's span on the same input, and the median of those is
// reported.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Req    uint64 `json:"req"`    // request id: the item or schedule index
	Calls  int32  `json:"calls"`  // calls covered, for batched nanosecond-scale calls
}

// tracer holds one goroutine's spans.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req, Calls: 1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].End = int64(time.Since(t.epoch)) }

// endN closes a span that covered calls calls.
func (t *tracer) endN(id int32, calls int) {
	t.end(id)
	t.spans[id].Calls = int32(calls)
}

// merge appends o's spans, rebasing their parent indices.
func (t *tracer) merge(o *tracer) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// perCall returns the per-call duration in ns of every span named name.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(s.Calls))
		}
	}
	return out
}

// perKB returns, for every span named name, its duration in ns divided
// by the KB its request covered.
func (t *tracer) perKB(name string, size func(req uint64) int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/(float64(size(s.Req))/1024))
		}
	}
	return out
}

// paired returns, for every request with spans named a and b, the
// duration of a minus that of b in ns: the self time of a layer whose
// inner call the harness times separately on the same input.
func (t *tracer) paired(a, b string) []float64 {
	inner := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Name == b {
			inner[s.Req] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if d, ok := inner[s.Req]; ok && s.Name == a {
			out = append(out, float64(s.End-s.Start-d))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Replay sizes for the traced run.
const (
	replayUnits    = 2048 // distinct payloads replayed through each in-process layer
	replaySessions = 48   // 64 KB sessions streamed in-process and through melproxy
	telemetryBatch = 64   // nanosecond-scale calls timed per span
	wireReplay     = 3 * workingSet / 2
)

// stack is an in-process serving stack built with melserved's defaults:
// detector with α = 0.01, instrumented into the registry, the trace
// recorder, the event journal and modelwatch, and a pool with the
// default workers, queue and verdict cache.
type stack struct {
	det     *core.Detector
	rec     *tracing.Recorder
	journal *events.Journal
	watcher *modelwatch.Watcher
	pipe    *content.Pipeline
	pool    *server.Pool
	content bool
}

func newStack(contentMode bool) (*stack, error) {
	det, err := core.New(core.WithAlpha(0.01))
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterProcessMetrics(reg)
	s := &stack{
		det: det,
		rec: tracing.NewRecorder(tracing.RecorderConfig{
			Recent:        tracing.DefaultRecent,
			Slow:          tracing.DefaultSlow,
			SlowThreshold: tracing.DefaultSlowThreshold,
		}),
		journal: events.New(events.Config{
			Capacity:      events.DefaultCapacity,
			SampleEvery:   events.DefaultSampleEvery,
			SlowThreshold: events.DefaultSlowThreshold,
			Registry:      reg,
		}),
		watcher: modelwatch.New(reg, modelwatch.Config{}),
		content: contentMode,
	}
	if s.pipe, err = content.NewPipeline(det.ScanTraced, content.PipelineConfig{Registry: reg}); err != nil {
		return nil, err
	}
	server.InstrumentDetector(det, reg)
	cfg := server.PoolConfig{
		Detector:  det,
		Metrics:   reg,
		Recorder:  s.rec,
		OnVerdict: func(v core.Verdict) { s.watcher.Observe(v.MEL, v.Params.N, v.Params.P) },
		Events:    s.journal,
	}
	if contentMode {
		cfg.Content = s.pipe
	}
	if s.pool, err = server.NewPool(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *stack) poolDo(p []byte) (core.Verdict, bool, error) {
	if s.content {
		return s.pool.DoContent(context.Background(), p)
	}
	return s.pool.Do(context.Background(), p)
}

// layerCounts are the exact counts the in-process replay observes.
type layerCounts struct {
	bytes, states, streamBytes, windows int64
	cleared, views, units               int
	decodeMallocs, decodeBytes          uint64
}

// replayLayers replays the first replayUnits distinct payloads and
// replaySessions sessions through every layer's public entry point,
// recording spans into tr.
//
// The two calls whose difference is a self time (Detector.Scan and the
// Engine.Scan inside it; a Pool.Do miss and the scan inside it) run back
// to back on each payload, in an order that alternates from payload to
// payload: a pair then sees one machine state, and neither call always
// runs second, on caches the first warmed. The second pairing numbers
// its requests from replayUnits on, so spans pair only within a pairing.
// Every other layer gets a pass of its own.
func replayLayers(w *workload, s *stack, sessions [][]byte, verdictFrame []byte, tr *tracer) (layerCounts, error) {
	var c layerCounts
	units := w.units[:min(replayUnits, len(w.units))]
	c.units = len(units)
	eng := mel.NewEngineMode(mel.DAWN(), mel.ModeSequential)
	var recs []uint64
	verdicts := make([]core.Verdict, len(units))
	type call struct {
		name string
		f    func(j int, p []byte) error
	}
	run := func(cl call, req uint64, j int) error {
		sp := tr.begin(cl.name, -1, req)
		err := cl.f(j, units[j])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: payload %d: %w", cl.name, j, err)
		}
		return nil
	}
	pair := func(base uint64, a, b call) error {
		for j := range units {
			if j%2 == 1 {
				a, b = b, a
			}
			if err := run(a, base+uint64(j), j); err != nil {
				return err
			}
			if err := run(b, base+uint64(j), j); err != nil {
				return err
			}
		}
		return nil
	}
	// A fresh pool has never seen these payloads and they fit in its
	// verdict cache, so the first Do of each misses and the second hits.
	poolDo := func(hit bool) func(int, []byte) error {
		return func(j int, p []byte) error {
			_, cached, err := s.poolDo(p)
			if err == nil && cached != hit {
				err = fmt.Errorf("cached=%v, want %v", cached, hit)
			}
			return err
		}
	}
	engScan := call{"mel.Engine.Scan", func(j int, p []byte) error {
		res, err := eng.Scan(p)
		c.states += int64(res.States)
		c.bytes += int64(len(p))
		return err
	}}
	detScan := call{"core.Detector.Scan", func(j int, p []byte) (err error) {
		verdicts[j], err = s.det.Scan(p)
		return err
	}}
	pipeScan := call{"content.Pipeline.Scan", func(j int, p []byte) error {
		_, err := s.pipe.Scan(p)
		return err
	}}
	if err := pair(0, detScan, engScan); err != nil {
		return c, err
	}
	passes := []call{
		{"server.Pool.Do.hit", poolDo(true)},
		{"mel.Engine.FusedRecords", func(j int, p []byte) error {
			recs = eng.FusedRecords(p, recs)
			return nil
		}},
		{"content.Triage.Assess", func(j int, p []byte) error {
			if s.pipe.Triage().Assess(p).Cleared {
				c.cleared++
			}
			return nil
		}},
		{"content.Decoder.Views", func(j int, p []byte) error {
			for _, err := range s.pipe.Decoder().Views(p, 0) {
				if err == nil {
					c.views++
				}
			}
			return nil
		}},
	}
	miss := call{"server.Pool.Do.miss", poolDo(false)}
	if s.content {
		if err := pair(replayUnits, miss, pipeScan); err != nil {
			return c, err
		}
	} else {
		if err := pair(replayUnits, miss, detScan); err != nil {
			return c, err
		}
		passes = append(passes, pipeScan)
	}
	for _, cl := range passes {
		for j := range units {
			if err := run(cl, uint64(j), j); err != nil {
				return c, err
			}
		}
	}

	// Decode allocations, in a pass of their own: nothing else runs in
	// this process meanwhile, so the malloc counters are the decoder's.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range units {
		for range s.pipe.Decoder().Views(p, 0) {
		}
	}
	runtime.ReadMemStats(&m1)
	c.decodeMallocs = m1.Mallocs - m0.Mallocs
	c.decodeBytes = m1.TotalAlloc - m0.TotalAlloc

	if err := replayWire(w, units, verdictFrame, tr); err != nil {
		return c, err
	}
	replayTelemetry(s, units, verdicts, tr)

	for k, sess := range sessions {
		sp := tr.begin("core.StreamScanner", -1, uint64(k))
		n, err := replayStream(s.det, sess, sp, uint64(k), tr)
		tr.end(sp)
		if err != nil {
			return c, err
		}
		c.windows += int64(n)
		c.streamBytes += int64(len(sess))
	}
	return c, nil
}

// replayWire times the protocol work of one request in batches: the
// client encodes the request frame, the server reads it, the client
// reads the verdict frame (as melserved sent it) and decodes it.
func replayWire(w *workload, units [][]byte, verdictFrame []byte, tr *tracer) error {
	var buf []byte
	var rd bytes.Reader
	for b := 0; b+telemetryBatch <= len(units); b += telemetryBatch {
		sp := tr.begin("server.wire", -1, uint64(b))
		for j := b; j < b+telemetryBatch; j++ {
			if w.content {
				buf = server.AppendScanContentRequest(buf[:0], uint64(j), units[j])
			} else {
				buf = server.AppendScanRequest(buf[:0], uint64(j), units[j])
			}
			rd.Reset(buf)
			if _, _, _, err := server.ReadFrame(&rd, server.DefaultMaxPayload+64); err != nil {
				return fmt.Errorf("server.ReadFrame (request): %w", err)
			}
			rd.Reset(verdictFrame)
			_, _, payload, err := server.ReadFrame(&rd, server.DefaultMaxPayload+64)
			if err != nil {
				return fmt.Errorf("server.ReadFrame (verdict): %w", err)
			}
			if w.content {
				_, _, err = server.DecodeVerdictContent(payload)
			} else {
				_, _, err = server.DecodeVerdict(payload)
			}
			if err != nil {
				return fmt.Errorf("server.DecodeVerdict: %w", err)
			}
		}
		tr.endN(sp, telemetryBatch)
	}
	return nil
}

// replayTelemetry times, in batches, the per-request telemetry melserved
// runs by default: a trace opened, finished and recorded; a wide event
// journaled; a verdict observed by modelwatch.
func replayTelemetry(s *stack, units [][]byte, verdicts []core.Verdict, tr *tracer) {
	for b := 0; b+telemetryBatch <= len(units); b += telemetryBatch {
		sp := tr.begin("telemetry.trace", -1, uint64(b))
		for j := b; j < b+telemetryBatch; j++ {
			t := tracing.New(tracing.TraceID{}, len(units[j]))
			t.SetVerdict(verdicts[j].MEL, verdicts[j].Threshold, verdicts[j].Malicious)
			t.Finish()
			s.rec.Record(t)
		}
		tr.endN(sp, telemetryBatch)

		sp = tr.begin("telemetry.event", -1, uint64(b))
		for j := b; j < b+telemetryBatch; j++ {
			v := verdicts[j]
			e := events.Event{
				StartUnixNs: time.Now().UnixNano(),
				Bytes:       len(units[j]),
				MEL:         v.MEL,
				Threshold:   v.Threshold,
				Malicious:   v.Malicious,
				ViewIndex:   -1,
				Cause:       events.CauseOK,
			}
			for k := range e.Stages {
				e.Stages[k] = -1
			}
			s.journal.Record(&e)
		}
		tr.endN(sp, telemetryBatch)

		sp = tr.begin("telemetry.modelwatch", -1, uint64(b))
		for j := b; j < b+telemetryBatch; j++ {
			s.watcher.Observe(verdicts[j].MEL, verdicts[j].Params.N, verdicts[j].Params.P)
		}
		tr.endN(sp, telemetryBatch)
	}
}

// replayStream streams one session through a scanner built as melproxy
// builds it, in melproxy's read-sized writes, under parent span sp, and
// returns the number of windows scanned.
func replayStream(det *core.Detector, sess []byte, parent int32, req uint64, tr *tracer) (int, error) {
	windows := 0
	ss, err := core.NewStreamScannerFunc(func(p []byte) (core.Verdict, error) {
		windows++
		return det.Scan(p)
	}, core.DefaultWindow, core.DefaultStride)
	if err != nil {
		return 0, err
	}
	defer ss.Close()
	for off := 0; off < len(sess); off += proxyChunk {
		sp := tr.begin("core.StreamScanner.Write", parent, req)
		_, err := ss.Write(sess[off:min(off+proxyChunk, len(sess))])
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("core.StreamScanner.Write: %w", err)
		}
	}
	sp := tr.begin("core.StreamScanner.Flush", parent, req)
	err = ss.Flush()
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("core.StreamScanner.Flush: %w", err)
	}
	return windows, nil
}

// captureVerdictFrame sends payload to melserved over a raw connection
// and returns the verdict frame exactly as it arrived.
func captureVerdictFrame(addr string, contentMode bool, payload []byte) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, sessionTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(sessionTimeout)); err != nil {
		return nil, err
	}
	req := server.AppendScanRequest(nil, 1, payload)
	if contentMode {
		req = server.AppendScanContentRequest(nil, 1, payload)
	}
	if _, err := conn.Write(req); err != nil {
		return nil, err
	}
	var frame bytes.Buffer
	typ, _, body, err := server.ReadFrame(io.TeeReader(conn, &frame), server.DefaultMaxPayload+64)
	if err != nil {
		return nil, fmt.Errorf("read verdict frame: %w", err)
	}
	if contentMode {
		_, _, err = server.DecodeVerdictContent(body)
	} else {
		_, _, err = server.DecodeVerdict(body)
	}
	if err != nil {
		return nil, fmt.Errorf("frame type %#x: %w", typ, err)
	}
	return frame.Bytes(), nil
}
