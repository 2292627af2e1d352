package main

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server/client"
)

// traced is the --trace 1 run. Its per-layer metrics, and the layers of
// the path each workload's requests take:
//
//	raw_unique     wire, pool miss, detector, MEL engine (no cache hits)
//	raw_repeat     wire, mostly pool hits (verdict cache)
//	content_mixed  wire, pool miss, content pipeline (triage, decode, MEL)
//	proxy_stream   proxy session, stream scanner, detector, MEL engine
//
// Every workload reports every metric, measured on its own inputs, so a
// layer that should not move on a workload shows that it did not.
func (b *bench) traced(det *core.Detector) error {
	first, err := b.setup()
	if err != nil {
		return err
	}
	b.rep.set("setup.first_launch_s", "s", first, 1)

	st, err := newStack(b.w.content)
	if err != nil {
		return err
	}
	defer st.pool.Close()
	tr := newTracer(time.Now())

	// One request at a time through a fresh melserved: the verdict frame
	// for the wire replay, the exact cache-hit count of the schedule's
	// first wireReplay requests, and the client's latency attribution.
	// proxy_stream sends its cases as plain scans, cycled.
	wv, wwant := b.w, []verdict(nil)
	args := b.servedArgs()
	if b.w.proxy {
		n := len(b.w.units)
		wv = &workload{name: b.w.name, units: b.w.units, items: b.w.units, worm: b.w.unitWorm,
			pick: func(i uint64) int { return int(i % uint64(n)) }}
		vs, err := det.ScanBatch(context.Background(), b.w.units, 0)
		if err != nil {
			return err
		}
		for _, v := range vs {
			wwant = append(wwant, fromCore(v))
		}
		args = []string{"-listen", "127.0.0.1:0"}
	} else {
		wwant = b.want.verdicts
	}
	srv, err := b.ps.start("melserved", args, nil)
	if err != nil {
		return err
	}
	seq := &wireLoad{w: wv, want: wwant, bad: &b.bad, failed: &b.fail,
		spans: []*tracer{tr}, timings: make([][]wireTiming, 1)}
	if seq.conns, err = dialWire(srv.addr, 1, wv.content, true); err != nil {
		return err
	}
	replay := wireReplay
	if b.cfg.requests > 0 {
		replay = b.cfg.requests
	}
	cached := 0
	for i := range replay {
		if seq.do(0, uint64(i)).cached {
			cached++
		}
	}
	closeWire(seq.conns)
	frame, err := captureVerdictFrame(srv.addr, wv.content, wv.units[0])
	if err != nil {
		return fmt.Errorf("capture verdict frame: %w", err)
	}
	if b.w.proxy {
		b.ps.stop(srv, syscall.SIGTERM)
	}
	b.rep.set("server.cache_hit_ratio", "ratio", ratio(cached, replay), replay)
	var rtt, srvT, netT []float64
	for _, t := range seq.timings[0] {
		rtt = append(rtt, float64(t.rtt)/1e3)
		srvT = append(srvT, float64(t.server)/1e3)
		netT = append(netT, float64(t.network)/1e3)
	}
	b.rep.set("client.rtt_us", "us", median(rtt), len(rtt))
	b.rep.set("client.server_us", "us", median(srvT), len(srvT))
	b.rep.set("client.network_us", "us", median(netT), len(netT))

	// In-process replays of every layer's public entry point.
	sessions := make([][]byte, replaySessions)
	sessWant := make([][]alert, replaySessions)
	for s := range sessions {
		if b.w.proxy {
			sessions[s] = b.w.items[b.w.pick(uint64(s))]
		} else {
			for _, j := range b.w.sessionUnits(s) {
				sessions[s] = append(sessions[s], b.w.units[j]...)
			}
		}
		if sessWant[s], _, err = streamAlerts(det.Scan, sessions[s]); err != nil {
			return err
		}
	}
	lc, err := replayLayers(b.w, st, sessions, frame, tr)
	if err != nil {
		return err
	}

	// The same sessions one at a time through melproxy.
	if b.sink == nil {
		if b.sink, err = startSink(); err != nil {
			return err
		}
		defer b.sink.close()
	}
	// proxy_stream's first sessions are exactly these, so one proxyLoad
	// sends both the one-at-a-time sessions and the closed loop.
	sv := b.w
	if !b.w.proxy {
		sv = &workload{name: b.w.name, items: sessions, pick: func(i uint64) int { return int(i) % len(sessions) }}
	}
	px := &proxyLoad{w: sv, failed: &b.fail, alerts: map[uint64][]alert{}, spans: []*tracer{tr}}
	prox, err := b.ps.start("melproxy", []string{"-listen", "127.0.0.1:0", "-upstream", b.sink.addr()}, px.onLine)
	if err != nil {
		return err
	}
	px.addr = prox.addr
	var seqSessions []sample
	for i := range replaySessions {
		seqSessions = append(seqSessions, px.do(0, uint64(i)))
	}

	// The closed loop on the workload's own path for half of --seconds,
	// after the timed run's warm-up, alternating untraced and traced
	// rounds so drift in the host's speed falls on both; the schedule
	// continues where the replays above left it.
	const rounds = 5
	seg := time.Duration(b.cfg.seconds) * time.Second / (4 * rounds)
	loopSpans := []*tracer{newTracer(tr.epoch), newTracer(tr.epoch)}
	s := &served{b: b, proc: prox, proxy: px, next: replaySessions}
	var plainConns, tracedConns []*client.Client
	if !b.w.proxy {
		b.ps.stop(prox, syscall.SIGINT)
		px.check(seqSessions, sessWant, &b.bad)
		s = &served{b: b, proc: srv, next: uint64(replay),
			wire: &wireLoad{w: b.w, want: b.want.verdicts, bad: &b.bad, failed: &b.fail}}
		if plainConns, err = dialWire(srv.addr, clients, b.w.content, false); err != nil {
			return err
		}
		defer closeWire(plainConns)
		if tracedConns, err = dialWire(srv.addr, clients, b.w.content, true); err != nil {
			return err
		}
		defer closeWire(tracedConns)
	}
	if s.wire != nil {
		s.wire.conns = plainConns
	}
	px.spans = nil
	warm := s.warm()
	var plain, traced []sample
	var plainTput, tracedTput []float64
	for range rounds {
		for _, on := range []bool{false, true} {
			spans := loopSpans
			if !on {
				spans = nil
			}
			if s.wire != nil {
				s.wire.spans, s.wire.conns = spans, plainConns
				if on {
					s.wire.conns = tracedConns
				}
			} else {
				px.spans = spans
			}
			ss, elapsed := s.loop(s.phase(0, seg))
			var okBytes float64
			for _, x := range ss {
				if x.ok {
					okBytes += float64(x.bytes)
				}
			}
			if on {
				traced = append(traced, ss...)
				tracedTput = append(tracedTput, okBytes/elapsed.Seconds())
			} else {
				plain = append(plain, ss...)
				plainTput = append(plainTput, okBytes/elapsed.Seconds())
			}
		}
	}
	if b.w.proxy {
		b.ps.stop(prox, syscall.SIGINT)
		for _, ss := range [][]sample{seqSessions, warm, plain, traced} {
			px.check(ss, b.want.alerts, &b.bad)
		}
	}
	b.ps.stop(srv, syscall.SIGTERM)
	for _, l := range loopSpans {
		tr.merge(l)
	}
	if err := tr.write(b.spanPath()); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	b.layerMetrics(tr, lc, sessions, plain)
	b.rep.set("trace_overhead_ratio", "ratio", 1-median(tracedTput)/median(plainTput), len(plain)+len(traced))
	var failed int
	for _, s := range append(plain, traced...) {
		if !s.ok {
			failed++
		}
	}
	b.rep.res.Attempted = len(plain) + len(traced)
	b.rep.res.Failed = failed
	return nil
}

// layerMetrics derives the per-layer metrics from the spans and counts
// of the traced run, and the residual: the client's p50 in the untraced
// closed loop minus the sum of the layer medians on the workload's path.
func (b *bench) layerMetrics(tr *tracer, lc layerCounts, sessions [][]byte, plain []sample) {
	r := b.rep
	us := func(name string) (float64, int) {
		d := tr.perCall(name)
		return median(d) / 1e3, len(d)
	}
	unitKB := func(req uint64) int { return len(b.w.units[req]) }
	kb := float64(lc.bytes) / 1024

	scanKB := tr.perKB("mel.Engine.Scan", unitKB)
	r.set("mel.scan_us_per_kb", "us/KB", median(scanKB)/1e3, len(scanKB))
	recKB := tr.perKB("mel.Engine.FusedRecords", unitKB)
	r.set("mel.records_us_per_kb", "us/KB", median(recKB)/1e3, len(recKB))
	r.set("mel.states_per_kb", "count/KB", float64(lc.states)/kb, lc.units)

	self := func(name, outer, inner string) {
		d := tr.paired(outer, inner)
		r.set(name, "us", median(d)/1e3, len(d))
	}
	self("core.scan_self_us", "core.Detector.Scan", "mel.Engine.Scan")
	sessKB := func(req uint64) int { return len(sessions[req]) }
	streamKB := tr.perKB("core.StreamScanner", sessKB)
	r.set("core.stream_us_per_kb", "us/KB", median(streamKB)/1e3, len(streamKB))
	r.set("core.window_scans_per_kb", "count/KB", float64(lc.windows)/(float64(lc.streamBytes)/1024), replaySessions)

	v, n := us("content.Triage.Assess")
	r.set("content.triage_us", "us", v, n)
	r.set("content.triage_clear_ratio", "ratio", ratio(lc.cleared, lc.units), lc.units)
	v, n = us("content.Decoder.Views")
	r.set("content.decode_us", "us", v, n)
	r.set("content.decode_allocs", "count", float64(lc.decodeMallocs)/float64(lc.units), lc.units)
	r.set("content.decode_alloc_kb", "KB", float64(lc.decodeBytes)/1024/float64(lc.units), lc.units)
	r.set("content.views_per_payload", "count", float64(lc.views)/float64(lc.units), lc.units)
	pipeUS, n := us("content.Pipeline.Scan")
	r.set("content.pipeline_us", "us", pipeUS, n)

	wireUS, n := us("server.wire")
	r.set("server.wire_ns", "ns", wireUS*1e3, n)
	hitUS, n := us("server.Pool.Do.hit")
	r.set("server.pool_hit_us", "us", hitUS, n)
	missUS, _ := us("server.Pool.Do.miss")
	if b.w.content {
		self("server.pool_miss_self_us", "server.Pool.Do.miss", "content.Pipeline.Scan")
	} else {
		self("server.pool_miss_self_us", "server.Pool.Do.miss", "core.Detector.Scan")
	}

	for _, name := range []string{"trace", "event", "modelwatch"} {
		v, n := us("telemetry." + name)
		r.set("telemetry."+name+"_ns", "ns", v*1e3, n)
	}

	sessSelf := tr.paired("proxy.session", "core.StreamScanner")
	r.set("proxy.session_self_ms", "ms", median(sessSelf)/1e6, len(sessSelf))
	streamUS, _ := us("core.StreamScanner")

	var lat []float64
	hits := 0
	for _, s := range plain {
		if s.ok {
			lat = append(lat, float64(s.lat)/1e3)
			if s.cached {
				hits++
			}
		}
	}
	// The path's layers: stream scan plus proxy self time for a session;
	// for a wire request the wire, then a cache hit or a miss. A miss is
	// pool self time plus the scan (detector self time plus MEL engine,
	// or the content pipeline), which sums to the Pool.Do miss median.
	var path float64
	if b.w.proxy {
		path = streamUS + median(sessSelf)/1e3
	} else {
		h := ratio(hits, len(lat))
		path = wireUS + h*hitUS + (1-h)*missUS
	}
	r.set("residual_us", "us", median(lat)-path, len(lat))
}
