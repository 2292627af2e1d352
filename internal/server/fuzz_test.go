package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// FuzzWire drives the frame reader with arbitrary byte streams and
// reader limits. The wire layer's contract under hostile input is:
// never panic, never allocate the declared (attacker-controlled) frame
// length, and fail only with typed errors the serve loop knows how to
// classify — errShortFrame, errFrameTooLarge, or an io read error.
// Frames that do parse must survive a re-encode/re-decode round trip.
func FuzzWire(f *testing.F) {
	f.Add(AppendScanRequest(nil, 1, []byte("\x90\x90\xC3")), uint32(1<<16))
	f.Add(appendVerdict(nil, 7, core.Verdict{MEL: 12, BestStart: 3, Threshold: 6.5, Malicious: true}, true, false, nil), uint32(1<<16))
	f.Add(appendError(nil, 9, CodeOverloaded, ErrOverloaded.Error()), uint32(1<<16))
	f.Add(AppendScanContentRequest(nil, 3, []byte("H4sIAAAA wrapped body")), uint32(1<<16))
	f.Add(appendVerdict(nil, 11, core.Verdict{
		MEL: 87, BestStart: 9, Threshold: 43.7, Malicious: true,
		ViewIndex: 2, DecodeChain: "gzip>base64", TriageScore: 0.91,
	}, false, true, nil), uint32(1<<16))
	f.Add(appendVerdict(nil, 12, core.Verdict{TriageCleared: true, TriageScore: 0.18, Threshold: 40}, true, true, nil), uint32(1<<16))
	// Truncated: length prefix promises more than the stream holds.
	f.Add([]byte{0, 0, 4, 0, 0x01}, uint32(1<<16))
	// Oversized: length prefix exceeds the reader's limit.
	f.Add(AppendScanRequest(nil, 2, make([]byte, 512)), uint32(64))
	// Short: declared body smaller than the fixed header.
	f.Add([]byte{0, 0, 0, 2, 0x01, 0x00}, uint32(1<<16))
	f.Add([]byte{}, uint32(0))
	// Traced frames: both traced request types, and both traced verdict
	// types with some stages closed and some not.
	tid := tracing.TraceID{0: 0xA0, 15: 0xAF}
	f.Add(AppendRequest(nil, 4, false, &tid, []byte("\x90\xC3")), uint32(1<<16))
	f.Add(AppendRequest(nil, 5, true, &tid, []byte("H4sIAAAA")), uint32(1<<16))
	f.Add(appendVerdict(nil, 13, core.Verdict{MEL: 30, Threshold: 40}, false, false, pinnedTrace()), uint32(1<<16))
	f.Add(appendVerdict(nil, 14, core.Verdict{
		MEL: 87, Threshold: 43.7, Malicious: true, ViewIndex: 1, DecodeChain: "base64", TriageScore: 0.7,
	}, true, true, pinnedTrace()), uint32(1<<16))

	f.Fuzz(func(t *testing.T, data []byte, maxBody uint32) {
		// Cap the limit so a parsed frame's payload stays small enough to
		// re-encode cheaply; the limit itself is still fuzzed below it.
		maxBody %= 1 << 20

		typ, id, payload, err := ReadFrame(bytes.NewReader(data), maxBody)
		if err != nil {
			if !errors.Is(err, errShortFrame) && !errors.Is(err, errFrameTooLarge) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped frame error: %v", err)
			}
			if errors.Is(err, errFrameTooLarge) && len(payload) != 0 {
				t.Fatalf("oversized frame returned %d payload bytes; must discard", len(payload))
			}
			return
		}
		if uint64(len(payload))+headerLen > uint64(maxBody) {
			t.Fatalf("accepted %d-byte payload beyond maxBody %d", len(payload), maxBody)
		}

		// Anything ReadFrame accepts must round-trip bit-exactly.
		again := appendFrame(nil, typ, id, payload)
		typ2, id2, payload2, err := ReadFrame(bytes.NewReader(again), uint32(len(again)))
		if err != nil {
			t.Fatalf("re-decoding a valid frame: %v", err)
		}
		if typ2 != typ || id2 != id || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed frame: (%d,%d,%x) != (%d,%d,%x)",
				typ2, id2, payload2, typ, id, payload)
		}

		// The verdict decoder must be total: typed error or success,
		// never a panic, whatever the payload, for every verdict type.
		// What it accepts must survive a re-encode and re-decode.
		for _, vt := range []byte{MsgVerdict, MsgVerdictTraced, MsgVerdictContent, MsgVerdictContentTraced} {
			v, cached, wt, err := DecodeVerdictOf(vt, payload)
			if err != nil {
				continue
			}
			isContent, traced, _ := msgShape(&verdictTypes, vt)
			var tr *tracing.Trace
			if traced {
				tr = traceOf(wt)
			}
			reenc := appendVerdict(nil, id, v, cached, isContent, tr)
			typ2, _, vp, rerr := ReadFrame(bytes.NewReader(reenc), uint32(len(reenc)))
			if rerr != nil || typ2 != vt {
				t.Fatalf("re-reading type 0x%02x verdict frame: type 0x%02x, %v", vt, typ2, rerr)
			}
			v2, cached2, wt2, rerr := DecodeVerdictOf(vt, vp)
			if rerr != nil {
				t.Fatalf("re-decoding type 0x%02x verdict payload: %v", vt, rerr)
			}
			// NaN thresholds and scores survive as NaN; compare bitwise.
			if cached2 != cached || v2.Malicious != v.Malicious || v2.TextOnly != v.TextOnly ||
				v2.MEL != v.MEL || v2.BestStart != v.BestStart ||
				math.Float64bits(v2.Threshold) != math.Float64bits(v.Threshold) ||
				v2.ViewIndex != v.ViewIndex || v2.DecodeChain != v.DecodeChain ||
				math.Float64bits(v2.TriageScore) != math.Float64bits(v.TriageScore) ||
				v2.TriageCleared != v.TriageCleared || v2.TraceID != v.TraceID {
				t.Fatalf("type 0x%02x verdict round trip changed: %+v != %+v", vt, v2, v)
			}
			if wt2.ID != wt.ID || wt2.Total != wt.Total {
				t.Fatalf("type 0x%02x trace echo round trip changed: %+v != %+v", vt, wt2, wt)
			}
			for s, d := range wt.Stages {
				// A negative duration reads as a stage never closed.
				if d < 0 {
					d = -1
				}
				if wt2.Stages[s] != d {
					t.Fatalf("type 0x%02x stage %d round trip: %v != %v", vt, s, wt2.Stages[s], d)
				}
			}
		}
		if code, msg, err := DecodeError(payload); err == nil {
			reenc := appendError(nil, id, code, msg)
			_, _, ep, rerr := ReadFrame(bytes.NewReader(reenc), uint32(len(reenc)))
			if rerr != nil {
				t.Fatalf("re-reading error frame: %v", rerr)
			}
			code2, msg2, rerr := DecodeError(ep)
			if rerr != nil || code2 != code || msg2 != msg {
				t.Fatalf("error round trip changed: (%d,%q,%v) != (%d,%q)", code2, msg2, rerr, code, msg)
			}
		}
	})
}

// traceOf rebuilds a trace that echoes as wt: its id, total, and every
// stage wt reports closed.
func traceOf(wt WireTrace) *tracing.Trace {
	tr := tracing.New(wt.ID, 0)
	tr.ID = wt.ID // New replaces a zero id
	tr.SetTotal(wt.Total)
	for s, d := range wt.Stages {
		if d >= 0 {
			tr.SetStageDur(tracing.Stage(s), d)
		}
	}
	return tr
}
