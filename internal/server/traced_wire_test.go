package server

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// TestVerdictTracedRoundTrip: a traced verdict frame survives
// append → ReadFrame → decode with the id, total, and every closed
// stage intact, and unclosed stages come back as -1.
func TestVerdictTracedRoundTrip(t *testing.T) {
	var tid tracing.TraceID
	for i := range tid {
		tid[i] = byte(0xA0 + i)
	}
	tr := tracing.New(tid, 4096)
	tr.SetStageDur(tracing.StageQueueWait, 1500*time.Nanosecond)
	tr.SetStageDur(tracing.StageThreshold, 200*time.Nanosecond)
	tr.SetStageDur(tracing.StageDecode, 40*time.Microsecond)
	tr.SetStageDur(tracing.StageDP, 90*time.Microsecond)
	// StageCache deliberately left unclosed.
	tr.SetTotal(150 * time.Microsecond)

	want := core.Verdict{Malicious: true, MEL: 123, BestStart: 77, Threshold: 104.5, TextOnly: false}
	frame := appendVerdict(nil, 42, want, true, false, tr)

	typ, id, payload, err := ReadFrame(bytes.NewReader(frame), uint32(len(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgVerdictTraced || id != 42 {
		t.Fatalf("frame header: type 0x%02x id %d", typ, id)
	}
	v, cached, wt, err := DecodeVerdictOf(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("cached flag lost")
	}
	if v.Malicious != want.Malicious || v.MEL != want.MEL ||
		v.BestStart != want.BestStart || v.Threshold != want.Threshold {
		t.Fatalf("verdict mangled: %+v", v)
	}
	if v.TraceID != tid || wt.ID != tid {
		t.Fatalf("trace id mangled: verdict %s wire %s", v.TraceID, wt.ID)
	}
	if wt.Total != 150*time.Microsecond {
		t.Fatalf("total = %v", wt.Total)
	}
	wantStages := [tracing.NumStages]time.Duration{
		tracing.StageQueueWait:     1500 * time.Nanosecond,
		tracing.StageCache:         -1,
		tracing.StageThreshold:     200 * time.Nanosecond,
		tracing.StageDecode:        40 * time.Microsecond,
		tracing.StageDP:            90 * time.Microsecond,
		tracing.StageTriage:        -1,
		tracing.StageContentDecode: -1,
	}
	if wt.Stages != wantStages {
		t.Fatalf("stages = %v, want %v", wt.Stages, wantStages)
	}
}

// TestVerdictTracedDecodeRejectsTruncation: every truncation of a valid
// traced verdict payload is rejected, never mis-decoded.
func TestVerdictTracedDecodeRejectsTruncation(t *testing.T) {
	tr := tracing.New(tracing.NewID(), 64)
	tr.SetStageDur(tracing.StageDP, time.Microsecond)
	tr.SetTotal(2 * time.Microsecond)
	frame := appendVerdict(nil, 7, core.Verdict{MEL: 9}, false, false, tr)
	payload := frame[4+headerLen:]
	for n := 0; n < len(payload); n++ {
		if _, _, _, err := DecodeVerdictOf(MsgVerdictTraced, payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	if _, _, _, err := DecodeVerdictOf(MsgVerdictTraced, payload); err != nil {
		t.Fatalf("full payload rejected: %v", err)
	}
}
