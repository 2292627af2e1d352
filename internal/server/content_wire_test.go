package server

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// contentVerdict returns a representative content-pipeline verdict.
func contentVerdict() core.Verdict {
	return core.Verdict{
		Malicious:   true,
		MEL:         87,
		BestStart:   1024,
		Threshold:   43.7,
		ViewIndex:   2,
		DecodeChain: "gzip>base64",
		TriageScore: 0.91,
	}
}

// TestVerdictContentRoundTrip: the content extension — view index,
// triage score, decode chain, cleared flag — survives the wire.
func TestVerdictContentRoundTrip(t *testing.T) {
	for _, want := range []core.Verdict{
		contentVerdict(),
		{TriageCleared: true, TriageScore: 0.18}, // cleared benign: no MEL pass ran
		{MEL: 12, Threshold: 43.7, TriageScore: 0.55},
	} {
		var buf bytes.Buffer
		buf.Write(appendVerdict(nil, 11, want, false, true, nil))
		typ, id, payload, err := ReadFrame(&buf, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgVerdictContent || id != 11 {
			t.Fatalf("frame header = (0x%02x, %d)", typ, id)
		}
		got, cached, err := DecodeVerdictContent(payload)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatal("spurious cached flag")
		}
		if got.Malicious != want.Malicious || got.MEL != want.MEL ||
			got.BestStart != want.BestStart || got.Threshold != want.Threshold {
			t.Fatalf("verdict = %+v, want %+v", got, want)
		}
		if got.ViewIndex != want.ViewIndex || got.DecodeChain != want.DecodeChain ||
			got.TriageScore != want.TriageScore || got.TriageCleared != want.TriageCleared {
			t.Fatalf("content fields = %+v, want %+v", got, want)
		}
	}
}

// TestVerdictContentTracedRoundTrip: the traced form carries the
// content extension and the trace echo together.
func TestVerdictContentTracedRoundTrip(t *testing.T) {
	want := contentVerdict()
	tr := tracing.New(tracing.NewID(), 4096)
	tr.StageStart(tracing.StageTriage)
	tr.StageEnd(tracing.StageTriage)
	tr.StageStart(tracing.StageContentDecode)
	tr.StageEnd(tracing.StageContentDecode)
	tr.Finish()

	var buf bytes.Buffer
	buf.Write(appendVerdict(nil, 12, want, true, true, tr))
	typ, _, payload, err := ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgVerdictContentTraced {
		t.Fatalf("frame type = 0x%02x", typ)
	}
	got, cached, wt, err := DecodeVerdictOf(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("cached flag lost")
	}
	if got.DecodeChain != want.DecodeChain || got.ViewIndex != want.ViewIndex {
		t.Fatalf("content fields = %+v, want %+v", got, want)
	}
	if wt.ID != tr.ID || wt.Total != tr.Total() {
		t.Fatalf("trace echo id/total mismatch")
	}
	for _, s := range []tracing.Stage{tracing.StageTriage, tracing.StageContentDecode} {
		if wt.Stages[s] != tr.StageDur(s) {
			t.Fatalf("stage %s = %v, want %v", s, wt.Stages[s], tr.StageDur(s))
		}
	}
	for _, s := range []tracing.Stage{tracing.StageQueueWait, tracing.StageDP} {
		if wt.Stages[s] != time.Duration(-1) {
			t.Fatalf("unclosed stage %s = %v, want -1", s, wt.Stages[s])
		}
	}
	if got.TraceID != tr.ID {
		t.Fatal("verdict did not adopt the echoed trace id")
	}
}

// TestVerdictContentRejectsMalformed: truncated or trailing bytes in
// the content extension are rejected, not silently accepted.
func TestVerdictContentRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(appendVerdict(nil, 13, contentVerdict(), false, true, nil))
	_, _, payload, err := ReadFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(payload)-verdictLen; cut++ {
		if _, _, err := DecodeVerdictContent(payload[:len(payload)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	if _, _, err := DecodeVerdictContent(append(payload, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
