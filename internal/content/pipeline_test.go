package content

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

func newTestPipeline(t *testing.T, cfg PipelineConfig) (*Pipeline, *core.Detector) {
	t.Helper()
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(det.ScanTraced, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, det
}

// hostCase returns one benign corpus case.
func hostCase(t *testing.T, seed uint64) []byte {
	t.Helper()
	cases, err := corpus.Dataset(seed, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return cases[0].Data
}

func testWorm(t *testing.T, seed uint64) *encoder.Worm {
	t.Helper()
	w, err := encoder.Encode(make([]byte, 64), encoder.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPipelineClearsBenign: a benign text case is cleared by triage —
// no MEL pass, TriageCleared set, low score.
func TestPipelineClearsBenign(t *testing.T) {
	scans := 0
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	counting := func(b []byte, tr *tracing.Trace) (core.Verdict, error) {
		scans++
		return det.ScanTraced(b, tr)
	}
	p, err := NewPipeline(counting, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Scan(hostCase(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !v.TriageCleared || v.Malicious {
		t.Fatalf("verdict = %+v, want cleared benign", v)
	}
	if scans != 0 {
		t.Fatalf("MEL pass ran %d times on a cleared payload", scans)
	}
	if v.TriageScore >= 0.5 {
		t.Fatalf("cleared score = %.3f", v.TriageScore)
	}
}

// TestPipelineCatchesRawWorm: an unwrapped worm window is flagged on
// the raw pass with ViewIndex 0 and no decode chain.
func TestPipelineCatchesRawWorm(t *testing.T) {
	p, _ := newTestPipeline(t, PipelineConfig{})
	w := testWorm(t, 5)
	v, err := p.Scan(wormWindow(hostCase(t, 5), w.Bytes))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Malicious {
		t.Fatal("raw worm window not flagged")
	}
	if v.ViewIndex != 0 || v.DecodeChain != "" {
		t.Fatalf("raw hit has ViewIndex=%d chain=%q", v.ViewIndex, v.DecodeChain)
	}
	if v.TriageCleared {
		t.Fatal("malicious verdict marked cleared")
	}
}

// TestPipelineCatchesWrappedWorm is the tentpole property: a worm
// window behind every encoding layer is still flagged. For layers that
// hide the worm from a raw scan entirely (gzip makes it binary, base64
// rewrites every byte), the verdict must come from a decoded view with
// the chain recorded; layers that leave worm bytes intact (chunked
// framing, qp/percent/utf8 pass-through of printable ASCII) may flag
// on the raw pass instead — either way nothing slips through.
func TestPipelineCatchesWrappedWorm(t *testing.T) {
	p, det := newTestPipeline(t, PipelineConfig{})
	w := testWorm(t, 9)
	window := wormWindow(hostCase(t, 9), w.Bytes)
	hiding := map[string]bool{"gzip": true, "base64": true, "gzip>base64": true, "chunked>gzip": true}
	for _, chainStr := range []string{"gzip", "base64", "chunked", "qp", "percent", "utf8", "gzip>base64", "chunked>gzip"} {
		chain := mustChain(t, chainStr)
		wrapped, err := EncodeChain(chain, window)
		if err != nil {
			t.Fatalf("%s: %v", chainStr, err)
		}
		v, err := p.Scan(wrapped)
		if err != nil {
			t.Fatalf("%s: %v", chainStr, err)
		}
		if !v.Malicious {
			t.Fatalf("%s: wrapped worm not detected", chainStr)
		}
		if !hiding[chainStr] {
			continue
		}
		// Premise for gzip-outermost wrappers: the raw bytes really do
		// scan clean, so detection had to come through the decoder.
		if chain.At(0) == KindGzip {
			if raw, err := det.Scan(wrapped); err == nil && raw.Malicious {
				t.Fatalf("%s: wrapped worm flagged by the raw scan; wrapper is not hiding it", chainStr)
			}
		}
		if v.DecodeChain != chainStr {
			t.Fatalf("chain = %q, want %q", v.DecodeChain, chainStr)
		}
		if v.ViewIndex < 1 {
			t.Fatalf("%s: ViewIndex = %d", chainStr, v.ViewIndex)
		}
	}
}

// TestPipelineDifferentialVerdict pins that the verdict found through
// a wrapper matches the raw bytes' verdict exactly (same MEL, same
// BestStart): decoding is transparent to the model.
func TestPipelineDifferentialVerdict(t *testing.T) {
	p, det := newTestPipeline(t, PipelineConfig{})
	for seed := uint64(0); seed < 8; seed++ {
		w := testWorm(t, seed)
		window := wormWindow(hostCase(t, seed), w.Bytes)
		want, err := det.Scan(window)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Malicious {
			t.Fatalf("seed %d: raw window not malicious; test premise broken", seed)
		}
		for _, chainStr := range []string{"gzip", "base64"} {
			wrapped, err := EncodeChain(mustChain(t, chainStr), window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Scan(wrapped)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Malicious || got.MEL != want.MEL || got.BestStart != want.BestStart {
				t.Errorf("seed %d %s: got (mal=%v mel=%d start=%d), raw (mel=%d start=%d)",
					seed, chainStr, got.Malicious, got.MEL, got.BestStart, want.MEL, want.BestStart)
			}
		}
	}
}

// TestPipelineTraceAndTelemetry: stage spans and counters land. The
// pipeline leaves the trace's verdict fields to the serving pool
// (TestPoolTraceMatchesVerdict pins those).
func TestPipelineTraceAndTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(det.ScanTraced, PipelineConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	w := testWorm(t, 2)
	wrapped, err := EncodeChain(mustChain(t, "gzip"), wormWindow(hostCase(t, 2), w.Bytes))
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.New(tracing.TraceID{}, len(wrapped))
	v, err := p.ScanTraced(wrapped, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if !v.Malicious || v.DecodeChain != "gzip" {
		t.Fatalf("verdict = %+v", v)
	}
	if tr.StageDur(tracing.StageTriage) < 0 {
		t.Error("triage stage never closed")
	}
	if tr.StageDur(tracing.StageContentDecode) < 0 {
		t.Error("content_decode stage never closed")
	}

	// A cleared benign scan bumps the cleared counter.
	if _, err := p.Scan(hostCase(t, 3)); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"content_scans_total":          2,
		"content_triage_cleared_total": 1,
		"content_view_malicious_total": 1,
	} {
		if got, ok := reg.Value(name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	if got, ok := reg.Value("content_views_scanned_total"); !ok || got < 1 {
		t.Errorf("content_views_scanned_total = %v", got)
	}
}

// TestPipelineBudgetTrip: a zip bomb doesn't error the scan; the trip
// is counted and the raw verdict stands.
func TestPipelineBudgetTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(det.ScanTraced, PipelineConfig{
		Decoder:  DecoderConfig{MaxOutput: 2048},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	bomb := EncodeGzip(make([]byte, 1<<20))
	v, err := p.Scan(bomb)
	if err != nil {
		t.Fatal(err)
	}
	if v.Malicious {
		t.Fatal("bomb flagged malicious")
	}
	if trips, _ := reg.Value("content_decode_budget_total"); trips != 1 {
		t.Fatalf("content_decode_budget_total = %v", trips)
	}
}

// TestNewPipelineValidation: constructor rejects bad inputs.
func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(nil, PipelineConfig{}); err == nil {
		t.Fatal("nil scan accepted")
	}
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(det.ScanTraced, PipelineConfig{Decoder: DecoderConfig{MaxDepth: 99}}); err == nil {
		t.Fatal("bad decoder config accepted")
	}
}
