package mel

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/telemetry/tracing"
)

// fuzzEngines caches compiled engines per (rules, mode) so each fuzz
// execution pays table compilation once per process, not per input.
var fuzzEngines sync.Map

func fuzzEngine(sel uint8) *Engine {
	if e, ok := fuzzEngines.Load(sel); ok {
		return e.(*Engine)
	}
	rules := [...]Rules{DAWN(), DAWNStateless(), APE(), {}}[sel&3]
	mode := ModeSequential
	if sel&4 != 0 {
		mode = ModeAllPaths
	}
	e, _ := fuzzEngines.LoadOrStore(sel, NewEngineMode(rules, mode))
	return e.(*Engine)
}

// FuzzScanDifferential holds the optimized scan to the retained naive
// implementation on arbitrary streams: Result{MEL, BestStart, States}
// must be byte-identical, with and without a trace attached (the
// sequential modes then time the fused pass as the DP stage and leave
// the decode stage unset). ScanFrom is held to ScanFromReference at
// the first, middle and last offset under all eight engines, so its
// on-demand records meet back edges and cycles, not just text.
func FuzzScanDifferential(f *testing.F) {
	f.Add([]byte("The quick brown fox jumps over the lazy dog 1234567890"), uint8(0))
	// Sled-like run of single-byte instructions ending in a short jump.
	f.Add(bytes.Repeat([]byte{0x41}, 300), uint8(0))
	f.Add(append(bytes.Repeat([]byte{0x47}, 120), 0xEB, 0x10, 0x90, 0x90), uint8(1))
	// Prefix/escape soup around the fused decoder's fallback forms.
	f.Add([]byte{0x66, 0x67, 0x0F, 0x2E, 0x64, 0x65, 0x38, 0x3A, 0x8D,
		0xFF, 0xF6, 0xF7, 0xE8, 0x74, 0x05, 0x66, 0xF7, 0xC0, 0x01, 0x00}, uint8(2))
	// Backward jump: voids the suffix order, exercising the fallback.
	f.Add(append(bytes.Repeat([]byte{0x42}, 64), 0xEB, 0xF0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		if len(data) == 0 || len(data) > 4096 {
			t.Skip()
		}
		e := fuzzEngine(sel & 7)
		got, gotErr := e.Scan(data)
		want, wantErr := e.ScanReference(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error mismatch: Scan=%v ScanReference=%v", gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("Scan=%+v ScanReference=%+v (len %d)", got, want, len(data))
		}
		tr := tracing.New(tracing.TraceID{}, len(data))
		if traced, err := e.ScanTraced(data, tr); err != nil || traced != want {
			t.Fatalf("ScanTraced=%+v (%v) ScanReference=%+v", traced, err, want)
		}
		if tr.StageDur(tracing.StageDP) < 0 {
			t.Fatal("traced scan left the DP stage unset")
		}
		if fused := e.mode != ModeAllPaths; fused != (tr.StageDur(tracing.StageDecode) < 0) {
			t.Fatalf("fused=%v but decode stage = %v", fused, tr.StageDur(tracing.StageDecode))
		}
		for s := uint8(0); s < 8; s++ {
			fe := fuzzEngine(s)
			for _, off := range [...]int{0, len(data) / 2, len(data) - 1} {
				got, errG := fe.ScanFrom(data, off)
				want, errW := fe.ScanFromReference(data, off)
				if errG != nil || errW != nil || got != want {
					t.Fatalf("engine %d off %d: ScanFrom=%d (%v) ScanFromReference=%d (%v)",
						s, off, got, errG, want, errW)
				}
			}
		}
	})
}
