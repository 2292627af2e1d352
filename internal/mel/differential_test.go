package mel

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/shellcode"
	"repro/internal/stats"
	"repro/internal/x86"
)

// The optimized engine (flat memoization, packed records, the fused
// pass and its chain walk) must return results byte-identical to the retained
// reference implementation in reference.go — not merely the same MEL,
// but the same BestStart and States, which pin down traversal order.

// diffRules enumerates the rule sets the engines must agree under. Each
// rule set runs all three walkers of the scan core: the fused pass and
// its chain walk in sequential mode (the walk on divergent register
// masks, which only the tracked sets produce, and after a back edge),
// and the memoized DFS in all-paths mode.
func diffRules() map[string]Rules {
	return map[string]Rules{
		"dawn":          DAWN(),
		"dawnStateless": DAWNStateless(),
		"ape":           APE(),
		"empty":         {},
	}
}

func diffModes() map[string]Mode {
	return map[string]Mode{"seq": ModeSequential, "all": ModeAllPaths}
}

// assertScanEqual scans stream with both implementations under every
// rules × mode combination and fails on any divergence.
func assertScanEqual(t *testing.T, label string, stream []byte) {
	t.Helper()
	for rn, rules := range diffRules() {
		for mn, mode := range diffModes() {
			eng := NewEngineMode(rules, mode)
			got, errG := eng.Scan(stream)
			want, errW := eng.ScanReference(stream)
			if (errG == nil) != (errW == nil) {
				t.Fatalf("%s [%s/%s]: error mismatch: Scan=%v Reference=%v",
					label, rn, mn, errG, errW)
			}
			if errG != nil {
				continue
			}
			if got != want {
				t.Fatalf("%s [%s/%s]: Scan=%+v Reference=%+v",
					label, rn, mn, got, want)
			}
		}
	}
}

// TestDifferentialBenignCorpus: identical results across the generated
// benign evaluation corpus (text, HTTP, email, URL cases).
func TestDifferentialBenignCorpus(t *testing.T) {
	cases, err := corpus.Dataset(99, 24, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		assertScanEqual(t, fmt.Sprintf("benign[%d]", i), c.Data)
	}
}

// TestDifferentialWorms: identical results on adversarial inputs — the
// encoder's generated text worms and the handcrafted worm shapes, which
// exercise backward jumps, register transitions, and dense valid runs.
func TestDifferentialWorms(t *testing.T) {
	var streams [][]byte
	for seed := uint64(1); seed <= 4; seed++ {
		w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, w.Bytes)
	}
	streams = append(streams,
		shellcode.SledWorm(400).Code,
		shellcode.RegisterSpringWorm(0x8048000, 0x7F).Code)
	for _, sc := range shellcode.Corpus() {
		streams = append(streams, sc.Code)
	}
	for i, b := range streams {
		assertScanEqual(t, fmt.Sprintf("worm[%d]", i), b)
	}
}

// TestDifferentialWormInText: a worm embedded mid-stream in benign text,
// the detector's actual positive case.
func TestDifferentialWormInText(t *testing.T) {
	cases, err := corpus.Dataset(7, 2, 1500)
	if err != nil {
		t.Fatal(err)
	}
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		mixed := append(append(append([]byte{}, c.Data[:700]...), w.Bytes...), c.Data[700:]...)
		assertScanEqual(t, fmt.Sprintf("mixed[%d]", i), mixed)
	}
}

// TestDifferentialFuzz: identical results on unconstrained random bytes
// (quick.Check generated), which hit undecodable runs, truncation at the
// stream tail, and arbitrary control flow.
func TestDifferentialFuzz(t *testing.T) {
	for rn, rules := range diffRules() {
		for mn, mode := range diffModes() {
			eng := NewEngineMode(rules, mode)
			f := func(raw []byte) bool {
				if len(raw) == 0 {
					return true
				}
				got, err := eng.Scan(raw)
				if err != nil {
					return false
				}
				want, err := eng.ScanReference(raw)
				if err != nil {
					return false
				}
				return got == want
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Errorf("[%s/%s]: %v", rn, mn, err)
			}
		}
	}
}

// TestDifferentialDenseJumps: streams biased toward short relative jumps
// and branches, maximizing cycles and cross-offset memo sharing — the
// cases where traversal order affects memoized values.
func TestDifferentialDenseJumps(t *testing.T) {
	rng := stats.NewRNG(41)
	for trial := 0; trial < 60; trial++ {
		stream := make([]byte, 48+rng.Intn(80))
		for i := range stream {
			switch rng.Intn(4) {
			case 0:
				stream[i] = 0xEB // jmp rel8
			case 1:
				stream[i] = byte(0x70 + rng.Intn(16)) // jcc rel8
			default:
				stream[i] = byte(rng.Intn(256))
			}
		}
		assertScanEqual(t, fmt.Sprintf("jumps[%d]", trial), stream)
	}
}

// TestDifferentialScanFrom: the single-offset entry point agrees with its
// reference at every offset.
func TestDifferentialScanFrom(t *testing.T) {
	cases, err := corpus.Dataset(13, 4, 160)
	if err != nil {
		t.Fatal(err)
	}
	for rn, rules := range diffRules() {
		for mn, mode := range diffModes() {
			eng := NewEngineMode(rules, mode)
			for ci, c := range cases {
				for off := range c.Data {
					got, errG := eng.ScanFrom(c.Data, off)
					want, errW := eng.ScanFromReference(c.Data, off)
					if errG != nil || errW != nil {
						t.Fatalf("[%s/%s] case %d off %d: errors %v / %v",
							rn, mn, ci, off, errG, errW)
					}
					if got != want {
						t.Fatalf("[%s/%s] case %d off %d: ScanFrom=%d Reference=%d",
							rn, mn, ci, off, got, want)
					}
				}
			}
		}
	}
}

// TestDifferentialVerdicts: MEL equality implies threshold-verdict
// equality, but check end to end on a realistic mix anyway — worm
// streams must flag identically under both engines.
func TestDifferentialVerdicts(t *testing.T) {
	eng := NewEngine(DAWN())
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cases, err := corpus.Dataset(55, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 30 // a DAWN-calibrated threshold magnitude for 1 KB text
	streams := [][]byte{w.Bytes}
	for _, c := range cases {
		streams = append(streams, c.Data)
	}
	for i, b := range streams {
		got, err := eng.Scan(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.ScanReference(b)
		if err != nil {
			t.Fatal(err)
		}
		if (got.MEL >= tau) != (want.MEL >= tau) {
			t.Fatalf("stream %d: verdict diverges: Scan MEL=%d Reference MEL=%d",
				i, got.MEL, want.MEL)
		}
	}
}

// TestTransitionCompilation: the compiled (kind, arg) transition replayed
// by applyTrans must equal apply for every decodable instruction at every
// mask — this is the correctness backbone of the record-based explorer.
func TestTransitionCompilation(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		inst, err := x86.Decode(raw, 0)
		if err != nil {
			return true
		}
		kind, arg := transitionOf(&inst)
		for m := 0; m < 256; m++ {
			if applyTrans(kind, arg, regMask(m)) != apply(&inst, regMask(m)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
