package mel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/encoder"
	"repro/internal/shellcode"
	"repro/internal/stats"
)

func TestTraceValidation(t *testing.T) {
	eng := NewEngine(DAWNStateless())
	if _, err := eng.Trace(nil, 0); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := eng.Trace([]byte{0x90}, 5); err == nil {
		t.Error("out-of-range start should fail")
	}
}

func TestTraceSimpleRun(t *testing.T) {
	eng := NewEngine(DAWNStateless())
	stream := []byte{0x90, 0x90, 0x6C, 0x90} // nop nop insb nop
	steps, err := eng.Trace(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("trace has %d steps, want 3 (2 valid + terminator)", len(steps))
	}
	if !steps[0].Valid || !steps[1].Valid || steps[2].Valid {
		t.Errorf("validity pattern wrong: %+v", steps)
	}
	if steps[2].Inst.Mnemonic() != "ins" {
		t.Errorf("terminator = %s", steps[2].Inst.Mnemonic())
	}
}

func TestTraceMatchesScanMEL(t *testing.T) {
	// The number of valid steps from BestStart equals the reported MEL.
	eng := NewEngine(DAWN())
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Scan(w.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := eng.Trace(w.Bytes, res.BestStart)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, s := range steps {
		if s.Valid {
			valid++
		}
	}
	if valid != res.MEL {
		t.Errorf("trace has %d valid steps, Scan reported MEL %d", valid, res.MEL)
	}
}

func TestTraceFollowsJump(t *testing.T) {
	eng := NewEngine(DAWNStateless())
	stream := []byte{
		0xEB, 0x01, // jmp +1
		0x6C, // skipped insb
		0x90, // nop
	}
	steps, err := eng.Trace(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[1].Inst.Mnemonic() != "nop" {
		t.Errorf("trace: %+v", steps)
	}
}

func TestTraceAllPathsPicksLongerArm(t *testing.T) {
	eng := NewEngineMode(DAWNStateless(), ModeAllPaths)
	stream := []byte{
		0x74, 0x01, // je +1
		0x6C,             // fall-through insb
		0x90, 0x90, 0x90, // taken arm: nops
	}
	steps, err := eng.Trace(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, s := range steps {
		if s.Valid {
			valid++
		}
	}
	if valid != 4 { // je + 3 nops
		t.Errorf("all-paths trace valid steps = %d, want 4", valid)
	}
}

func TestTraceTerminatesOnRet(t *testing.T) {
	eng := NewEngine(DAWNStateless())
	stream := []byte{0x90, 0xC3, 0x90}
	steps, err := eng.Trace(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[1].Inst.Mnemonic() != "ret" || !steps[1].Valid {
		t.Errorf("trace: %+v", steps)
	}
}

func TestTraceCycleBreaks(t *testing.T) {
	eng := NewEngine(DAWNStateless())
	stream := []byte{0xEB, 0xFE} // jmp self
	steps, err := eng.Trace(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Errorf("cycle trace has %d steps", len(steps))
	}
}

func TestFormatTrace(t *testing.T) {
	eng := NewEngine(DAWNStateless())
	stream := []byte{0x90, 0x90, 0x6C}
	steps, err := eng.Trace(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTrace(steps, 0)
	if !strings.Contains(out, "nop") || !strings.Contains(out, "!!") {
		t.Errorf("format:\n%s", out)
	}
	if FormatTrace(nil, 0) != "(empty trace)\n" {
		t.Error("empty trace format")
	}
	// Elision for long traces.
	long := make([]TraceStep, 0, 50)
	for i := 0; i < 50; i++ {
		long = append(long, steps[0])
	}
	out = FormatTrace(long, 10)
	if !strings.Contains(out, "elided") {
		t.Errorf("long format should elide:\n%s", out)
	}
	if strings.Count(out, "\n") > 11 {
		t.Errorf("elided format too long:\n%s", out)
	}
}

// traceListing renders a trace as one line per step: offset, validity
// and disassembly — the form the pins below compare.
func traceListing(t *testing.T, eng *Engine, stream []byte, start int) string {
	t.Helper()
	steps, err := eng.Trace(stream, start)
	if err != nil {
		t.Fatal(err)
	}
	return FormatTrace(steps, 0)
}

// TestTracePinned pins Trace's steps on two shapes its arm choice must
// keep:
//   - backEdge: an all-paths DAWN path that re-enters its own head
//     through a backward jump with ebx defined on one arm, so the head
//     is revisited under a wider mask and the arm choice at each
//     conditional reads memo values computed under both masks;
//   - tie: both arms of a conditional yield the same continuation, and
//     the trace falls through (it takes the branch only when
//     taken > fall).
func TestTracePinned(t *testing.T) {
	backEdge := []byte{
		0x41,       // 0: inc ecx
		0x74, 0x05, // 1: je +5 -> 8
		0x5B,       // 3: pop ebx (defines ebx)
		0x8B, 0x03, // 4: mov eax, [ebx]
		0xEB, 0xF8, // 6: jmp -8 -> 0 (back edge)
		0x8B, 0x0B, // 8: mov ecx, [ebx] (invalid until ebx is defined)
		0x90, // 10: nop
		0x90, // 11: nop
	}
	tie := []byte{
		0x74, 0x02, // 0: je +2 -> 4
		0x90, 0x6C, // 2: nop; insb (invalid)
		0x90, 0x6C, // 4: nop; insb (invalid)
	}
	const tieWant = "" +
		"   000000  je +4\n" +
		"   000002  nop\n" +
		"!! 000003  ins\n"
	for _, tc := range []struct {
		name   string
		rules  Rules
		stream []byte
		want   string
	}{
		{"backEdge", DAWN(), backEdge, "" +
			"   000000  inc ecx\n" +
			"   000001  je +8\n" +
			"   000003  pop ebx\n" +
			"   000004  mov [ebx]\n" +
			"   000006  jmp +0\n" +
			"   000000  inc ecx\n" +
			"   000001  je +8\n" +
			"   000008  mov [ebx]\n" +
			"   00000a  nop\n" +
			"   00000b  nop\n"},
		{"tie/dawn", DAWN(), tie, tieWant},
		{"tie/dawnStateless", DAWNStateless(), tie, tieWant},
	} {
		eng := NewEngineMode(tc.rules, ModeAllPaths)
		if got := traceListing(t, eng, tc.stream, 0); got != tc.want {
			t.Errorf("%s: trace changed:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestTraceDigestPinned pins Trace from each scan's BestStart over
// dense-jump streams (cycles, backward jumps, forks at most offsets) for
// every rule set and mode: the listings are hashed into one digest.
func TestTraceDigestPinned(t *testing.T) {
	h := sha256.New()
	rng := stats.NewRNG(77)
	for trial := 0; trial < 40; trial++ {
		stream := make([]byte, 32+rng.Intn(96))
		for i := range stream {
			switch rng.Intn(5) {
			case 0:
				stream[i] = 0xEB // jmp rel8
			case 1:
				stream[i] = byte(0x70 + rng.Intn(16)) // jcc rel8
			case 2:
				stream[i] = byte(0x58 + rng.Intn(8)) // pop reg
			default:
				stream[i] = byte(rng.Intn(256))
			}
		}
		for sel := uint8(0); sel < 8; sel++ {
			eng := fuzzEngine(sel)
			res, err := eng.Scan(stream)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%d/%d@%d\n%s", trial, sel, res.BestStart, traceListing(t, eng, stream, res.BestStart))
		}
	}
	const want = "bbe85622af323a315b846b0bd0d9ffe3447d7abf621f44191a338cffc7b522d3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("trace digest = %s, want %s", got, want)
	}
}
