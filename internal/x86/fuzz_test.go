package x86

import (
	"errors"
	"testing"
)

// FuzzDecode drives the decoder with arbitrary byte strings: it must
// never panic, always report a length within the architectural bounds,
// and be self-consistent when re-invoked. Run with
// `go test -fuzz=FuzzDecode ./internal/x86` for continuous fuzzing; the
// seed corpus runs on every ordinary `go test`.
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{
		{0x90},
		{0x31, 0xC0},
		{0xE8, 0x01, 0x00, 0x00, 0x00},
		{0x0F, 0x84, 0x00, 0x01, 0x00, 0x00},
		{0x66, 0x67, 0xF0, 0x8B, 0x44, 0x24, 0x10},
		{0xF6, 0x00, 0x7F},
		{0xC8, 0x10, 0x00, 0x01},
		{0x0F, 0xBA, 0xE0, 0x05},
		{0x62, 0xC0},
		[]byte("GET /index.html HTTP/1.1"),
		{0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x90},
		{0x66, 0x2D, 0x01, 0x02},       // sub ax, imm16: 0x66 shortens Iz
		{0x0F, 0xAF, 0x44, 0x24, 0x08}, // imul eax, [esp+8]: 0F map, ModRM, SIB
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		inst, err := Decode(data, 0)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTooManyPrefixes) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if inst.Len < 1 || inst.Len > MaxInstLen || inst.Len > len(data) {
			t.Fatalf("bad length %d for % x", inst.Len, data[:minInt(len(data), 16)])
		}
		// Deterministic.
		again, err2 := Decode(data, 0)
		if err2 != nil || again != inst {
			t.Fatalf("non-deterministic decode of % x", data[:minInt(len(data), 16)])
		}
		// Rendering must not panic and must be non-empty.
		if inst.String() == "" || inst.Mnemonic() == "" {
			t.Fatal("empty rendering")
		}
		// Linear sweep over the whole input must terminate.
		insts := DecodeAll(data)
		var covered int
		for i := range insts {
			covered += insts[i].Len
		}
		if covered > len(data) {
			t.Fatalf("linear sweep covered %d of %d bytes", covered, len(data))
		}
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
