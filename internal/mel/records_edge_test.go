package mel

import "testing"

// Direct table-level tests for the backward prefix derivation
// (segDerive / rec66Same) and the SIB completion (expandSIB) — the
// two fused-path mechanisms with no one-to-one reference counterpart,
// pinned here at the unit level in addition to melverify's end-to-end
// enumeration.

func seqRec(length int, flags uint64) uint64 {
	return uint64(ctrlSeq)<<recKindShift | uint64(length) | flags
}

func TestSegDeriveOperandSize(t *testing.T) {
	var noWrong [8]bool

	// 0x66 over a record whose encoding depends on operand size (no
	// rec66Same) is underivable: it must be re-decoded for real.
	if _, ok := segDerive(seqRec(5, 0), segOpSize, &noWrong); ok {
		t.Error("66 over a non-rec66Same record derived instead of re-decoding")
	}
	// Same for an invalid suffix: a shortened immediate could revive it.
	if _, ok := segDerive(recInvalidPacked, segOpSize, &noWrong); ok {
		t.Error("66 over an invalid record derived instead of re-decoding")
	}
	// 0x66 over a size-invariant record extends it by the prefix byte
	// and stays derivable (idempotent 66: the flag survives).
	r, ok := segDerive(seqRec(1, rec66Same), segOpSize, &noWrong)
	if !ok || r&recLenMask != 2 || r&rec66Same == 0 {
		t.Fatalf("66 over rec66Same len-1: got %#x ok=%v", r, ok)
	}
	r2, ok := segDerive(r, segOpSize, &noWrong)
	if !ok || r2&recLenMask != 3 {
		t.Fatalf("stacked 66 66: got %#x ok=%v", r2, ok)
	}
	// A 15-byte size-invariant suffix overflows the architectural
	// length limit under one more prefix.
	if r, ok := segDerive(seqRec(15, rec66Same), segOpSize, &noWrong); !ok || r != recInvalidPacked {
		t.Fatalf("66 over len-15: got %#x ok=%v, want invalid", r, ok)
	}
}

func TestSegDeriveSegmentOverride(t *testing.T) {
	var wrong [8]bool
	const sp = 2 // any real segment index; segDerive only reads wrongSeg[sp]

	// Invalid and max-length suffixes stay invalid under any prefix.
	if r, ok := segDerive(recInvalidPacked, sp, &wrong); !ok || r != recInvalidPacked {
		t.Fatalf("seg over invalid: got %#x ok=%v", r, ok)
	}
	if r, ok := segDerive(seqRec(15, 0), sp, &wrong); !ok || r != recInvalidPacked {
		t.Fatalf("seg over len-15: got %#x ok=%v", r, ok)
	}
	// A neutral prefix (lock/rep) adds its byte without claiming the
	// segment slot.
	if r, ok := segDerive(seqRec(2, recMemAcc), segNeutral, &wrong); !ok || r != seqRec(3, recMemAcc) {
		t.Fatalf("neutral prefix: got %#x ok=%v", r, ok)
	}
	// The innermost (last in byte order) override wins: a suffix that
	// already carries one ignores the outer prefix — even a wrong one.
	wrong[sp] = true
	pre := seqRec(2, recMemAcc|recHasSeg)
	if r, ok := segDerive(pre, sp, &wrong); !ok || r != pre+1 {
		t.Fatalf("seg over seg: got %#x ok=%v, want %#x", r, ok, pre+1)
	}
	// A wrong segment over a memory access invalidates; without memory
	// access it merely claims the slot.
	if r, ok := segDerive(seqRec(2, recMemAcc), sp, &wrong); !ok || r != recInvalidPacked {
		t.Fatalf("wrong seg over memAcc: got %#x ok=%v, want invalid", r, ok)
	}
	if r, ok := segDerive(seqRec(2, 0), sp, &wrong); !ok || r != seqRec(3, recHasSeg) {
		t.Fatalf("wrong seg over non-mem: got %#x ok=%v", r, ok)
	}
	// An accepted segment claims the slot over a memory access.
	wrong[sp] = false
	if r, ok := segDerive(seqRec(2, recMemAcc), sp, &wrong); !ok || r != seqRec(3, recMemAcc|recHasSeg) {
		t.Fatalf("right seg over memAcc: got %#x ok=%v", r, ok)
	}
}

// Reference records must carry the rec66Same classification the
// derivation relies on: set for size-invariant encodings, clear when
// 0x66 changes the immediate width.
func TestRec66SameClassification(t *testing.T) {
	e := NewEngine(Rules{})
	if p := UnpackRecord(e.ReferenceRecord([]byte{0x90}, 0)); !p.Same66 {
		t.Error("NOP not marked size-invariant")
	}
	imm32 := []byte{0xB8, 0x11, 0x22, 0x33, 0x44}
	if p := UnpackRecord(e.ReferenceRecord(imm32, 0)); p.Same66 {
		t.Error("mov eax, imm32 marked size-invariant; 66 shortens its immediate")
	}
	// And the derived lengths agree: 66 B8 takes an imm16.
	if p := UnpackRecord(e.ReferenceRecord(append([]byte{0x66}, imm32...), 0)); p.Len != 4 {
		t.Errorf("66 B8 imm16: len %d, want 4", p.Len)
	}
}

func TestExpandSIBEdges(t *testing.T) {
	// Partial quick2 record for a 3-byte SIB form (opcode+modrm+sib),
	// the shape compileSIBPartial emits before expansion.
	base := quickSIB | uint64(ctrlSeq)<<recKindShift | 3

	// Truncation at the SIB byte itself.
	if r := expandSIB(base, []byte{0x8B, 0x04}, 0, 2); r != recInvalidPacked {
		t.Errorf("cut before SIB byte: got %#x, want invalid", r)
	}
	// mod=0, base=5: SIB demands a disp32 the stream cannot hold.
	code := []byte{0x8B, 0x04, 0x25, 0x44, 0x33, 0x22}
	if r := expandSIB(base, code, 0, len(code)); r != recInvalidPacked {
		t.Errorf("cut inside SIB disp32: got %#x, want invalid", r)
	}
	// With the disp32 present the form is 7 bytes and disp-only.
	code = append(code, 0x11)
	if r := expandSIB(base, code, 0, len(code)); r&recLenMask != 7 {
		t.Errorf("mod0 base5 disp32: len %d, want 7", r&recLenMask)
	}
	// Under InvalidateExplicitAddr (sibExplInv) the disp-only absolute
	// form is invalid; an indexed form with the same base byte is not.
	if r := expandSIB(base|sibExplInv, code, 0, len(code)); r != recInvalidPacked {
		t.Errorf("explicit absolute under sibExplInv: got %#x, want invalid", r)
	}
	indexed := []byte{0x8B, 0x04, 0x0D, 0x44, 0x33, 0x22, 0x11} // index=ecx, base=5
	if r := expandSIB(base|sibExplInv, indexed, 0, len(indexed)); r == recInvalidPacked {
		t.Error("indexed base5 form wrongly invalidated by sibExplInv")
	}
	// Register folding: base and index both land in needRegs.
	r := expandSIB(base|sibNeedRegs, []byte{0x8B, 0x04, 0x18, 0x90}, 0, 4) // [eax+ebx]
	if nr := uint8(r >> recNeedShift); nr != 0x09 {
		t.Errorf("sib 0x18 needRegs: got %#04b..., want eax|ebx (0x09): %#x", nr, nr)
	}
	// index=4 means no index: only the base register folds.
	r = expandSIB(base|sibNeedRegs, []byte{0x8B, 0x04, 0x24, 0x90}, 0, 4) // [esp]
	if nr := uint8(r >> recNeedShift); nr != 0x10 {
		t.Errorf("sib 0x24 needRegs: got %#x, want esp (0x10)", nr)
	}
	// The expansion must strip its marker bits from the final record.
	if r&(quickSIB|sibNeedRegs|sibExplInv) != 0 {
		t.Errorf("marker bits survived expansion: %#x", r)
	}
}

// The SIB address-form tables the expansion loads from, pinned by hand
// against the 32-bit SIB definition.
func TestAddressTableEntries(t *testing.T) {
	cases := []struct {
		name string
		tab  *[256]uint16
		idx  int
		want uint16
	}{
		{"sib0 [esp]", &sibTab0, 0x24, 0x05},
		{"sib0 disp32 no base no index", &sibTab0, 0x25, 4<<8 | miDispOnly},
		{"sib0 [ecx*1]+disp32", &sibTab0, 0x0D, 4<<8 | 2<<4},
		{"sibN [ebp]", &sibTabN, 0x25, 0x06},
		{"sibN [eax+ebx]", &sibTabN, 0x18, 4<<4 | 1},
	}
	for _, tc := range cases {
		if got := tc.tab[tc.idx]; got != tc.want {
			t.Errorf("%s (index %#02x): got %#x, want %#x", tc.name, tc.idx, got, tc.want)
		}
	}
}
