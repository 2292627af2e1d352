package mel

import (
	"bytes"
	"testing"
)

// Tests for the melverify model surface: the exported hooks must hold
// their contracts independently of the prover that drives them.

func TestFusedRecordsContract(t *testing.T) {
	e := NewEngine(DAWN())
	if got := e.FusedRecords(nil, nil); len(got) != 0 {
		t.Fatalf("empty stream produced %d records", len(got))
	}
	code := []byte{0x90, 0x66, 0x90, 0xC3}
	recs := e.FusedRecords(code, nil)
	if len(recs) != len(code) {
		t.Fatalf("got %d records for %d bytes", len(recs), len(code))
	}
	for off := range code {
		if got, want := recs[off], e.ReferenceRecord(code, off); got != want {
			t.Fatalf("offset %d: fused %#x != reference %#x", off, got, want)
		}
	}
	// dst reuse must truncate, not retain stale entries.
	recs = e.FusedRecords(code[:2], recs)
	if len(recs) != 2 {
		t.Fatalf("dst reuse: got %d records, want 2", len(recs))
	}
}

func TestReferenceRecordOutOfRange(t *testing.T) {
	e := NewEngine(DAWN())
	code := []byte{0x90}
	for _, off := range []int{-1, 1, 100} {
		r := e.ReferenceRecord(code, off)
		if p := UnpackRecord(r); p.Kind != RecInvalid || p.Len != 0 {
			t.Fatalf("offset %d: got %+v, want invalid/len0", off, p)
		}
	}
}

func TestUnpackRecordFields(t *testing.T) {
	e := NewEngine(DAWN())
	// EB FE: jmp rel8 self-loop — len 2, jump kind, disp -2.
	code := []byte{0xEB, 0xFE}
	p := UnpackRecord(e.ReferenceRecord(code, 0))
	if p.Len != 2 || p.Kind != RecJump || p.Disp != -2 {
		t.Fatalf("EB FE: got %+v (kind %s)", p, p.KindName())
	}
	if !RecordIsBackEdge(e.ReferenceRecord(code, 0)) {
		t.Fatal("EB FE not classified as back edge")
	}
	// EB 00: forward jump, not a back edge.
	fwd := []byte{0xEB, 0x00, 0x90}
	if RecordIsBackEdge(e.ReferenceRecord(fwd, 0)) {
		t.Fatal("EB 00 classified as back edge")
	}
	// C3: ret — end kind.
	if p := UnpackRecord(e.ReferenceRecord([]byte{0xC3}, 0)); p.Kind != RecEnd || p.Len != 1 {
		t.Fatalf("C3: got %+v", p)
	}
}

func TestVerifyScanInvariantsCleanSamples(t *testing.T) {
	engines := []*Engine{
		NewEngine(DAWN()),
		NewEngine(DAWNStateless()),
		NewEngine(APE()),
		NewEngine(Rules{}),
		NewEngineMode(DAWN(), ModeAllPaths),
		NewEngineMode(Rules{}, ModeAllPaths),
	}
	streams := [][]byte{
		{0x90},
		{0x90, 0x90, 0xC3},
		{0xEB, 0xFE},                         // self back edge
		{0x41, 0x42, 0xEB, 0xFC},             // back edge into a run
		{0x74, 0x02, 0x41, 0x42, 0xEB, 0xFA}, // cond + back edge
		{0x66, 0x67, 0x8B, 0x04, 0x05, 0x44, 0x33, 0x22}, // prefix stack
		{0xF3, 0xA4, 0xF2, 0xAE, 0xC3},                   // rep string ops
		bytes.Repeat([]byte{0x00}, 32),
		{0x8B, 0x44, 0x24}, // truncated SIB+disp8
	}
	for _, e := range engines {
		for _, s := range streams {
			if err := e.VerifyScanInvariants(s); err != nil {
				t.Errorf("stream %x: %v", s, err)
			}
		}
	}
}

func TestVerifyScanInvariantsDetectsTamper(t *testing.T) {
	e := NewEngine(DAWN())
	old := e.TamperQuick1ForTest(0x90, uint64(RecSeq)<<4|3)
	defer e.TamperQuick1ForTest(0x90, old)
	if err := e.VerifyScanInvariants([]byte{0x90, 0x90, 0xC3}); err == nil {
		t.Fatal("tampered quick1 slot not detected by scan invariants")
	}
}

func TestAddressTablesAreCopies(t *testing.T) {
	s01, sn1 := AddressTables()
	s01[0] ^= 0xFFFF
	sn1[0] ^= 0xFFFF
	s02, sn2 := AddressTables()
	if s02[0] == s01[0] || sn2[0] == sn1[0] {
		t.Fatal("AddressTables returned aliases of the live tables")
	}
}
