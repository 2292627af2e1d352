package mel

import (
	"fmt"
)

// This file is the model surface melverify (internal/lint's
// decoder-equivalence prover) drives. The prover needs both decoder
// models behind exported, allocation-light hooks: the production fused
// record builder (quick1 → segDerive → quick2/expandSIB → spec decoder,
// exactly as buildRecords dispatches) and the specification decoder
// alone (full x86.DecodeInto + packRec — the ScanReference semantics).
// Everything here is off the scan hot path; it exists so the
// equivalence of the table layers with the spec decoder can be proven
// over the enumerated encoding space instead of merely sampled by the
// runtime differential tests.

// FusedRecords compiles every offset of code to its packed record
// through the production fused decoder — the same backward pass the
// scan hot path runs — appending one record per offset to dst[:0] and
// returning it. The backward order matters: it is what lets a
// segment-override prefix derive its record from the successor's final
// record (segDerive), so the returned records are exactly the ones a
// fused scan of code would consume.
func (e *Engine) FusedRecords(code []byte, dst []uint64) []uint64 {
	dst = dst[:0]
	if len(code) == 0 || len(code) > maxStreamLen {
		return dst
	}
	s := acquireState(e, code)
	defer releaseState(s)
	s.ensureRecs()
	s.buildRecords(len(code))
	return append(dst, s.recs[:len(code)]...)
}

// ReferenceRecord compiles the packed record at off through the
// specification decoder: a full x86 decode with the engine's rule set
// applied, reduced by packRec. This is the executable spec the fused
// path must agree with bit-for-bit on every input.
func (e *Engine) ReferenceRecord(code []byte, off int) uint64 {
	if off < 0 || off >= len(code) {
		return recInvalidPacked
	}
	return e.recFullAt(code, off)
}

// RecordParts is a packed record unpacked for reporting and direct
// table-level assertions.
type RecordParts struct {
	// Len is the encoded instruction length (0 for invalid records).
	Len int
	// Kind is the control kind (RecSeq..RecJump).
	Kind uint8
	// NeedRegs is the required-register mask (tracking rules only).
	NeedRegs uint8
	// TrKind and TrArg are the compiled register transition.
	TrKind, TrArg uint8
	// Disp is the relative branch displacement; target = off+Len+Disp.
	Disp int32
	// MemAccess, HasSeg, and Same66 are the derived decode facts the
	// backward prefix derivation (segDerive) reads.
	MemAccess, HasSeg, Same66 bool
}

// Exported control-kind values of a packed record, mirroring the
// engine-internal ctrl* constants.
const (
	RecSeq     = ctrlSeq
	RecInvalid = ctrlInvalid
	RecEnd     = ctrlEnd
	RecCond    = ctrlCond
	RecJump    = ctrlJump
)

// UnpackRecord splits a packed record into its fields.
func UnpackRecord(r uint64) RecordParts {
	return RecordParts{
		Len:       int(r & recLenMask),
		Kind:      uint8(r>>recKindShift) & 7,
		NeedRegs:  uint8(r >> recNeedShift),
		TrKind:    uint8(r>>recTrKindShift) & 3,
		TrArg:     uint8(r >> recTrArgShift),
		Disp:      int32(r >> recDispShift),
		MemAccess: r&recMemAcc != 0,
		HasSeg:    r&recHasSeg != 0,
		Same66:    r&rec66Same != 0,
	}
}

// KindName renders the control kind for diagnostics.
func (p RecordParts) KindName() string {
	switch p.Kind {
	case RecSeq:
		return "seq"
	case RecInvalid:
		return "invalid"
	case RecEnd:
		return "end"
	case RecCond:
		return "cond"
	case RecJump:
		return "jump"
	}
	return fmt.Sprintf("kind%d", p.Kind)
}

// RecordIsBackEdge reports whether a packed record is a backward (or
// self-targeting) unconditional transfer — the class that decides
// whether the suffix-run DP sweep applies.
func RecordIsBackEdge(r uint64) bool {
	return backEdgeRec(r)
}

// AddrDispOnly is the disp-only layout bit of the address-form tables
// returned by AddressTables, mirroring the engine-internal miDispOnly.
const AddrDispOnly = miDispOnly

// AddressTables returns copies of the global SIB address-form tables
// expandSIB loads from. They encode the ISA, not any rule set;
// melverify cross-checks them against both an independent spec
// derivation and the abstractly interpreted source of their
// constructor.
func AddressTables() (sib0, sibN [256]uint16) {
	return sibTab0, sibTabN
}

// VerifyScanInvariants scans code through the fused single-pass core
// and cross-checks its internal invariants against the specification
// decoder:
//
//   - every record the fused pass consumed is bit-identical to the
//     spec decoder's record for that offset (so the DP never acts on a
//     record the prover did not derive);
//   - the backward builder (buildRecords, which the all-paths mode
//     runs) agrees with both, and its back-edge count matches a direct
//     tally over the records;
//   - the scan's result — including the chain-walk fallback after a
//     back edge — equals ScanReference, down to the explored-state
//     count.
//
// A nil error means every invariant held. Not a hot path: it is the
// melverify backstop that runs over witness corpora and structured
// streams at `make verify` time.
func (e *Engine) VerifyScanInvariants(code []byte) error {
	n := len(code)
	if n == 0 || n > maxStreamLen {
		return nil
	}
	// Specification records at every offset.
	ref := make([]uint64, n)
	for off := range code {
		ref[off] = e.recFullAt(code, off)
	}
	wantBE := countBackEdges(ref)

	s2 := acquireState(e, code)
	defer releaseState(s2)
	s2.ensureRecs()
	gotBE := s2.buildRecords(n)
	for off := range code {
		if s2.recs[off] != ref[off] {
			return recordDivergence("buildRecords", code, off, s2.recs[off], ref[off])
		}
	}
	if gotBE != wantBE {
		return fmt.Errorf("mel: buildRecords counted %d back edges, direct tally %d (stream %x)",
			gotBE, wantBE, clip(code))
	}

	// Fused single pass — the production path, including the chain-walk
	// fallback when a back edge voids the suffix order.
	if e.mode != ModeAllPaths {
		s1 := acquireState(e, code)
		defer releaseState(s1)
		s1.ensureRecs()
		s1.scanTraced(nil)
		for off := range code {
			if s1.recs[off] != ref[off] {
				return recordDivergence("scanFused", code, off, s1.recs[off], ref[off])
			}
		}
		if s1.backEdges != wantBE {
			return fmt.Errorf("mel: scanFused counted %d back edges, direct tally %d (stream %x)",
				s1.backEdges, wantBE, clip(code))
		}
	}

	// The retained reference engine must agree with the optimized scan
	// on the full Result, state counts included.
	got, gotErr := e.Scan(code)
	want, wantErr := e.ScanReference(code)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("mel: Scan err=%v, ScanReference err=%v (stream %x)", gotErr, wantErr, clip(code))
	}
	if got != want {
		return fmt.Errorf("mel: Scan=%+v diverges from ScanReference=%+v on stream %x", got, want, clip(code))
	}
	return nil
}

// recordDivergence renders one record mismatch with enough context to
// reproduce it: the full stream (clipped), the offset, and both records
// unpacked.
func recordDivergence(pass string, code []byte, off int, got, want uint64) error {
	return fmt.Errorf("mel: %s record at offset %d of stream %x: fused %#016x (%+v) != spec %#016x (%+v)",
		pass, off, clip(code), got, UnpackRecord(got), want, UnpackRecord(want))
}

// clip bounds the stream bytes rendered into error messages.
func clip(code []byte) []byte {
	const maxShow = 64
	if len(code) <= maxShow {
		return code
	}
	return code[:maxShow]
}

// TamperQuick1ForTest overwrites one quick1 slot and returns the old
// value — seeded-mutation support for melverify's detection tests,
// which must prove a corrupted table produces a concrete witness. Not
// for production use: the engine's tables are compiled once and shared.
func (e *Engine) TamperQuick1ForTest(b byte, rec uint64) (old uint64) {
	old = e.quick1[b]
	e.quick1[b] = rec
	return old
}

// TamperQuick2ForTest is TamperQuick1ForTest for the two-byte table.
func (e *Engine) TamperQuick2ForTest(b0, b1 byte, rec uint32) (old uint32) {
	old = e.quick2[b0][b1]
	e.quick2[b0][b1] = rec
	return old
}
