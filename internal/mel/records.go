package mel

import (
	"repro/internal/x86"
)

// This file is the decode half of the anchored single-pass scan core:
// every stream offset is reduced, in one backward pass (the fused
// pass's own loop in scanFused, or buildRecords), to a packed 64-bit
// record holding exactly what the walks over execution chains need
// — encoded length, control kind, required registers, the compiled
// register transition, and the branch displacement.
//
// Every record comes from one of three places: a quick-table entry
// compiled from the spec decoder (quick1, quick2, and the quick2 SIB
// partials), an arithmetic derivation (segDerive over the successor's
// record, expandSIB over a partial), or the spec decoder itself
// (recFullAt: x86.DecodeInto + packRec), which serves every offset the
// tables and derivations leave unresolved. The tables are compiled
// once per engine against per-engine meta words that fold the engine's
// invalidity rules into the x86 package's table export. The exact
// decode the paper's α bound rests on is thus a property of one
// decoder; records_test.go and melverify hold the table layers to it
// bit for bit.

// Packed record layout (uint64):
//
//	bits  0-3   encoded instruction length (0 for invalid records)
//	bits  4-6   control kind (ctrlSeq..ctrlJump)
//	bits  8-15  required-register mask (needRegs)
//	bits 16-17  register-transition kind (transNone..transSwap)
//	bits 24-31  register-transition argument
//	bits 32-63  int32 branch displacement; target = off + len + disp
const (
	recLenMask     = 0xF
	recKindShift   = 4
	recNeedShift   = 8
	recTrKindShift = 16
	recTrArgShift  = 24
	recDispShift   = 32
)

// recInvalidPacked is the canonical record for an undecodable or
// rule-invalid offset: kind ctrlInvalid, every other field zero.
const recInvalidPacked = uint64(ctrlInvalid) << recKindShift

// quickRel8 marks a quick1 entry whose record needs the rel8
// displacement byte patched in; quickJmp8 additionally marks the
// unconditional rel8 jump, whose displacement decides back-edge
// tracking. Both bits are unused in packed records (bit 7 pads the
// needRegs byte, bit 18 pads the transition kind) and are stripped
// before the record is stored.
const (
	quickRel8 = uint64(1) << 7
	quickJmp8 = uint64(1) << 18
)

// Derived decode facts, set on every valid record by every producer:
// whether the instruction accesses memory, whether it carries a
// segment-override prefix, and whether its encoding is identical under
// both operand sizes (equal immediate widths, or a 0x66 prefix already
// present — another 0x66 is then idempotent). The DP never reads them;
// the backward record builders use them to derive a prefixed record
// from its successor's final record (segDerive) without re-decoding
// the suffix. Bits 19-21 pad the transition-kind byte.
const (
	recMemAcc = uint64(1) << 19
	recHasSeg = uint64(1) << 20
	rec66Same = uint64(1) << 21
)

// quickSIB marks a quick2 entry that is not a finished record but a
// partial one for a no-prefix ModRM memory form whose rm field calls
// for a SIB byte: everything the opcode and ModRM bytes determine
// (control kind, transition, immediate width, the mod-implied
// displacement) is precompiled; expandSIB completes it against the SIB
// byte (base/index registers, scale-table displacement, total length).
// sibNeedRegs asks the expansion to fold the base/index registers into
// needRegs (register tracking on); sibExplInv turns the disp-only
// absolute-address form invalid (InvalidateExplicitAddr on). All three
// are stripped from the stored record. SIB partials never describe
// relative branches, so reusing bit 7 next to quickRel8 is safe: the
// two markers cannot meet on one entry.
const (
	quickSIB    = uint64(1) << 22
	sibNeedRegs = uint64(1) << 23
	sibExplInv  = uint64(1) << 7
)

// Sentinel classes for segPrefixByte beyond real segment numbers:
// segNeutral marks a prefix with no effect on the record beyond its
// length (lock and the rep pair, which the decoder records but no rule
// or size computation reads); segOpSize marks 0x66, derivable only
// from suffixes whose encoding is operand-size independent
// (rec66Same). segNeutral doubles as an unused wrongSeg index so
// segDerive can share the dispatch.
const (
	segNeutral = 7
	segOpSize  = 8
)

// segPrefixByte maps a segment-override prefix byte to its segment
// number (x86.Seg), lock/rep prefixes to segNeutral, 0x66 to
// segOpSize, and every other byte to zero.
var segPrefixByte = [256]uint8{
	0x26: uint8(x86.SegES),
	0x2E: uint8(x86.SegCS),
	0x36: uint8(x86.SegSS),
	0x3E: uint8(x86.SegDS),
	0x64: uint8(x86.SegFS),
	0x65: uint8(x86.SegGS),
	0x66: segOpSize,
	0xF0: segNeutral,
	0xF2: segNeutral,
	0xF3: segNeutral,
}

// segDerive derives the record at a prefix byte from the successor
// offset's final record — the shape the backward record builders
// exploit: the prefixed instruction is the suffix instruction with one
// more prefix byte, and a segment override only matters when the
// suffix carries none of its own (the last one in byte order wins).
// The displacement is unchanged because branch targets are relative to
// the instruction's end, which is the same absolute offset. A 15-byte
// suffix overflows the architectural length limit with one more
// prefix, and an invalid suffix stays invalid for the same reason it
// already was. The one underivable case returns ok=false: 0x66 over a
// suffix whose encoding depends on the operand size — including an
// invalid suffix, which a shortened immediate could revive — must be
// re-decoded for real.
func segDerive(r1 uint64, sp uint8, wrongSeg *[8]bool) (uint64, bool) {
	if sp == segOpSize {
		if uint8(r1>>recKindShift)&7 == ctrlInvalid || r1&rec66Same == 0 {
			return 0, false
		}
		if r1&recLenMask == recLenMask {
			return recInvalidPacked, true
		}
		return r1 + 1, true
	}
	if uint8(r1>>recKindShift)&7 == ctrlInvalid || r1&recLenMask == recLenMask {
		return recInvalidPacked, true
	}
	if sp == segNeutral || r1&recHasSeg != 0 {
		return r1 + 1, true
	}
	if r1&recMemAcc != 0 && wrongSeg[sp] {
		return recInvalidPacked, true
	}
	return r1 + 1 | recHasSeg, true
}

// backEdgeRec reports whether a packed record is a backward (or
// self-targeting) unconditional transfer — target at or before its own
// offset. Streams without such records have strictly forward
// sequential-mode chains, which unlocks the suffix-run DP sweep.
func backEdgeRec(r uint64) bool {
	return uint8(r>>recKindShift)&7 == ctrlJump &&
		int(int32(r>>recDispShift))+int(r&recLenMask) <= 0
}

// countBackEdges tallies backEdgeRec over a record slice — melverify's
// direct tally.
func countBackEdges(recs []uint64) int {
	n := 0
	for _, r := range recs {
		if backEdgeRec(r) {
			n++
		}
	}
	return n
}

// Per-opcode meta layout (uint64), compiled once per engine from the
// x86 table export with the rules folded in:
//
//	bits  0-3   immediate length, 32-bit operand size
//	bits  4-7   immediate length, 16-bit operand size (0x66 prefix)
//	bit   8     ModRM byte follows
//	bit   9     immediate is a relative branch displacement
//	bit  10     prefix byte
//	bit  11     0x0F escape to the two-byte map
//	bit  12     no table form (0x67, 0F 38/3A): the spec decoder decides
//	bits 13-15  control kind under the engine's rules (group bytes: seq)
//	bits 16-18  register-transition class (tcNone..tcMovzx)
//	bits 19-26  static transition argument, or implicit-memory needRegs
//	bits 27-28  static transition kind (tcStatic only)
//	bit  30     POP Ev: ModRM.reg != 0 is #UD
//	bit  31     explicit ModRM memory semantics (table mem != none)
//	bit  32     implicit memory access (moffs, XLAT, string)
//	bit  33     implicit access is disp-only (moffs)
//	bits 34-36  group id (grpMeta row; 0 = not a group opcode)
const (
	metaImm32Shift  = 0
	metaImm16Shift  = 4
	metaHasModRM    = 1 << 8
	metaIsRel       = 1 << 9
	metaPrefix      = 1 << 10
	metaEscape      = 1 << 11
	metaFallback    = 1 << 12
	metaKindShift   = 13
	metaTransShift  = 16
	metaArgShift    = 19
	metaTrKindShift = 27
	metaPopEv       = uint64(1) << 30
	metaMemSem      = uint64(1) << 31
	metaImplMem     = uint64(1) << 32
	metaMoffs       = uint64(1) << 33
	metaGroupShift  = 34

	// metaTransMask is the transition-class field; nonzero only for
	// the handful of register-revealing opcodes.
	metaTransMask = uint64(7) << metaTransShift
)

// Register-transition classes: how transitionOf resolves for an opcode.
// tcStatic transitions are fully determined by the opcode byte and live
// in the meta word; the others need ModRM (or address-form) fields.
const (
	tcNone   uint8 = iota
	tcStatic       // kind+arg in the meta word
	tcMovRM        // 8A/8B mov reg, r/m
	tcLEA          // 8D lea
	tcMovzx        // 0F B6/B7/BE/BF movzx/movsx
)

// Group-slot meta layout (uint32), one row per group id, indexed by
// ModRM.reg:
//
//	bits  0-2   control kind under the engine's rules
//	bit   3     explicit memory semantics
//	bit   4     immediate lengths below override the base row's
//	bits  5-8   immediate length, 32-bit operand size
//	bits  9-12  immediate length, 16-bit operand size
const (
	grpKindMask    = 7
	grpMemSem      = 1 << 3
	grpImmOverride = 1 << 4
	grpImm32Shift  = 5
	grpImm16Shift  = 9
)

// Engine-internal group ids (meta bits 34-36). Group 3 splits by opcode
// because F6 and F7 imply different TEST immediate widths.
const (
	gidGrp1  = 1
	gidGrp2  = 2
	gidGrp3b = 3 // F6: TEST Eb, imm8
	gidGrp3v = 4 // F7: TEST Ev, immz
	gidGrp4  = 5
	gidGrp5  = 6
	gidGrp8  = 7
)

// kindOfFlags classifies an instruction's control kind under the
// engine's compiled invalidity flags — the meta-table form of
// invalidBase plus the ctrl classification of the record builder.
func (e *Engine) kindOfFlags(f x86.Flags) uint8 {
	switch {
	case f&e.invalidFlags != 0:
		return ctrlInvalid
	case f&(x86.FlagRet|x86.FlagIndirect|x86.FlagFar|x86.FlagInt) != 0:
		return ctrlEnd
	case f.Has(x86.FlagCondBranch):
		return ctrlCond
	case f&(x86.FlagUncondJump|x86.FlagCall) != 0:
		return ctrlJump
	}
	return ctrlSeq
}

// staticTransOf returns the transition class for an opcode byte, and for
// tcStatic the compiled (kind, arg) pair. It is transitionOf restricted
// to what the opcode byte alone determines; records_test.go proves the
// two agree through the packed-record comparison.
func staticTransOf(twoByte bool, b byte) (class, trKind, trArg uint8) {
	if twoByte {
		switch {
		case b == 0x31: // rdtsc
			return tcStatic, transOr, 0x05
		case b == 0xA2: // cpuid
			return tcStatic, transOr, 0x0F
		case b == 0xB6 || b == 0xB7 || b == 0xBE || b == 0xBF:
			return tcMovzx, 0, 0
		}
		return tcNone, 0, 0
	}
	switch {
	case b >= 0x58 && b <= 0x5F: // pop reg
		return tcStatic, transOr, 1 << (b & 7)
	case b == 0x61: // popa
		return tcStatic, transOr, 0xFF
	case b == 0x8A || b == 0x8B: // mov reg, r/m
		return tcMovRM, 0, 0
	case b == 0x8D: // lea
		return tcLEA, 0, 0
	case b >= 0x91 && b <= 0x97: // xchg eax, reg
		return tcStatic, transSwap, uint8(x86.EAX)<<4 | b&7
	case b == 0x99: // cdq
		return tcStatic, transOr, 0x05
	case b == 0xA1: // mov eax, moffs
		return tcStatic, transOr, 1 << uint(x86.EAX)
	case b >= 0xB0 && b <= 0xBF: // mov reg, imm
		return tcStatic, transOr, 1 << (b & 7)
	case b == 0xE4 || b == 0xE5 || b == 0xEC || b == 0xED: // in
		return tcStatic, transOr, 1 << uint(x86.EAX)
	}
	return tcNone, 0, 0
}

// compileMeta builds the per-opcode meta tables for this engine's rules.
// Called once from NewEngineMode; scans never touch the x86 tables
// again.
func (e *Engine) compileMeta() {
	for b := 0; b < 256; b++ {
		e.meta1[b] = e.compileEntry(x86.OneByteInfo(byte(b)), false, byte(b))
		e.meta2[b] = e.compileEntry(x86.TwoByteInfo(byte(b)), true, byte(b))
	}
	e.compileGroup(gidGrp1, x86.Group1, 0, 0)
	e.compileGroup(gidGrp2, x86.Group2, 0, 0)
	e.compileGroup(gidGrp3b, x86.Group3, 1, 1)
	e.compileGroup(gidGrp3v, x86.Group3, 4, 2)
	e.compileGroup(gidGrp4, x86.Group4, 0, 0)
	e.compileGroup(gidGrp5, x86.Group5, 0, 0)
	e.compileGroup(gidGrp8, x86.Group8, 0, 0)
	e.compileQuick()
	e.compileQuick2()
}

// compileQuick2 fills quick2: the complete packed record for every
// (first, second) byte pair that determines one. Eligibility is decided
// structurally from the meta words — a ModRM opcode whose second byte
// encodes no SIB, a single prefix followed by a no-ModRM opcode, or an
// 0x0F escape to a no-ModRM two-byte opcode — and the record itself
// comes from the reference decoder run on a zero-padded probe, so the
// table inherits the spec's semantics (including rule invalidity, group
// selection, and register transitions) rather than re-deriving them.
// Trailing bytes cannot change such a record: displacement and
// immediate values are never stored, except a trailing rel8
// displacement, which is marked with quickRel8 and patched at scan
// time. rel16/32 forms go to the spec decoder.
func (e *Engine) compileQuick2() {
	e.quick2 = new([256][256]uint32)
	var probe [2 + x86.MaxInstLen]byte
	for b0 := 0; b0 < 256; b0++ {
		if e.quick1[b0] != 0 {
			continue // never consulted: quick1 resolves the offset first
		}
		m0 := e.meta1[b0]
		for b1 := 0; b1 < 256; b1++ {
			var rel8 bool
			switch {
			case m0&metaFallback != 0:
				continue // 0x67: stays on the full decoder
			case m0&metaPrefix != 0:
				m1 := e.meta1[b1]
				if m1&(metaPrefix|metaEscape|metaFallback|metaHasModRM) != 0 {
					continue
				}
				immLen := m1 >> metaImm32Shift & 0xF
				if b0 == 0x66 {
					immLen = m1 >> metaImm16Shift & 0xF
				}
				if m1&metaIsRel != 0 {
					if immLen != 1 {
						continue // rel16/32 after a prefix: spec decoder
					}
					rel8 = true
				}
			case m0&metaEscape != 0:
				m1 := e.meta2[b1]
				if m1&(metaFallback|metaHasModRM|metaIsRel) != 0 {
					continue
				}
			case m0&metaHasModRM != 0:
				if b1 < 0xC0 && b1&7 == 4 {
					// SIB byte: the third byte matters. Compile the
					// ModRM-determined half into a partial entry that
					// expandSIB finishes at scan time.
					if r, ok := e.compileSIBPartial(m0, byte(b1)); ok {
						e.quick2[b0][b1] = uint32(r)
					}
					continue
				}
			default:
				// First-byte-determined forms quick1 declined (rel16/32,
				// moffs): the trailing bytes matter.
				continue
			}
			probe[0], probe[1] = byte(b0), byte(b1)
			r := e.recFullAt(probe[:], 0)
			if rel8 && r != recInvalidPacked {
				if uint8(r>>recKindShift)&7 == ctrlJump {
					r |= quickJmp8
				}
				r = r&^(0xFFFFFFFF<<recDispShift) | quickRel8
			}
			if r>>32 != 0 {
				continue // defensive: an entry must fit the 32-bit row
			}
			e.quick2[b0][b1] = uint32(r)
		}
	}
}

// compileSIBPartial compiles the quick2 partial for one (opcode,
// ModRM) pair whose memory form takes a SIB byte: no prefixes,
// one-byte opcode map, mod != 3, so the register-form rules (mod-3
// #UD, xor/sub reg==rm zeroing) cannot apply. The stored length counts
// opcode + ModRM + SIB + mod-implied displacement + immediate; the
// SIB-implied displacement is added at expansion. LEA is the one form
// whose register transition depends on the SIB base, so it stays on
// the spec decoder.
func (e *Engine) compileSIBPartial(m uint64, modrm byte) (uint64, bool) {
	tracking := e.rules.TrackRegisterInit
	mod := modrm >> 6
	reg := modrm >> 3 & 7
	kind := uint8(m>>metaKindShift) & 7
	if kind == ctrlInvalid {
		return recInvalidPacked, true
	}
	immLen := m >> metaImm32Shift & 0xF
	imm66 := immLen == m>>metaImm16Shift&0xF
	memSem := m&metaMemSem != 0
	var trKind, trArg uint8
	if gid := m >> metaGroupShift & 7; gid != 0 {
		gm := e.grpMeta[gid][reg]
		kind = uint8(gm & grpKindMask)
		if kind == ctrlInvalid {
			return recInvalidPacked, true
		}
		memSem = gm&grpMemSem != 0
		if gm&grpImmOverride != 0 {
			imm66 = gm>>grpImm32Shift&0xF == gm>>grpImm16Shift&0xF
			immLen = uint64(gm >> grpImm32Shift & 0xF)
		}
	}
	if m&metaPopEv != 0 && reg != 0 {
		return recInvalidPacked, true
	}
	if tracking && m&metaTransMask != 0 {
		switch uint8(m>>metaTransShift) & 7 {
		case tcStatic:
			trKind = uint8(m>>metaTrKindShift) & 3
			trArg = uint8(m >> metaArgShift)
		case tcMovRM:
			trKind, trArg = transOr, 1<<reg
		case tcLEA:
			return 0, false // transition depends on the SIB base
		case tcMovzx:
			trKind, trArg = transOr, 1<<reg
		}
	}
	var dispLen uint64
	switch mod {
	case 1:
		dispLen = 1
	case 2:
		dispLen = 4
	}
	r := (3 + dispLen + immLen) | uint64(kind)<<recKindShift |
		uint64(trKind)<<recTrKindShift | uint64(trArg)<<recTrArgShift |
		quickSIB
	if imm66 {
		r |= rec66Same
	}
	if memSem {
		r |= recMemAcc
		if e.rules.InvalidateExplicitAddr {
			r |= sibExplInv
		}
		if tracking {
			r |= sibNeedRegs
		}
	}
	return r, true
}

// expandSIB finishes a quickSIB partial against the stream: one SIB
// table load resolves the base/index registers and the SIB-implied
// displacement, then the truncation check and the memory-dependent
// rules run as the spec decoder applies them (segment overrides
// cannot occur — partials are only consulted with the opcode byte
// first). The result is a finished record; SIB forms carry no branch
// displacement, so it can never be a back edge.
//
//mel:hotpath
func expandSIB(q uint64, code []byte, off, n int) uint64 {
	if off+2 >= n {
		return recInvalidPacked
	}
	var mi uint16
	if sib := code[off+2]; code[off+1] < 0x40 {
		mi = sibTab0[sib]
	} else {
		mi = sibTabN[sib]
	}
	l := q&recLenMask + uint64(mi>>8&7)
	if off+int(l) > n {
		return recInvalidPacked
	}
	if mi&miDispOnly != 0 && q&sibExplInv != 0 {
		return recInvalidPacked
	}
	r := q&^(quickSIB|sibNeedRegs|sibExplInv|recLenMask) | l
	if q&sibNeedRegs != 0 {
		var nr uint64
		if base := mi & 0xF; base != 0 {
			nr = 1 << (base - 1)
		}
		if idx := mi >> 4 & 0xF; idx != 0 {
			nr |= 1 << (idx - 1)
		}
		r |= nr << recNeedShift
	}
	return r
}

// compileQuick fills quick1: the complete packed record for every
// opcode whose record is determined by its first byte alone — no
// prefixes, no escape, no ModRM, fixed-width immediate. Covers most of
// printable ASCII (inc/dec/push/pop, the imm ALU forms, rule-invalid
// bytes, and rel8 branches via the quickRel8 patch flag), so the record
// builder resolves typical text offsets in two table loads. Zero means
// no quick form; the spec decoder decides.
func (e *Engine) compileQuick() {
	tracking := e.rules.TrackRegisterInit
	for b := 0; b < 256; b++ {
		m := e.meta1[b]
		if m&(metaPrefix|metaEscape|metaFallback|metaHasModRM) != 0 {
			continue
		}
		kind := uint8(m>>metaKindShift) & 7
		if kind == ctrlInvalid {
			e.quick1[b] = recInvalidPacked
			continue
		}
		immLen := m >> metaImm32Shift & 0xF
		rec := (1 + immLen) | uint64(kind)<<recKindShift
		if immLen == m>>metaImm16Shift&0xF {
			rec |= rec66Same
		}
		if m&metaIsRel != 0 {
			if immLen != 1 {
				continue // rel16/32: the spec decoder reads the displacement
			}
			rec |= quickRel8
			if kind == ctrlJump {
				rec |= quickJmp8
			}
		}
		if m&metaImplMem != 0 {
			rec |= recMemAcc
			// No segment override is possible here, so only the
			// explicit-address rule and the implicit registers apply.
			if m&metaMoffs != 0 {
				if e.rules.InvalidateExplicitAddr {
					e.quick1[b] = recInvalidPacked
					continue
				}
			} else if tracking {
				rec |= (m >> metaArgShift & 0xFF) << recNeedShift
			}
		}
		if tracking && uint8(m>>metaTransShift)&7 == tcStatic {
			rec |= (m>>metaTrKindShift&3)<<recTrKindShift |
				(m>>metaArgShift&0xFF)<<recTrArgShift
		}
		e.quick1[b] = rec
	}
}

// compileEntry compiles one opcode-table row into its meta word.
func (e *Engine) compileEntry(ti x86.TableInfo, twoByte bool, b byte) uint64 {
	switch ti.Shape {
	case x86.ShapePrefix:
		return metaPrefix
	case x86.ShapeEscape:
		return metaEscape
	case x86.ShapeEscape3:
		return metaFallback
	}
	var m, imm32, imm16 uint64
	switch ti.Shape {
	case x86.ShapeModRM, x86.ShapeGroup3:
		m |= metaHasModRM
	case x86.ShapeModRMIb:
		m |= metaHasModRM
		imm32, imm16 = 1, 1
	case x86.ShapeModRMIz:
		m |= metaHasModRM
		imm32, imm16 = 4, 2
	case x86.ShapeIb:
		imm32, imm16 = 1, 1
	case x86.ShapeIz:
		imm32, imm16 = 4, 2
	case x86.ShapeIw:
		imm32, imm16 = 2, 2
	case x86.ShapeIwIb:
		imm32, imm16 = 3, 3
	case x86.ShapeRel8:
		imm32, imm16 = 1, 1
		m |= metaIsRel
	case x86.ShapeRelZ:
		imm32, imm16 = 4, 2
		m |= metaIsRel
	case x86.ShapeFarPtr:
		imm32, imm16 = 6, 4
	case x86.ShapeMoffs:
		// moffs is address-size sized; 16-bit addressing (0x67) takes
		// the spec decoder, so both widths compile to 4.
		imm32, imm16 = 4, 4
	}
	m |= imm32<<metaImm32Shift | imm16<<metaImm16Shift
	m |= uint64(e.kindOfFlags(ti.Flags)) << metaKindShift
	if ti.Mem != x86.MemDirNone {
		m |= metaMemSem
		if m&metaHasModRM == 0 {
			// Implicit-memory forms: moffs, XLAT, string instructions.
			switch {
			case ti.Shape == x86.ShapeMoffs:
				m |= metaImplMem | metaMoffs
			case ti.Op == x86.OpXLAT:
				m |= metaImplMem | uint64(1)<<(metaArgShift+uint(x86.EBX))
			case ti.Flags.Has(x86.FlagString):
				m |= metaImplMem
				var need uint64
				if ti.Mem == x86.MemDirRead || ti.Mem == x86.MemDirRW {
					need |= 1 << uint(x86.ESI)
				}
				if ti.Mem == x86.MemDirWrite || ti.Mem == x86.MemDirRW {
					need |= 1 << uint(x86.EDI)
				}
				m |= need << metaArgShift
			}
		}
	}
	if !twoByte && b == 0x8F {
		m |= metaPopEv
	}
	if ti.Group != x86.GroupNone {
		var gid uint64
		switch ti.Group {
		case x86.Group1:
			gid = gidGrp1
		case x86.Group2:
			gid = gidGrp2
		case x86.Group3:
			if b == 0xF6 {
				gid = gidGrp3b
			} else {
				gid = gidGrp3v
			}
		case x86.Group4:
			gid = gidGrp4
		case x86.Group5:
			gid = gidGrp5
		case x86.Group8:
			gid = gidGrp8
		}
		m |= gid << metaGroupShift
	}
	class, trKind, trArg := staticTransOf(twoByte, b)
	m |= uint64(class)<<metaTransShift |
		uint64(trKind)<<metaTrKindShift | uint64(trArg)<<metaArgShift
	return m
}

// compileGroup compiles one grpMeta row. immOverride widths apply to the
// TEST slots (reg 0/1) of group 3 only; zero widths mean the base row's
// immediate stands.
func (e *Engine) compileGroup(gid int, group uint8, imm32, imm16 uint32) {
	for reg := byte(0); reg < 8; reg++ {
		_, flags, mem := x86.GroupInfo(group, reg)
		gm := uint32(e.kindOfFlags(flags))
		if mem != x86.MemDirNone {
			gm |= grpMemSem
		}
		if (imm32 != 0 || imm16 != 0) && reg <= 1 {
			gm |= grpImmOverride | imm32<<grpImm32Shift | imm16<<grpImm16Shift
		}
		e.grpMeta[gid][reg] = gm
	}
}

// ensureRecs sizes the packed-record array for the current stream.
func (s *scanState) ensureRecs() {
	n := len(s.code)
	if cap(s.recs) < n {
		s.recs = make([]uint64, n)
	} else {
		s.recs = s.recs[:n]
	}
	// chainWalk pushes one maskStack frame per state on its active
	// chain. A forward chain visits each offset at most once, so n
	// frames cover every walk of the fused pass and of the back-edge
	// fallback without register tracking; only a cyclic tracked chain,
	// which can revisit one offset under several masks, may grow it.
	if cap(s.maskStack) < n {
		s.maskStack = make([]uint64, 0, n)
	}
}

// lazyRec decodes the record at off for the on-demand walks (ScanFrom,
// Trace), which start from zeroed records (no packed record is zero)
// and touch only the offsets their path reaches. quick1 resolves the
// common text forms; the rest take the spec decoder, which — unlike
// segDerive — needs no successor record. Either way the record is the
// one buildRecords would store.
func (s *scanState) lazyRec(off int) uint64 {
	var r uint64
	if q := s.e.quick1[s.code[off]]; q != 0 {
		r, _ = patchQuick(q, s.code, off, len(s.code))
	} else {
		r = s.e.recFullAt(s.code, off)
	}
	s.recs[off] = r
	return r
}

// recFullAt builds the packed record for one offset through the spec
// decoder: a full x86 decode with the engine's rule set applied. It
// serves every offset the quick tables and derivations leave
// unresolved, evaluates the quick2 compiler's synthetic two-byte
// probes, and is the specification the table layers are tested
// against.
func (e *Engine) recFullAt(code []byte, off int) uint64 {
	var inst x86.Inst
	if x86.DecodeInto(&inst, code, off) != nil || e.invalidBase(&inst) {
		return recInvalidPacked
	}
	return packRec(&inst, e.rules.TrackRegisterInit)
}

// packRec reduces a decoded, rule-valid instruction to its packed
// record. Register fields are compiled only under tracking rules,
// mirroring the fused path.
func packRec(inst *x86.Inst, tracking bool) uint64 {
	rec := uint64(inst.Len) & recLenMask
	var kind uint8
	switch {
	case inst.Flags&(x86.FlagRet|x86.FlagIndirect|x86.FlagFar|x86.FlagInt) != 0:
		kind = ctrlEnd
	case inst.Flags.Has(x86.FlagCondBranch):
		kind = ctrlCond
	case inst.Flags&(x86.FlagUncondJump|x86.FlagCall) != 0:
		kind = ctrlJump
	default:
		kind = ctrlSeq
	}
	rec |= uint64(kind) << recKindShift
	if tracking {
		var need uint8
		if inst.MemAccess && !inst.MemDispOnly {
			if inst.MemBase != x86.RegNone {
				need |= 1 << uint(inst.MemBase)
			}
			if inst.MemIndex != x86.RegNone {
				need |= 1 << uint(inst.MemIndex)
			}
		}
		trKind, trArg := transitionOf(inst)
		rec |= uint64(need)<<recNeedShift |
			uint64(trKind)<<recTrKindShift | uint64(trArg)<<recTrArgShift
	}
	if inst.HasRelTarget {
		rec |= uint64(uint32(inst.Disp)) << recDispShift
	}
	if inst.MemAccess {
		rec |= recMemAcc
	}
	if inst.Prefixes.Seg != x86.SegNone {
		rec |= recHasSeg
	}
	if inst.Prefixes.OpSize || immWidthsEqual(inst) {
		rec |= rec66Same
	}
	return rec
}

// immWidthsEqual reports whether the instruction's encoding has the
// same length under both operand sizes — no immediate whose width the
// 0x66 prefix changes.
func immWidthsEqual(inst *x86.Inst) bool {
	if inst.ThreeByte {
		// 0F 38 forms carry no immediate and 0F 3A forms carry Ib;
		// neither is operand-size sensitive.
		return true
	}
	var ti x86.TableInfo
	if inst.TwoByte {
		ti = x86.TwoByteInfo(inst.Opcode)
	} else {
		ti = x86.OneByteInfo(inst.Opcode)
	}
	switch ti.Shape {
	case x86.ShapeModRMIz, x86.ShapeIz, x86.ShapeRelZ, x86.ShapeFarPtr:
		return false
	case x86.ShapeGroup3:
		// TEST (/0, /1) takes Iz on F7; the rest of the group and all
		// of F6 carry no size-sensitive immediate.
		return inst.Opcode == 0xF6 || inst.RegField >= 2
	}
	return true
}

// buildRecords compiles every offset in [0, to) to its packed record
// in one backward pass over the quick tables, the derivations and the
// spec decoder — backward so a segment-override prefix can derive its record
// from the already-final successor record (segDerive; the record at to,
// if any, must already be in place). Offsets from to on keep their
// records — the fused pass's suffix. It returns the number of back
// edges among the records it built. The sequential modes fuse
// this loop with the suffix DP (scanFused) and call it only to finish
// the decode half after a back edge; it serves the all-paths mode,
// FusedRecords, and melverify's record check.
//
//mel:hotpath
func (s *scanState) buildRecords(to int) (backEdges int) {
	code := s.code
	n := len(code)
	e := s.e
	recs := s.recs
	for off := to - 1; off >= 0; off-- {
		b := code[off]
		if q := e.quick1[b]; q != 0 {
			r, be := patchQuick(q, code, off, n)
			recs[off] = r
			if be {
				backEdges++
			}
			continue
		}
		if off+1 < n {
			if sp := segPrefixByte[b]; sp != 0 {
				if r, ok := segDerive(recs[off+1], sp, &e.wrongSeg); ok {
					recs[off] = r
					if backEdgeRec(r) {
						backEdges++
					}
					continue
				}
				// 0x66 over a size-sensitive or invalid suffix: the
				// record is not derivable — quick2 or the spec decoder.
			}
			if q := uint64(e.quick2[b][code[off+1]]); q != 0 {
				if q&quickSIB != 0 {
					recs[off] = expandSIB(q, code, off, n)
					continue // SIB records cannot be back edges
				}
				r, be := patchQuick(q, code, off, n)
				recs[off] = r
				if be {
					backEdges++
				}
				continue
			}
		}
		r := e.recFullAt(code, off)
		recs[off] = r
		if backEdgeRec(r) {
			backEdges++
		}
	}
	return backEdges
}

// patchQuick resolves a quick-table record against the stream: the
// truncation check, and the trailing rel8 displacement patch for
// records flagged quickRel8. The second result reports a back edge
// (an unconditional rel8 jump landing at or before its own offset).
func patchQuick(q uint64, code []byte, off, n int) (uint64, bool) {
	l := int(q & recLenMask)
	if l > n-off {
		return recInvalidPacked, false
	}
	if q&quickRel8 != 0 {
		d := int8(code[off+l-1])
		return q&^(quickRel8|quickJmp8) | uint64(uint32(int32(d)))<<recDispShift,
			q&quickJmp8 != 0 && int(d)+l <= 0
	}
	return q, false
}

// SIB address-form tables: the SIB half of the ModRM/SIB decode
// flattened into two 256-entry arrays, so expandSIB resolves the base
// and index registers, the SIB-implied displacement size and the
// disp-only form in one load. Global — they encode the ISA, not any
// rule set.
//
// Entry layout: bits 0-3 base register + 1 (0 = none), bits 4-7 index
// register + 1, bits 8-10 displacement size (0 or 4), bit 11 disp-only
// (absolute address, no registers). sibTab0 applies at mod == 0, where
// base 5 means disp32 with no base register; sibTabN at mod 1/2.
const miDispOnly = 1 << 11

var sibTab0, sibTabN = buildSibTabs()

func buildSibTabs() (t0, tn [256]uint16) {
	for sib := 0; sib < 256; sib++ {
		idx := uint16(sib>>3) & 7
		sb := uint16(sib & 7)
		var index uint16
		if idx != 4 {
			index = (idx + 1) << 4
		}
		tn[sib] = (sb + 1) | index
		if sb == 5 {
			v := index | 4<<8
			if index == 0 {
				v |= miDispOnly
			}
			t0[sib] = v
		} else {
			t0[sib] = (sb + 1) | index
		}
	}
	return t0, tn
}
