package x86

import "fmt"

// encoding describes how the bytes after the opcode are laid out, which is
// everything length decoding needs.
type encoding uint8

const (
	encNone     encoding = iota // no further bytes
	encModRM                    // ModRM (+SIB/disp)
	encModRMIb                  // ModRM + imm8
	encModRMIz                  // ModRM + imm16/32 (operand size)
	encIb                       // imm8
	encIz                       // imm16/32
	encIw                       // imm16
	encIwIb                     // imm16 + imm8 (ENTER)
	encRel8                     // rel8 branch displacement
	encRelZ                     // rel16/32 branch displacement
	encFarPtr                   // ptr16:16/32 (operand size + 2)
	encMoffs                    // moffs (address-size sized)
	encPrefix                   // prefix byte, restart decode
	encEscape                   // 0x0F escape to the two-byte map
	encEscape38                 // 0F 38 escape to the three-byte map
	encEscape3A                 // 0F 3A escape to the three-byte map
	encGrp3                     // F6/F7: imm present only for /0 and /1
)

// memDir describes the direction of an explicit ModRM memory access.
type memDir uint8

const (
	memNone  memDir = iota // no memory semantics even if ModRM has mem form
	memRead                // reads memory when ModRM encodes a memory operand
	memWrite               // writes memory
	memRW                  // reads and writes (read-modify-write)
)

// entry is one opcode-table row.
type entry struct {
	op    Op
	enc   encoding
	flags Flags
	mem   memDir
}

// groupOp is one row of a group table: ModRM.reg selects the row, whose
// op and memory direction replace the base entry's and whose flags are
// added to it. There is no "keep the base entry" row; a zero row would
// decode as an op-less valid instruction.
type groupOp struct {
	op    Op
	flags Flags
	mem   memDir
}

var (
	grp1 = [8]groupOp{
		{op: OpADD, mem: memRW}, {op: OpOR, mem: memRW}, {op: OpADC, mem: memRW}, {op: OpSBB, mem: memRW},
		{op: OpAND, mem: memRW}, {op: OpSUB, mem: memRW}, {op: OpXOR, mem: memRW}, {op: OpCMP, mem: memRead},
	}
	grp2 = [8]groupOp{
		{op: OpROL, mem: memRW}, {op: OpROR, mem: memRW}, {op: OpRCL, mem: memRW}, {op: OpRCR, mem: memRW},
		{op: OpSHL, mem: memRW}, {op: OpSHR, mem: memRW}, {op: OpSHL, mem: memRW}, {op: OpSAR, mem: memRW},
	}
	grp3 = [8]groupOp{
		{op: OpTEST, mem: memRead}, {op: OpTEST, mem: memRead}, {op: OpNOT, mem: memRW}, {op: OpNEG, mem: memRW},
		{op: OpMUL, mem: memRead}, {op: OpIMUL, mem: memRead}, {op: OpDIV, mem: memRead}, {op: OpIDIV, mem: memRead},
	}
	grp4 = [8]groupOp{
		{op: OpINC, mem: memRW}, {op: OpDEC, mem: memRW},
		{op: OpInvalid, flags: FlagUndefined}, {op: OpInvalid, flags: FlagUndefined},
		{op: OpInvalid, flags: FlagUndefined}, {op: OpInvalid, flags: FlagUndefined},
		{op: OpInvalid, flags: FlagUndefined}, {op: OpInvalid, flags: FlagUndefined},
	}
	grp5 = [8]groupOp{
		{op: OpINC, mem: memRW},
		{op: OpDEC, mem: memRW},
		{op: OpCALL, flags: FlagCall | FlagIndirect | FlagStack, mem: memRead},
		{op: OpCALLF, flags: FlagCall | FlagIndirect | FlagFar | FlagStack, mem: memRead},
		{op: OpJMP, flags: FlagUncondJump | FlagIndirect, mem: memRead},
		{op: OpJMPF, flags: FlagUncondJump | FlagIndirect | FlagFar, mem: memRead},
		{op: OpPUSH, flags: FlagStack, mem: memRead},
		{op: OpInvalid, flags: FlagUndefined},
	}
	// grp8 is the 0F BA bit-test-with-immediate group.
	grp8 = [8]groupOp{
		{op: OpInvalid, flags: FlagUndefined}, {op: OpInvalid, flags: FlagUndefined},
		{op: OpInvalid, flags: FlagUndefined}, {op: OpInvalid, flags: FlagUndefined},
		{op: OpBT, mem: memRead}, {op: OpBTS, mem: memRW},
		{op: OpBTR, mem: memRW}, {op: OpBTC, mem: memRW},
	}
)

// fill writes e into t[lo..hi]. A slot written twice would silently
// keep the later entry, so fill panics at package init instead.
func fill(t *[256]entry, lo, hi int, e entry) {
	for b := lo; b <= hi; b++ {
		if t[b] != (entry{}) {
			panic(fmt.Sprintf("x86: opcode table slot %#02x written twice", b))
		}
		t[b] = e
	}
}

// orUndefined gives every slot still zero the map's #UD entry, the
// architecturally safe default for reserved slots.
func orUndefined(t *[256]entry, undef entry) {
	for b := range t {
		if t[b] == (entry{}) {
			t[b] = undef
		}
	}
}

// oneByte is the complete IA-32 one-byte opcode map for 32-bit mode.
var oneByte = buildOneByte()

// buildOneByte writes single slots as keyed literal elements (a
// duplicate index does not compile) and ranges through fill.
func buildOneByte() [256]entry {
	t := [256]entry{
		// Segment push/pop in the ALU rows' 6/7 columns.
		0x06: {op: OpPUSH, enc: encNone, flags: FlagStack},
		0x07: {op: OpPOP, enc: encNone, flags: FlagStack},
		0x0E: {op: OpPUSH, enc: encNone, flags: FlagStack},
		0x0F: {enc: encEscape},
		0x16: {op: OpPUSH, enc: encNone, flags: FlagStack},
		0x17: {op: OpPOP, enc: encNone, flags: FlagStack},
		0x1E: {op: OpPUSH, enc: encNone, flags: FlagStack},
		0x1F: {op: OpPOP, enc: encNone, flags: FlagStack},

		// Segment-override and BCD opcodes interleaved in rows 2 and 3.
		0x26: {enc: encPrefix},
		0x27: {op: OpDAA, enc: encNone},
		0x2E: {enc: encPrefix},
		0x2F: {op: OpDAS, enc: encNone},
		0x36: {enc: encPrefix},
		0x37: {op: OpAAA, enc: encNone},
		0x3E: {enc: encPrefix},
		0x3F: {op: OpAAS, enc: encNone},

		0x60: {op: OpPUSHA, enc: encNone, flags: FlagStack},
		0x61: {op: OpPOPA, enc: encNone, flags: FlagStack},
		// BOUND requires a memory operand; the register form is #UD, enforced
		// in the decoder.
		0x62: {op: OpBOUND, enc: encModRM, mem: memRead},
		0x63: {op: OpARPL, enc: encModRM, mem: memRW},
		0x64: {enc: encPrefix},
		0x65: {enc: encPrefix},
		0x66: {enc: encPrefix},
		0x67: {enc: encPrefix},
		0x68: {op: OpPUSH, enc: encIz, flags: FlagStack},
		0x69: {op: OpIMUL, enc: encModRMIz, mem: memRead},
		0x6A: {op: OpPUSH, enc: encIb, flags: FlagStack},
		0x6B: {op: OpIMUL, enc: encModRMIb, mem: memRead},
		0x6C: {op: OpINS, enc: encNone, flags: FlagIO | FlagString, mem: memWrite},
		0x6D: {op: OpINS, enc: encNone, flags: FlagIO | FlagString, mem: memWrite},
		0x6E: {op: OpOUTS, enc: encNone, flags: FlagIO | FlagString, mem: memRead},
		0x6F: {op: OpOUTS, enc: encNone, flags: FlagIO | FlagString, mem: memRead},

		0x80: {enc: encModRMIb}, // grp1 Eb,Ib
		0x81: {enc: encModRMIz}, // grp1 Ev,Iz
		0x82: {enc: encModRMIb}, // grp1 Eb,Ib alias (32-bit mode)
		0x83: {enc: encModRMIb}, // grp1 Ev,Ib
		0x84: {op: OpTEST, enc: encModRM, mem: memRead},
		0x85: {op: OpTEST, enc: encModRM, mem: memRead},
		0x86: {op: OpXCHG, enc: encModRM, mem: memRW},
		0x87: {op: OpXCHG, enc: encModRM, mem: memRW},
		0x88: {op: OpMOV, enc: encModRM, mem: memWrite},
		0x89: {op: OpMOV, enc: encModRM, mem: memWrite},
		0x8A: {op: OpMOV, enc: encModRM, mem: memRead},
		0x8B: {op: OpMOV, enc: encModRM, mem: memRead},
		0x8C: {op: OpMOV, enc: encModRM, mem: memWrite}, // MOV Ev,Sw
		0x8D: {op: OpLEA, enc: encModRM, mem: memNone},  // address only
		0x8E: {op: OpMOV, enc: encModRM, mem: memRead},  // MOV Sw,Ew
		0x8F: {op: OpPOP, enc: encModRM, flags: FlagStack, mem: memWrite},

		0x90: {op: OpNOP, enc: encNone},
		0x98: {op: OpCWDE, enc: encNone},
		0x99: {op: OpCDQ, enc: encNone},
		0x9A: {op: OpCALLF, enc: encFarPtr, flags: FlagCall | FlagFar | FlagStack},
		0x9B: {op: OpWAIT, enc: encNone},
		0x9C: {op: OpPUSHF, enc: encNone, flags: FlagStack},
		0x9D: {op: OpPOPF, enc: encNone, flags: FlagStack},
		0x9E: {op: OpSAHF, enc: encNone},
		0x9F: {op: OpLAHF, enc: encNone},

		0xA0: {op: OpMOV, enc: encMoffs, mem: memRead},
		0xA1: {op: OpMOV, enc: encMoffs, mem: memRead},
		0xA2: {op: OpMOV, enc: encMoffs, mem: memWrite},
		0xA3: {op: OpMOV, enc: encMoffs, mem: memWrite},
		0xA4: {op: OpMOVS, enc: encNone, flags: FlagString, mem: memRW},
		0xA5: {op: OpMOVS, enc: encNone, flags: FlagString, mem: memRW},
		0xA6: {op: OpCMPS, enc: encNone, flags: FlagString, mem: memRead},
		0xA7: {op: OpCMPS, enc: encNone, flags: FlagString, mem: memRead},
		0xA8: {op: OpTEST, enc: encIb},
		0xA9: {op: OpTEST, enc: encIz},
		0xAA: {op: OpSTOS, enc: encNone, flags: FlagString, mem: memWrite},
		0xAB: {op: OpSTOS, enc: encNone, flags: FlagString, mem: memWrite},
		0xAC: {op: OpLODS, enc: encNone, flags: FlagString, mem: memRead},
		0xAD: {op: OpLODS, enc: encNone, flags: FlagString, mem: memRead},
		0xAE: {op: OpSCAS, enc: encNone, flags: FlagString, mem: memRead},
		0xAF: {op: OpSCAS, enc: encNone, flags: FlagString, mem: memRead},

		0xC0: {enc: encModRMIb}, // grp2 Eb,Ib
		0xC1: {enc: encModRMIb}, // grp2 Ev,Ib
		0xC2: {op: OpRET, enc: encIw, flags: FlagRet | FlagStack},
		0xC3: {op: OpRET, enc: encNone, flags: FlagRet | FlagStack},
		0xC4: {op: OpLES, enc: encModRM, mem: memRead},
		0xC5: {op: OpLDS, enc: encModRM, mem: memRead},
		0xC6: {op: OpMOV, enc: encModRMIb, mem: memWrite},
		0xC7: {op: OpMOV, enc: encModRMIz, mem: memWrite},
		0xC8: {op: OpENTER, enc: encIwIb, flags: FlagStack},
		0xC9: {op: OpLEAVE, enc: encNone, flags: FlagStack},
		0xCA: {op: OpRETF, enc: encIw, flags: FlagRet | FlagFar | FlagStack},
		0xCB: {op: OpRETF, enc: encNone, flags: FlagRet | FlagFar | FlagStack},
		0xCC: {op: OpINT3, enc: encNone, flags: FlagInt},
		0xCD: {op: OpINT, enc: encIb, flags: FlagInt},
		0xCE: {op: OpINTO, enc: encNone, flags: FlagInt},
		0xCF: {op: OpIRET, enc: encNone, flags: FlagRet | FlagStack},

		0xD0: {enc: encModRM}, // grp2 Eb,1
		0xD1: {enc: encModRM}, // grp2 Ev,1
		0xD2: {enc: encModRM}, // grp2 Eb,CL
		0xD3: {enc: encModRM}, // grp2 Ev,CL
		0xD4: {op: OpAAM, enc: encIb},
		0xD5: {op: OpAAD, enc: encIb},
		0xD6: {op: OpSALC, enc: encNone}, // undocumented but executes
		0xD7: {op: OpXLAT, enc: encNone, mem: memRead},

		0xE0: {op: OpLOOPNE, enc: encRel8, flags: FlagCondBranch},
		0xE1: {op: OpLOOPE, enc: encRel8, flags: FlagCondBranch},
		0xE2: {op: OpLOOP, enc: encRel8, flags: FlagCondBranch},
		0xE3: {op: OpJECXZ, enc: encRel8, flags: FlagCondBranch},
		0xE4: {op: OpIN, enc: encIb, flags: FlagIO},
		0xE5: {op: OpIN, enc: encIb, flags: FlagIO},
		0xE6: {op: OpOUT, enc: encIb, flags: FlagIO},
		0xE7: {op: OpOUT, enc: encIb, flags: FlagIO},
		0xE8: {op: OpCALL, enc: encRelZ, flags: FlagCall | FlagStack},
		0xE9: {op: OpJMP, enc: encRelZ, flags: FlagUncondJump},
		0xEA: {op: OpJMPF, enc: encFarPtr, flags: FlagUncondJump | FlagFar},
		0xEB: {op: OpJMP, enc: encRel8, flags: FlagUncondJump},
		0xEC: {op: OpIN, enc: encNone, flags: FlagIO},
		0xED: {op: OpIN, enc: encNone, flags: FlagIO},
		0xEE: {op: OpOUT, enc: encNone, flags: FlagIO},
		0xEF: {op: OpOUT, enc: encNone, flags: FlagIO},

		0xF0: {enc: encPrefix},
		0xF1: {op: OpINT1, enc: encNone, flags: FlagInt | FlagPrivileged},
		0xF2: {enc: encPrefix},
		0xF3: {enc: encPrefix},
		0xF4: {op: OpHLT, enc: encNone, flags: FlagPrivileged},
		0xF5: {op: OpCMC, enc: encNone},
		0xF6: {enc: encGrp3}, // grp3 Eb
		0xF7: {enc: encGrp3}, // grp3 Ev
		0xF8: {op: OpCLC, enc: encNone},
		0xF9: {op: OpSTC, enc: encNone},
		0xFA: {op: OpCLI, enc: encNone, flags: FlagPrivileged},
		0xFB: {op: OpSTI, enc: encNone, flags: FlagPrivileged},
		0xFC: {op: OpCLD, enc: encNone},
		0xFD: {op: OpSTD, enc: encNone},
		0xFE: {enc: encModRM}, // grp4
		0xFF: {enc: encModRM}, // grp5
	}

	// The eight classic ALU rows share a layout:
	// x0 Eb,Gb  x1 Ev,Gv  x2 Gb,Eb  x3 Gv,Ev  x4 AL,Ib  x5 eAX,Iz.
	// dst is the memory direction of the x0/x1 destination forms.
	alu := func(base int, op Op, dst memDir) {
		fill(&t, base, base+1, entry{op: op, enc: encModRM, mem: dst})
		fill(&t, base+2, base+3, entry{op: op, enc: encModRM, mem: memRead})
		fill(&t, base+4, base+4, entry{op: op, enc: encIb})
		fill(&t, base+5, base+5, entry{op: op, enc: encIz})
	}
	alu(0x00, OpADD, memRW)
	alu(0x08, OpOR, memRW)
	alu(0x10, OpADC, memRW)
	alu(0x18, OpSBB, memRW)
	alu(0x20, OpAND, memRW)
	alu(0x28, OpSUB, memRW)
	alu(0x30, OpXOR, memRW)
	alu(0x38, OpCMP, memRead) // CMP never writes its destination.

	fill(&t, 0x40, 0x47, entry{op: OpINC, enc: encNone})
	fill(&t, 0x48, 0x4F, entry{op: OpDEC, enc: encNone})
	fill(&t, 0x50, 0x57, entry{op: OpPUSH, enc: encNone, flags: FlagStack})
	fill(&t, 0x58, 0x5F, entry{op: OpPOP, enc: encNone, flags: FlagStack})
	fill(&t, 0x70, 0x7F, entry{op: OpJcc, enc: encRel8, flags: FlagCondBranch})
	fill(&t, 0x91, 0x97, entry{op: OpXCHG, enc: encNone})
	fill(&t, 0xB0, 0xB7, entry{op: OpMOV, enc: encIb})
	fill(&t, 0xB8, 0xBF, entry{op: OpMOV, enc: encIz})
	fill(&t, 0xD8, 0xDF, entry{op: OpFPU, enc: encModRM, flags: FlagFPU, mem: memRead})
	return t
}

// twoByte is the 0x0F-escaped opcode map. Entries not filled explicitly
// default to undefined (#UD), which is the architecturally safe default
// for reserved slots.
var twoByte = buildTwoByte()

func buildTwoByte() [256]entry {
	t := [256]entry{
		0x00: {op: OpSysGrp6, enc: encModRM, flags: FlagSystem, mem: memRead},
		0x01: {op: OpSysGrp7, enc: encModRM, flags: FlagSystem | FlagPrivileged, mem: memRead},
		0x02: {op: OpLAR, enc: encModRM, flags: FlagSystem, mem: memRead},
		0x03: {op: OpLSL, enc: encModRM, flags: FlagSystem, mem: memRead},
		0x06: {op: OpCLTS, enc: encNone, flags: FlagPrivileged | FlagSystem},
		0x08: {op: OpINVD, enc: encNone, flags: FlagPrivileged | FlagSystem},
		0x09: {op: OpWBINVD, enc: encNone, flags: FlagPrivileged | FlagSystem},
		0x0B: {op: OpUD2, enc: encNone, flags: FlagUndefined},
		0x0D: {op: OpNOP, enc: encModRM, mem: memNone}, // prefetch hints

		0x20: {op: OpMOVCR, enc: encModRM, flags: FlagPrivileged | FlagSystem},
		0x21: {op: OpMOVDR, enc: encModRM, flags: FlagPrivileged | FlagSystem},
		0x22: {op: OpMOVCR, enc: encModRM, flags: FlagPrivileged | FlagSystem},
		0x23: {op: OpMOVDR, enc: encModRM, flags: FlagPrivileged | FlagSystem},

		0x30: {op: OpWRMSR, enc: encNone, flags: FlagPrivileged | FlagSystem},
		0x31: {op: OpRDTSC, enc: encNone},
		0x32: {op: OpRDMSR, enc: encNone, flags: FlagPrivileged | FlagSystem},
		0x33: {op: OpRDPMC, enc: encNone, flags: FlagPrivileged | FlagSystem},
		0x34: {op: OpSYSENTER, enc: encNone, flags: FlagSystem},
		0x35: {op: OpSYSEXIT, enc: encNone, flags: FlagPrivileged | FlagSystem},
		// 0x38/0x3A escape to the three-byte maps (SSSE3/SSE4 space).
		0x38: {enc: encEscape38},
		0x3A: {enc: encEscape3A},

		0x70: {op: OpSSE, enc: encModRMIb, mem: memRead}, // pshufw
		0x71: {op: OpSSE, enc: encModRMIb},               // grp12
		0x72: {op: OpSSE, enc: encModRMIb},               // grp13
		0x73: {op: OpSSE, enc: encModRMIb},               // grp14
		0x77: {op: OpEMMS, enc: encNone},

		0xA0: {op: OpPUSH, enc: encNone, flags: FlagStack},
		0xA1: {op: OpPOP, enc: encNone, flags: FlagStack},
		0xA2: {op: OpCPUID, enc: encNone},
		0xA3: {op: OpBT, enc: encModRM, mem: memRead},
		0xA4: {op: OpSHLD, enc: encModRMIb, mem: memRW},
		0xA5: {op: OpSHLD, enc: encModRM, mem: memRW},
		0xA8: {op: OpPUSH, enc: encNone, flags: FlagStack},
		0xA9: {op: OpPOP, enc: encNone, flags: FlagStack},
		0xAA: {op: OpRSM, enc: encNone, flags: FlagPrivileged | FlagSystem},
		0xAB: {op: OpBTS, enc: encModRM, mem: memRW},
		0xAC: {op: OpSHRD, enc: encModRMIb, mem: memRW},
		0xAD: {op: OpSHRD, enc: encModRM, mem: memRW},
		0xAE: {op: OpSSE, enc: encModRM, mem: memRead}, // grp15 fences etc.
		0xAF: {op: OpIMUL, enc: encModRM, mem: memRead},

		0xB0: {op: OpCMPXCHG, enc: encModRM, mem: memRW},
		0xB1: {op: OpCMPXCHG, enc: encModRM, mem: memRW},
		0xB2: {op: OpLSS, enc: encModRM, mem: memRead},
		0xB3: {op: OpBTR, enc: encModRM, mem: memRW},
		0xB4: {op: OpLFS, enc: encModRM, mem: memRead},
		0xB5: {op: OpLGS, enc: encModRM, mem: memRead},
		0xB6: {op: OpMOVZX, enc: encModRM, mem: memRead},
		0xB7: {op: OpMOVZX, enc: encModRM, mem: memRead},
		0xBA: {enc: encModRMIb}, // grp8
		0xBB: {op: OpBTC, enc: encModRM, mem: memRW},
		0xBC: {op: OpBSF, enc: encModRM, mem: memRead},
		0xBD: {op: OpBSR, enc: encModRM, mem: memRead},
		0xBE: {op: OpMOVSX, enc: encModRM, mem: memRead},
		0xBF: {op: OpMOVSX, enc: encModRM, mem: memRead},

		0xC0: {op: OpXADD, enc: encModRM, mem: memRW},
		0xC1: {op: OpXADD, enc: encModRM, mem: memRW},
		0xC2: {op: OpSSE, enc: encModRMIb, mem: memRead},
		0xC3: {op: OpMOV, enc: encModRM, mem: memWrite}, // movnti
		0xC4: {op: OpSSE, enc: encModRMIb, mem: memRead},
		0xC5: {op: OpSSE, enc: encModRMIb, mem: memRead},
		0xC6: {op: OpSSE, enc: encModRMIb, mem: memRead},
		0xC7: {op: OpCMPXCHG8B, enc: encModRM, mem: memRW},
	}
	// 0x10-0x17: SSE moves (length-wise plain ModRM forms); 0x18-0x1F:
	// hint NOP space.
	fill(&t, 0x10, 0x17, entry{op: OpSSE, enc: encModRM, mem: memRead})
	fill(&t, 0x18, 0x1F, entry{op: OpNOP, enc: encModRM, mem: memNone})
	fill(&t, 0x28, 0x2F, entry{op: OpSSE, enc: encModRM, mem: memRead})
	fill(&t, 0x40, 0x4F, entry{op: OpCmovcc, enc: encModRM, mem: memRead})
	fill(&t, 0x50, 0x6F, entry{op: OpSSE, enc: encModRM, mem: memRead})
	fill(&t, 0x74, 0x76, entry{op: OpSSE, enc: encModRM, mem: memRead})
	fill(&t, 0x7C, 0x7F, entry{op: OpSSE, enc: encModRM, mem: memRead})
	fill(&t, 0x80, 0x8F, entry{op: OpJcc, enc: encRelZ, flags: FlagCondBranch})
	fill(&t, 0x90, 0x9F, entry{op: OpSetcc, enc: encModRM, mem: memWrite})
	fill(&t, 0xC8, 0xCF, entry{op: OpBSWAP, enc: encNone})
	// 0xD0-0xFE: MMX/SSE arithmetic space (ModRM forms). A few slots are
	// genuinely undefined; keep the common shape and leave 0xFF to #UD.
	fill(&t, 0xD0, 0xFE, entry{op: OpMMX, enc: encModRM, mem: memRead})
	orUndefined(&t, entry{op: OpInvalid, enc: encNone, flags: FlagUndefined})
	return t
}

// threeByte38 is the 0F 38 map: uniformly ModRM-form SIMD operations
// where defined. Only the architecturally defined ranges are marked
// valid; the rest raise #UD.
var threeByte38 = buildThreeByte38()

func buildThreeByte38() [256]entry {
	var t [256]entry
	// SSSE3: 00-0B, 1C-1E; SSE4.1: 10-17, 20-25, 28-2B, 30-3D, 40-41;
	// SSE4.2/CRC: F0-F1.
	sse := entry{op: OpSSE, enc: encModRM, mem: memRead}
	fill(&t, 0x00, 0x0B, sse)
	fill(&t, 0x10, 0x17, sse)
	fill(&t, 0x1C, 0x1E, sse)
	fill(&t, 0x20, 0x25, sse)
	fill(&t, 0x28, 0x2B, sse)
	fill(&t, 0x30, 0x3D, sse)
	fill(&t, 0x40, 0x41, sse)
	fill(&t, 0xF0, 0xF1, sse)
	orUndefined(&t, entry{op: OpInvalid, enc: encModRM, flags: FlagUndefined})
	return t
}

// threeByte3A is the 0F 3A map: ModRM + imm8 forms where defined.
var threeByte3A = buildThreeByte3A()

func buildThreeByte3A() [256]entry {
	var t [256]entry
	sse := entry{op: OpSSE, enc: encModRMIb, mem: memRead}
	fill(&t, 0x08, 0x0F, sse) // round/blend/palignr
	fill(&t, 0x14, 0x17, sse) // pextr/extractps
	fill(&t, 0x20, 0x22, sse) // pinsr/insertps
	fill(&t, 0x40, 0x42, sse) // dpps/dppd/mpsadbw
	fill(&t, 0x60, 0x63, sse) // pcmpestr/pcmpistr
	orUndefined(&t, entry{op: OpInvalid, enc: encModRMIb, flags: FlagUndefined})
	return t
}
