package x86

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestTableInvariants checks structural properties of the opcode maps
// rather than individual entries.
func TestTableInvariants(t *testing.T) {
	prefixes := map[byte]bool{
		0x26: true, 0x2E: true, 0x36: true, 0x3E: true,
		0x64: true, 0x65: true, 0x66: true, 0x67: true,
		0xF0: true, 0xF2: true, 0xF3: true,
	}
	for b := 0; b < 256; b++ {
		e := oneByte[b]
		if prefixes[byte(b)] != (e.enc == encPrefix) {
			t.Errorf("opcode %#02x: prefix classification mismatch", b)
		}
		if byte(b) == 0x0F != (e.enc == encEscape) {
			t.Errorf("opcode %#02x: escape classification mismatch", b)
		}
	}
}

// TestIOFlagCoverage: exactly the IN/OUT/INS/OUTS opcodes carry FlagIO.
func TestIOFlagCoverage(t *testing.T) {
	ioOpcodes := map[byte]bool{
		0x6C: true, 0x6D: true, 0x6E: true, 0x6F: true,
		0xE4: true, 0xE5: true, 0xE6: true, 0xE7: true,
		0xEC: true, 0xED: true, 0xEE: true, 0xEF: true,
	}
	for b := 0; b < 256; b++ {
		has := oneByte[b].flags.Has(FlagIO)
		if has != ioOpcodes[byte(b)] {
			t.Errorf("opcode %#02x: IO flag = %v, want %v", b, has, ioOpcodes[byte(b)])
		}
	}
}

// TestCondBranchCoverage: 0x70-0x7F and E0-E3 are the one-byte
// conditional branches; 0F 80-8F the two-byte ones.
func TestCondBranchCoverage(t *testing.T) {
	for b := 0; b < 256; b++ {
		want := b >= 0x70 && b <= 0x7F || b >= 0xE0 && b <= 0xE3
		if got := oneByte[b].flags.Has(FlagCondBranch); got != want {
			t.Errorf("opcode %#02x: cond-branch = %v, want %v", b, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		want := b >= 0x80 && b <= 0x8F
		if got := twoByte[b].flags.Has(FlagCondBranch); got != want {
			t.Errorf("0F %02x: cond-branch = %v, want %v", b, got, want)
		}
	}
}

// TestRelativeBranchesHaveTargets: every instruction the tables mark as
// rel8/relZ must produce HasRelTarget when decoded.
func TestRelativeBranchesHaveTargets(t *testing.T) {
	tail := []byte{0x01, 0x02, 0x03, 0x04, 0x05}
	for b := 0; b < 256; b++ {
		e := oneByte[b]
		if e.enc != encRel8 && e.enc != encRelZ {
			continue
		}
		inst, err := Decode(append([]byte{byte(b)}, tail...), 0)
		if err != nil {
			t.Fatalf("opcode %#02x: %v", b, err)
		}
		if !inst.HasRelTarget {
			t.Errorf("opcode %#02x: no rel target", b)
		}
	}
}

// TestStackFlagCoverage: push/pop/call/ret/enter/leave/pusha families
// carry FlagStack.
func TestStackFlagCoverage(t *testing.T) {
	mustStack := [][]byte{
		{0x50}, {0x5F}, {0x68, 1, 2, 3, 4}, {0x6A, 1},
		{0x60}, {0x61}, {0x9C}, {0x9D},
		{0xC2, 0, 0}, {0xC3}, {0xC8, 0, 0, 0}, {0xC9},
		{0xE8, 0, 0, 0, 0}, {0x06}, {0x07},
		{0xFF, 0x30}, // push [eax]
		{0x8F, 0x00}, // pop [eax]
	}
	for _, code := range mustStack {
		inst, err := Decode(code, 0)
		if err != nil {
			t.Fatalf("% x: %v", code, err)
		}
		if !inst.Flags.Has(FlagStack) {
			t.Errorf("% x (%s): missing stack flag", code, inst.Mnemonic())
		}
	}
}

// TestReferenceEncodings checks a battery of hand-assembled instructions
// (lengths cross-checked against a reference assembler).
func TestReferenceEncodings(t *testing.T) {
	cases := []struct {
		asm  string
		code []byte
		op   Op
	}{
		{"add [ebx+esi*2+0x10], ecx", []byte{0x01, 0x4C, 0x73, 0x10}, OpADD},
		{"or eax, 0x12345678", []byte{0x0D, 0x78, 0x56, 0x34, 0x12}, OpOR},
		{"adc bl, 0x7F", []byte{0x80, 0xD3, 0x7F}, OpADC},
		{"sbb edx, [edi]", []byte{0x1B, 0x17}, OpSBB},
		{"and esp, 0xFFFFFFF0", []byte{0x83, 0xE4, 0xF0}, OpAND},
		{"sub esp, 0x100", []byte{0x81, 0xEC, 0x00, 0x01, 0x00, 0x00}, OpSUB},
		{"xor byte [ecx], 0x41", []byte{0x80, 0x31, 0x41}, OpXOR},
		{"cmp dword [ebp-4], 7", []byte{0x83, 0x7D, 0xFC, 0x07}, OpCMP},
		{"test al, 0x80", []byte{0xA8, 0x80}, OpTEST},
		{"mov edi, [esp+0x20]", []byte{0x8B, 0x7C, 0x24, 0x20}, OpMOV},
		{"mov word [eax], 0x1234", []byte{0x66, 0xC7, 0x00, 0x34, 0x12}, OpMOV},
		{"lea esi, [ebx+ebx*4]", []byte{0x8D, 0x34, 0x9B}, OpLEA},
		{"imul eax, edx, 100", []byte{0x6B, 0xC2, 0x64}, OpIMUL},
		{"imul ecx, [eax], 0x1000", []byte{0x69, 0x08, 0x00, 0x10, 0x00, 0x00}, OpIMUL},
		{"shl eax, 4", []byte{0xC1, 0xE0, 0x04}, OpSHL},
		{"sar dword [ecx], 1", []byte{0xD1, 0x39}, OpSAR},
		{"rol bl, cl", []byte{0xD2, 0xC3}, OpROL},
		{"inc dword [eax]", []byte{0xFF, 0x00}, OpINC},
		{"dec byte [esi+1]", []byte{0xFE, 0x4E, 0x01}, OpDEC},
		{"neg dword [esp]", []byte{0xF7, 0x5C, 0x24, 0x00}, OpNEG},
		{"div dword [ebp+8]", []byte{0xF7, 0x75, 0x08}, OpDIV},
		{"movzx eax, byte [ebx]", []byte{0x0F, 0xB6, 0x03}, OpMOVZX},
		{"movsx edx, word [eax+2]", []byte{0x0F, 0xBF, 0x50, 0x02}, OpMOVSX},
		{"bt eax, edx", []byte{0x0F, 0xA3, 0xD0}, OpBT},
		{"bts dword [eax], 3", []byte{0x0F, 0xBA, 0x28, 0x03}, OpBTS},
		{"shld eax, ebx, 8", []byte{0x0F, 0xA4, 0xD8, 0x08}, OpSHLD},
		{"cmpxchg [ecx], edx", []byte{0x0F, 0xB1, 0x11}, OpCMPXCHG},
		{"xadd [eax], ebx", []byte{0x0F, 0xC1, 0x18}, OpXADD},
		{"cmpxchg8b [esi]", []byte{0x0F, 0xC7, 0x0E}, OpCMPXCHG8B},
		{"bsf eax, ecx", []byte{0x0F, 0xBC, 0xC1}, OpBSF},
		{"bsr edx, [eax]", []byte{0x0F, 0xBD, 0x10}, OpBSR},
		{"lar eax, cx", []byte{0x0F, 0x02, 0xC1}, OpLAR},
		{"lsl ebx, dx", []byte{0x0F, 0x03, 0xDA}, OpLSL},
		{"lss esp, [eax]", []byte{0x0F, 0xB2, 0x20}, OpLSS},
		{"les edi, [ebx]", []byte{0xC4, 0x3B}, OpLES},
		{"lds esi, [ecx]", []byte{0xC5, 0x31}, OpLDS},
		{"loop -2", []byte{0xE2, 0xFE}, OpLOOP},
		{"in al, 0x60", []byte{0xE4, 0x60}, OpIN},
		{"out dx, eax", []byte{0xEF}, OpOUT},
		{"pushad", []byte{0x60}, OpPUSHA},
		{"xchg eax, ebp", []byte{0x95}, OpXCHG},
		{"sahf", []byte{0x9E}, OpSAHF},
		{"cmc", []byte{0xF5}, OpCMC},
		{"lock inc dword [eax]", []byte{0xF0, 0xFF, 0x00}, OpINC},
		{"rep movsd", []byte{0xF3, 0xA5}, OpMOVS},
	}
	for _, c := range cases {
		inst, err := Decode(c.code, 0)
		if err != nil {
			t.Errorf("%s: %v", c.asm, err)
			continue
		}
		if inst.Op != c.op {
			t.Errorf("%s: op = %v, want %v", c.asm, inst.Op, c.op)
		}
		if inst.Len != len(c.code) {
			t.Errorf("%s: len = %d, want %d", c.asm, inst.Len, len(c.code))
		}
	}
}

// TestLockAndRepPrefixesRecorded verifies prefix bookkeeping.
func TestLockAndRepPrefixesRecorded(t *testing.T) {
	inst, err := Decode([]byte{0xF0, 0xFF, 0x00}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Prefixes.Lock {
		t.Error("lock prefix not recorded")
	}
	inst, err = Decode([]byte{0xF3, 0xA4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Prefixes.Rep || inst.Prefixes.RepNE {
		t.Error("rep prefix not recorded")
	}
	inst, err = Decode([]byte{0xF2, 0xAE}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Prefixes.RepNE {
		t.Error("repne prefix not recorded")
	}
}

// TestRelZWith16BitOperand: the 0x66 prefix shrinks relZ displacements.
func TestRelZWith16BitOperand(t *testing.T) {
	inst, err := Decode([]byte{0x66, 0xE9, 0x10, 0x00}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len != 4 {
		t.Errorf("jmp rel16 len = %d, want 4", inst.Len)
	}
	if inst.RelTarget != 4+0x10 {
		t.Errorf("target = %d", inst.RelTarget)
	}
	// Negative 16-bit displacement sign-extends.
	inst, err = Decode([]byte{0x66, 0xE9, 0xFC, 0xFF}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.RelTarget != 0 {
		t.Errorf("negative rel16 target = %d, want 0", inst.RelTarget)
	}
}

// TestGroup2Forms covers all four group-2 dispatch opcodes.
func TestGroup2Forms(t *testing.T) {
	cases := []struct {
		code []byte
		op   Op
		l    int
	}{
		{[]byte{0xC0, 0xE0, 0x04}, OpSHL, 3}, // shl al,4
		{[]byte{0xC1, 0xF8, 0x02}, OpSAR, 3}, // sar eax,2
		{[]byte{0xD0, 0xC8}, OpROR, 2},       // ror al,1
		{[]byte{0xD3, 0xE2}, OpSHL, 2},       // shl edx,cl
		{[]byte{0xD1, 0xD1}, OpRCL, 2},       // rcl ecx,1
		{[]byte{0xC0, 0xD8, 0x01}, OpRCR, 3}, // rcr al,1
	}
	for _, c := range cases {
		inst, err := Decode(c.code, 0)
		if err != nil {
			t.Fatalf("% x: %v", c.code, err)
		}
		if inst.Op != c.op || inst.Len != c.l {
			t.Errorf("% x: op=%v len=%d, want %v/%d", c.code, inst.Op, inst.Len, c.op, c.l)
		}
	}
}

// TestMemDirectionTable: the read/write classification drives both the
// emulator and the wrong-segment rule; spot-check the table's direction
// decisions.
func TestMemDirectionTable(t *testing.T) {
	cases := []struct {
		code  []byte
		read  bool
		write bool
	}{
		{[]byte{0x89, 0x01}, false, true},       // mov [ecx], eax
		{[]byte{0x8B, 0x01}, true, false},       // mov eax, [ecx]
		{[]byte{0x01, 0x01}, true, true},        // add [ecx], eax (RMW)
		{[]byte{0x39, 0x01}, true, false},       // cmp [ecx], eax
		{[]byte{0x85, 0x01}, true, false},       // test [ecx], eax
		{[]byte{0xC6, 0x01, 0x41}, false, true}, // mov byte [ecx], 'A'
		{[]byte{0x0F, 0x94, 0x01}, false, true}, // sete [ecx]
		{[]byte{0xFF, 0x31}, true, false},       // push [ecx]
		{[]byte{0x8F, 0x01}, false, true},       // pop [ecx]
	}
	for _, c := range cases {
		inst, err := Decode(c.code, 0)
		if err != nil {
			t.Fatalf("% x: %v", c.code, err)
		}
		if inst.MemRead != c.read || inst.MemWrite != c.write {
			t.Errorf("% x (%s): read=%v write=%v, want %v/%v",
				c.code, inst.Mnemonic(), inst.MemRead, inst.MemWrite, c.read, c.write)
		}
	}
}

// TestOpNamesComplete: every Op constant has a mnemonic.
func TestOpNamesComplete(t *testing.T) {
	for op := OpInvalid; op < opMax; op++ {
		if op.String() == "(unknown)" {
			t.Errorf("op %d has no name", op)
		}
	}
}

func TestThreeByteOpcodes(t *testing.T) {
	// pshufb xmm-ish form: 0F 38 00 /r (ModRM).
	inst, err := Decode([]byte{0x0F, 0x38, 0x00, 0x01}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.ThreeByte || inst.Op != OpSSE || inst.Len != 4 || !inst.MemAccess {
		t.Errorf("0F 38 00: %+v", inst)
	}
	// palignr: 0F 3A 0F /r imm8.
	inst, err = Decode([]byte{0x0F, 0x3A, 0x0F, 0xC1, 0x04}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.ThreeByte || inst.Op != OpSSE || inst.Len != 5 || inst.Imm != 4 {
		t.Errorf("0F 3A 0F: %+v", inst)
	}
	// Undefined three-byte slots raise #UD but still measure length.
	inst, err = Decode([]byte{0x0F, 0x38, 0xC8, 0x01}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Flags.Has(FlagUndefined) {
		t.Error("0F 38 C8 should be undefined")
	}
	// Truncation inside the escape chain.
	if _, err := Decode([]byte{0x0F, 0x38}, 0); !isTruncated(err) {
		t.Errorf("truncated three-byte: %v", err)
	}
	if _, err := Decode([]byte{0x0F, 0x3A, 0x0F, 0xC1}, 0); !isTruncated(err) {
		t.Errorf("truncated imm: %v", err)
	}
}

func isTruncated(err error) bool { return err == ErrTruncated }

func TestEveryThreeByteOpcodeDecodes(t *testing.T) {
	tail := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}
	for _, esc := range []byte{0x38, 0x3A} {
		for b := 0; b < 256; b++ {
			code := append([]byte{0x0F, esc, byte(b)}, tail...)
			inst, err := Decode(code, 0)
			if err != nil {
				t.Fatalf("0F %02x %02x: %v", esc, b, err)
			}
			if inst.Len < 3 || inst.Len > MaxInstLen {
				t.Fatalf("0F %02x %02x: len=%d", esc, b, inst.Len)
			}
		}
	}
}

// entryMaps and groupTables are the linked decode tables the two tests
// below walk.
var entryMaps = []struct {
	name string
	t    *[256]entry
}{
	{"oneByte", &oneByte}, {"twoByte", &twoByte},
	{"threeByte38", &threeByte38}, {"threeByte3A", &threeByte3A},
}

var groupTables = []struct {
	name string
	g    *[8]groupOp
}{
	{"grp1", &grp1}, {"grp2", &grp2}, {"grp3", &grp3},
	{"grp4", &grp4}, {"grp5", &grp5}, {"grp8", &grp8},
}

// TestTableDigestPinned pins every slot of the four opcode maps and
// the group tables by SHA-256, so a rewrite of how the tables are
// built must leave them bit-identical. Change the digest only with a
// deliberate change to a table entry.
func TestTableDigestPinned(t *testing.T) {
	h := sha256.New()
	for _, m := range entryMaps {
		for b, e := range m.t {
			fmt.Fprintf(h, "%s %02x %d %d %d %d\n", m.name, b, int(e.op), int(e.enc), uint32(e.flags), int(e.mem))
		}
	}
	for _, g := range groupTables {
		for r, e := range g.g {
			fmt.Fprintf(h, "%s /%d %d %d %d\n", g.name, r, int(e.op), uint32(e.flags), int(e.mem))
		}
	}
	const want = "dd24cf16608cf9cb1a998f653e748a910c54640d07c8992d37131368d6e1fed9"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("table digest = %s, want %s", got, want)
	}
}

// TestTableEntriesWellFormed checks the linked tables slot by slot:
// no slot is left zero (it would decode as a one-byte instruction with
// no op and no flags, and no code path would have decided so),
// routing entries carry nothing the decoder never reads, and encodings
// without a ModRM byte, like #UD entries, declare no memory direction.
// Group rows must all be set: a short [8]groupOp literal zero-fills.
func TestTableEntriesWellFormed(t *testing.T) {
	for _, m := range entryMaps {
		for b, e := range m.t {
			where := fmt.Sprintf("%s[%#02x]", m.name, b)
			if e == (entry{}) {
				t.Errorf("%s is the zero entry", where)
			}
			switch e.enc {
			case encPrefix, encEscape, encEscape38, encEscape3A:
				if e.op != 0 || e.flags != 0 || e.mem != memNone {
					t.Errorf("%s is a routing entry but carries op/flags/mem %+v", where, e)
				}
			case encIb, encIz, encIw, encIwIb, encRel8, encRelZ, encFarPtr:
				if e.mem != memNone {
					t.Errorf("%s has no ModRM byte but declares memory direction %d", where, e.mem)
				}
			}
			if e.flags.Has(FlagUndefined) && e.mem != memNone {
				t.Errorf("%s is FlagUndefined but declares memory direction %d", where, e.mem)
			}
		}
	}
	for _, g := range groupTables {
		for r, e := range g.g {
			if e == (groupOp{}) {
				t.Errorf("%s /%d is the zero groupOp", g.name, r)
			}
		}
	}
}
