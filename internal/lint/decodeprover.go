package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/mel"
	"repro/internal/x86"
)

// melverify: the decoder-equivalence prover.
//
// The MEL detector is only as trustworthy as its instruction-length
// decoder: one encoding where the quick1/segDerive/quick2/expandSIB
// table layers disagree with the spec decoder that serves every other
// offset silently shifts MEL and breaks the detector's false-positive
// guarantee. The runtime differential suite samples that agreement;
// this analyzer family proves it over the bounded x86 encoding space
// and turns every divergence into a concrete byte-sequence witness.
//
// Three legs, two analyzers:
//
//   - decodeprover, static leg 1 (inventory): every engine-lifetime
//     packed table in internal/mel — package-level vars and Engine
//     fields holding integer arrays of ≥ 256 slots — must be in the
//     prover's modeled set. A new table cannot dodge verification
//     silently.
//   - decodeprover, static leg 2 (constructors): the SIB address-form
//     tables linked into this very binary are compared element by
//     element against an independently written ISA specification.
//   - decodeprover, dynamic leg: the bounded encoding space — prefix
//     set × opcode ± 0F map × ModRM × SIB × displacement/immediate
//     classes, plus truncation at every cut point — is exhaustively
//     enumerated per rule set, and the fused record builder
//     (Engine.FusedRecords) is required to agree bit-for-bit with the
//     specification decoder (Engine.ReferenceRecord) at every offset
//     of every enumerated stream.
//   - dpinvariants: a second pass over structured streams proving the
//     fused DP's internal invariants (Engine.VerifyScanInvariants):
//     every record scanFused consumes is one the spec derives, the
//     back-edge count matches a direct tally, and the fused result —
//     including the chain-walk fallback — equals ScanReference down to
//     the explored-state count.
//
// Soundness boundary: the dynamic leg verifies the decoder compiled
// into the running mellint binary, which `go run ./cmd/mellint` builds
// from the same tree the static legs read. Suffix truncation at every
// cut point falls out of comparing all offsets of finite streams: the
// record at offset k of an n-byte stream is the truncated decode of a
// stream of n-k bytes.

// VerifyStats accumulates run accounting the caller (cmd/mellint) can
// print after the verify analyzers finish. The analyzers lock mu when
// writing; read it only after Run returns.
type VerifyStats struct {
	mu sync.Mutex
	// Streams and RecordCmps count the dynamic leg's enumerated byte
	// streams and per-offset record comparisons.
	Streams    int64
	RecordCmps int64
	// InvariantScans counts dpinvariants' full-scan invariant checks.
	InvariantScans int64
	// Divergences counts every observed disagreement, including those
	// beyond the per-engine witness cap.
	Divergences int64
	// Incomplete names enumeration stages cut short by the budget.
	Incomplete []string
}

func (s *VerifyStats) update(f func(*VerifyStats)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s)
}

// VerifyConfig parameterizes the verify analyzer family.
type VerifyConfig struct {
	// Quick shrinks the enumeration to a seconds-scale smoke pass —
	// for tests; CI runs the full space.
	Quick bool
	// Budget bounds the family's total wall time; zero means no
	// deadline. Hitting the deadline is itself a finding: an
	// incomplete proof must fail the gate, not pass it quietly.
	Budget time.Duration
	// CorpusDir, when set, receives every divergence witness as a go
	// fuzz corpus seed for FuzzScanDifferential.
	CorpusDir string
	// Stats, when set, receives run accounting.
	Stats *VerifyStats
}

// verifyClock is the deadline shared by the analyzer family. The
// deadline starts at the first expiry check, not at construction, so
// flag parsing and module loading do not eat the budget.
type verifyClock struct {
	budget time.Duration
	once   sync.Once
	dl     time.Time
}

func (c *verifyClock) expired() bool {
	if c == nil || c.budget <= 0 {
		return false
	}
	c.once.Do(func() { c.dl = time.Now().Add(c.budget) })
	return time.Now().After(c.dl)
}

// VerifyAnalyzers returns the melverify analyzer family. It is
// deliberately not part of Analyzers(): the exhaustive pass is a
// separate gate (`mellint -verify`, `make verify`), not a default
// lint.
func VerifyAnalyzers(cfg VerifyConfig) []*Analyzer {
	clock := &verifyClock{budget: cfg.Budget}
	return []*Analyzer{
		{
			Name: "decodeprover",
			Doc:  "prove the fused packed-record decoder equivalent to the reference decoder over the bounded x86 encoding space",
			Run:  func(pass *Pass) { runDecodeProver(pass, cfg, clock) },
		},
		{
			Name: "dpinvariants",
			Doc:  "prove the fused DP's record-consumption and chain-walk invariants over structured streams",
			Run:  func(pass *Pass) { runDPInvariants(pass, cfg, clock) },
		},
	}
}

// maxWitnesses caps reported witnesses per engine; the total
// divergence count is still reported.
const maxWitnesses = 8

// proverEngine is one rule set under verification, with the
// FuzzScanDifferential selector byte that reproduces it.
type proverEngine struct {
	name string
	sel  uint8
	e    *mel.Engine
}

// proverEngines compiles the four rule sets the repository ships.
func proverEngines() []proverEngine {
	return []proverEngine{
		{"dawn", 0, mel.NewEngine(mel.DAWN())},
		{"dawn-stateless", 1, mel.NewEngine(mel.DAWNStateless())},
		{"ape", 2, mel.NewEngine(mel.APE())},
		{"plain", 3, mel.NewEngine(mel.Rules{})},
	}
}

// ProverWitness is one concrete divergence: a byte stream and the
// offset where the two decoder models produced different records.
type ProverWitness struct {
	Engine string
	Sel    uint8
	Layer  string
	Stream []byte
	Off    int
	Fused  uint64
	Spec   uint64
}

func (w ProverWitness) String() string {
	return fmt.Sprintf("engine %s, layer %s: stream %x offset %d: fused %#016x (%+v) != spec %#016x (%+v)",
		w.Engine, w.Layer, w.Stream, w.Off,
		w.Fused, mel.UnpackRecord(w.Fused), w.Spec, mel.UnpackRecord(w.Spec))
}

// proverReport is the outcome of one dynamic-leg run.
type proverReport struct {
	Streams    int64
	RecordCmps int64
	Divergent  int64
	Witnesses  []ProverWitness
	// Incomplete names the layer the budget interrupted ("" = the
	// full space was enumerated).
	Incomplete string
}

// proverRun is the in-flight enumeration state.
type proverRun struct {
	clock   *verifyClock
	quick   bool
	rep     proverReport
	perEng  map[string]int
	buf     []byte
	recs    []uint64
	layer   string
	stopped bool
}

// Displacement/immediate byte classes: zero, minus one, the int8/int32
// minimum, and a mixed tail that embeds the maximum forward rel8, SIB
// bytes, a short back edge (EB FE), rep string ops, an operand-size
// prefix, and an 0F escape — so trailing-byte-sensitive forms see every
// displacement sign class and several real instruction boundaries.
func proverLongTails() [][]byte {
	return [][]byte{
		bytes.Repeat([]byte{0x00}, 15),
		bytes.Repeat([]byte{0xFF}, 15),
		bytes.Repeat([]byte{0x80}, 15),
		{0x7F, 0x24, 0x05, 0xEB, 0xFE, 0x90, 0xF3, 0xA4, 0x66, 0xC3, 0x0F, 0xB6, 0x41, 0x04, 0x7F},
	}
}

// Cut tails force truncation at every early cut point: an instruction
// needing more bytes than the stream holds must decode invalid
// identically in both models.
func proverCutTails() [][]byte {
	return [][]byte{
		nil,
		{0x80},
		{0x00, 0x00},
		{0xFF, 0x24, 0x01},
		{0x04, 0x24, 0x80, 0x00, 0x00},
	}
}

// proverPrefixes is the full legacy prefix set the decoder models:
// segment overrides, operand size, address size, lock, and the rep
// pair.
func proverPrefixes() []byte {
	return []byte{0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67, 0xF0, 0xF2, 0xF3}
}

// modrmReps is the representative ModRM set used where the full 256
// sweep already ran in another layer: it covers every address-shape
// class the record depends on — direct register (mod 3, incl. a
// group-slot reg), disp-only absolute, SIB at each mod, plain base,
// base+disp8.
func modrmReps() []byte {
	return []byte{0x00, 0x04, 0x05, 0x44, 0x45, 0x84, 0xC0, 0xE8}
}

// modrmOpcodes lists the opcode bytes of one map whose encoding takes
// a ModRM byte, per the x86 table export.
func modrmOpcodes(twoByte bool) []byte {
	var out []byte
	for b := 0; b < 256; b++ {
		var ti x86.TableInfo
		if twoByte {
			ti = x86.TwoByteInfo(byte(b))
		} else {
			ti = x86.OneByteInfo(byte(b))
		}
		switch ti.Shape {
		case x86.ShapeModRM, x86.ShapeModRMIb, x86.ShapeModRMIz, x86.ShapeGroup3:
			out = append(out, byte(b))
		}
	}
	return out
}

// proveDecoderEquivalence runs the dynamic leg: exhaustive enumeration
// of the bounded encoding space per engine, comparing the fused record
// builder against the specification decoder at every offset of every
// stream.
func proveDecoderEquivalence(engines []proverEngine, quick bool, clock *verifyClock) proverReport {
	pr := &proverRun{
		clock:  clock,
		quick:  quick,
		perEng: make(map[string]int),
		buf:    make([]byte, 0, 64),
	}
	for i := range engines {
		pe := &engines[i]
		pr.layerSingles(pe)
		pr.layerPairs(pe)
		if !quick {
			pr.layerPrefixOpcodeModRM(pe)
			pr.layerPrefixPairs(pe)
			pr.layerTwoByteModRM(pe)
		}
		pr.layerSIB(pe)
		if pr.stopped {
			break
		}
	}
	return pr.rep
}

// deadline polls the shared budget; once expired, every layer unwinds
// and the report is marked incomplete at the interrupted layer.
func (pr *proverRun) deadline() bool {
	if pr.stopped {
		return true
	}
	if pr.clock.expired() {
		pr.stopped = true
		pr.rep.Incomplete = pr.layer
	}
	return pr.stopped
}

// check compares the two decoder models on one stream, at every
// offset.
func (pr *proverRun) check(pe *proverEngine, stream []byte) {
	pr.rep.Streams++
	pr.rep.RecordCmps += int64(len(stream))
	pr.recs = pe.e.FusedRecords(stream, pr.recs)
	for off := range stream {
		want := pe.e.ReferenceRecord(stream, off)
		if pr.recs[off] != want {
			pr.rep.Divergent++
			if pr.perEng[pe.name] < maxWitnesses {
				pr.perEng[pe.name]++
				pr.rep.Witnesses = append(pr.rep.Witnesses, ProverWitness{
					Engine: pe.name,
					Sel:    pe.sel,
					Layer:  pr.layer,
					Stream: append([]byte(nil), stream...),
					Off:    off,
					Fused:  pr.recs[off],
					Spec:   want,
				})
			}
			return
		}
	}
}

// stem assembles stem+tail into the run's scratch buffer.
func (pr *proverRun) stream(stem []byte, tail []byte) []byte {
	pr.buf = append(pr.buf[:0], stem...)
	return append(pr.buf, tail...)
}

// layerSingles: every single byte × every displacement class and cut
// point.
func (pr *proverRun) layerSingles(pe *proverEngine) {
	pr.layer = "singles"
	tails := append(proverLongTails(), proverCutTails()...)
	for b0 := 0; b0 < 256; b0++ {
		if pr.deadline() {
			return
		}
		stem := [1]byte{byte(b0)}
		for _, tail := range tails {
			pr.check(pe, pr.stream(stem[:], tail))
		}
	}
}

// layerPairs: every two-byte stem — prefix+opcode, escape+opcode,
// opcode+ModRM, opcode+imm8 — against the displacement classes and
// early cut points.
func (pr *proverRun) layerPairs(pe *proverEngine) {
	pr.layer = "pairs"
	long := proverLongTails()
	tails := [][]byte{long[0], long[3], nil, {0x80}}
	if !pr.quick {
		tails = append(tails, long[1], long[2], []byte{0x00, 0x00}, []byte{0xFF, 0x24, 0x01})
	}
	for b0 := 0; b0 < 256; b0++ {
		if pr.deadline() {
			return
		}
		for b1 := 0; b1 < 256; b1++ {
			stem := [2]byte{byte(b0), byte(b1)}
			for _, tail := range tails {
				pr.check(pe, pr.stream(stem[:], tail))
			}
		}
	}
}

// layerPrefixOpcodeModRM: one prefix × full opcode map × full ModRM.
// This is the layer that proves segDerive (the backward prefixed-record
// derivation) against re-decoding for every suffix record shape.
func (pr *proverRun) layerPrefixOpcodeModRM(pe *proverEngine) {
	pr.layer = "prefix-opcode-modrm"
	tail := bytes.Repeat([]byte{0x00}, 12)
	back := []byte{0xEB, 0xF0}
	for _, p := range proverPrefixes() {
		for b0 := 0; b0 < 256; b0++ {
			if pr.deadline() {
				return
			}
			for b1 := 0; b1 < 256; b1++ {
				stem := [3]byte{p, byte(b0), byte(b1)}
				pr.check(pe, pr.stream(stem[:], tail))
				pr.check(pe, pr.stream(stem[:], back))
			}
		}
	}
}

// layerPrefixPairs: every ordered prefix pair × full opcode map ×
// representative ModRM. Suffix records under a single prefix are fully
// proven by layerPrefixOpcodeModRM; a second prefix only re-runs
// segDerive over fields the representative set already spans
// (validity, length, rec66Same, memory access, segment presence).
func (pr *proverRun) layerPrefixPairs(pe *proverEngine) {
	pr.layer = "prefix-pairs"
	prefixes := proverPrefixes()
	reps := modrmReps()
	tail := bytes.Repeat([]byte{0x00}, 10)
	for _, p1 := range prefixes {
		for _, p2 := range prefixes {
			if pr.deadline() {
				return
			}
			for b0 := 0; b0 < 256; b0++ {
				for _, m := range reps {
					stem := [4]byte{p1, p2, byte(b0), m}
					pr.check(pe, pr.stream(stem[:], tail))
				}
			}
		}
	}
}

// layerSIB: every ModRM opcode of both maps × every memory mod × every
// reg field × every SIB byte, against a zero and a sign-extreme
// displacement class. Proves compileSIBPartial/expandSIB against the
// spec for the complete SIB space.
func (pr *proverRun) layerSIB(pe *proverEngine) {
	pr.layer = "sib"
	tails := [][]byte{bytes.Repeat([]byte{0x00}, 8), bytes.Repeat([]byte{0x80}, 8)}
	ops := modrmOpcodes(false)
	twoOps := modrmOpcodes(true)
	if pr.quick {
		ops = []byte{0x8B, 0x8D, 0xFF}
		twoOps = nil
		tails = tails[:1]
	}
	run := func(esc bool, op byte) {
		for mod := byte(0); mod < 3; mod++ {
			for reg := byte(0); reg < 8; reg++ {
				modrm := mod<<6 | reg<<3 | 4
				for s := 0; s < 256; s++ {
					var stem []byte
					if esc {
						stem = []byte{0x0F, op, modrm, byte(s)}
					} else {
						stem = []byte{op, modrm, byte(s)}
					}
					for _, tail := range tails {
						pr.check(pe, pr.stream(stem, tail))
					}
				}
			}
		}
	}
	for _, op := range ops {
		if pr.deadline() {
			return
		}
		run(false, op)
	}
	for _, op := range twoOps {
		if pr.deadline() {
			return
		}
		run(true, op)
	}
}

// layerTwoByteModRM: the full 0F map × full ModRM (beyond the SIB
// forms layerSIB covers), including group 8 (0F BA) slot selection.
func (pr *proverRun) layerTwoByteModRM(pe *proverEngine) {
	pr.layer = "twobyte-modrm"
	tails := [][]byte{bytes.Repeat([]byte{0x00}, 8), bytes.Repeat([]byte{0xFF}, 8)}
	for b0 := 0; b0 < 256; b0++ {
		if pr.deadline() {
			return
		}
		for b1 := 0; b1 < 256; b1++ {
			stem := [3]byte{0x0F, byte(b0), byte(b1)}
			for _, tail := range tails {
				pr.check(pe, pr.stream(stem[:], tail))
			}
		}
	}
}

// ----------------------------------------------------------------------
// decodeprover analyzer.

func runDecodeProver(pass *Pass, cfg VerifyConfig, clock *verifyClock) {
	melPkg := findModulePackage(pass.Module, "internal/mel")
	if melPkg == nil {
		// Not this repository's module (e.g. a fixture): the prover
		// has nothing to anchor its findings to.
		return
	}
	checkTableInventory(pass, melPkg)
	checkAddressConstructors(pass, melPkg)

	anchor := findFuncPos(melPkg, "buildRecords")
	rep := proveDecoderEquivalence(proverEngines(), cfg.Quick, clock)
	for _, w := range rep.Witnesses {
		pass.Reportf(anchor, "decoder divergence: %s", w)
	}
	if rep.Divergent > int64(len(rep.Witnesses)) {
		pass.Reportf(anchor, "decoder divergence: %d further divergence(s) beyond the %d reported witnesses",
			rep.Divergent-int64(len(rep.Witnesses)), len(rep.Witnesses))
	}
	if rep.Incomplete != "" {
		pass.Reportf(anchor, "verification incomplete: budget exhausted during the %q enumeration layer (%d streams, %d record comparisons done); raise -verify-budget or fix the regression that slowed the pass",
			rep.Incomplete, rep.Streams, rep.RecordCmps)
	}
	if cfg.CorpusDir != "" && len(rep.Witnesses) > 0 {
		if err := WriteWitnessSeeds(cfg.CorpusDir, rep.Witnesses); err != nil {
			pass.Reportf(anchor, "writing witness corpus: %v", err)
		}
	}
	cfg.Stats.update(func(s *VerifyStats) {
		s.Streams += rep.Streams
		s.RecordCmps += rep.RecordCmps
		s.Divergences += rep.Divergent
		if rep.Incomplete != "" {
			s.Incomplete = append(s.Incomplete, "decodeprover/"+rep.Incomplete)
		}
	})
}

// findModulePackage resolves a module-relative import path suffix to a
// loaded package.
func findModulePackage(m *Module, rel string) *Package {
	want := m.PkgPath + "/" + rel
	for _, p := range m.Pkgs {
		if p.Path == want {
			return p
		}
	}
	return nil
}

// findFuncPos locates a function or method declaration by name for
// diagnostic anchoring; the package position is the fallback.
func findFuncPos(pkg *Package, name string) token.Pos {
	var pos token.Pos
	eachFunc(pkg, func(fd *ast.FuncDecl) {
		if fd.Name.Name == name && !pos.IsValid() {
			pos = fd.Name.Pos()
		}
	})
	if !pos.IsValid() && len(pkg.Files) > 0 {
		pos = pkg.Files[0].Package
	}
	return pos
}

// modeledTables is the prover's model boundary: every engine-lifetime
// packed table it verifies, by the dynamic leg (quick1, quick2, meta1,
// meta2 through the enumerated encoding space), the static constructor
// leg (sibTab0, sibTabN), or the prefix derivation layers
// (segPrefixByte). Offsets no table resolves go to the spec decoder
// itself, which needs no proof against itself.
var modeledTables = map[string]string{
	"quick1":        "dynamic enumeration",
	"quick2":        "dynamic enumeration",
	"meta1":         "dynamic enumeration",
	"meta2":         "dynamic enumeration",
	"sibTab0":       "linked table vs ISA spec + SIB layer",
	"sibTabN":       "linked table vs ISA spec + SIB layer",
	"segPrefixByte": "prefix layers",
}

// packedMinLen is the smallest array length the inventory counts as a
// packed decode table.
const packedMinLen = 256

// derefArray unwraps at most one pointer and reports the underlying
// array type.
func derefArray(t types.Type) (*types.Array, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	arr, ok := t.Underlying().(*types.Array)
	return arr, ok
}

// packedElem reports whether an element type is an integer or an
// array of such — the record shapes the packed tables hold.
func packedElem(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsInteger != 0
	case *types.Array:
		return packedElem(u.Elem())
	}
	return false
}

// checkTableInventory proves the model boundary is current: the
// engine-lifetime packed tables found in the package (package-level
// vars and Engine fields holding integer arrays, or arrays of such, of
// at least packedMinLen slots, possibly behind one pointer) must match
// the modeled set exactly, in both directions. Per-scan state
// (scanState) is out of scope: its arrays memoize one scan and never
// encode decode semantics.
func checkTableInventory(pass *Pass, pkg *Package) {
	found := make(map[string]token.Pos)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		if arr, ok := derefArray(v.Type()); ok && arr.Len() >= packedMinLen && packedElem(arr.Elem()) {
			found[name] = v.Pos()
		}
	}
	if tn, ok := scope.Lookup("Engine").(*types.TypeName); ok {
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if arr, ok := derefArray(f.Type()); ok && arr.Len() >= packedMinLen && packedElem(arr.Elem()) {
					found[f.Name()] = f.Pos()
				}
			}
		}
	}
	names := make([]string, 0, len(found))
	for name := range found {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := modeledTables[name]; !ok {
			pass.Reportf(found[name], "packed table %s is outside the decodeprover model: teach the prover its semantics and add it to the modeled set", name)
		}
	}
	modeled := make([]string, 0, len(modeledTables))
	for name := range modeledTables {
		modeled = append(modeled, name)
	}
	sort.Strings(modeled)
	for _, name := range modeled {
		if _, ok := found[name]; !ok {
			pass.Reportf(pkg.Files[0].Package, "modeled packed table %s no longer exists in internal/mel: the decodeprover model is stale", name)
		}
	}
}

// Independent address-form specification, written from the 32-bit SIB
// definition rather than from the constructor's structure. Layout must
// match records.go's SIB tables: bits 0-3 base+1, bits 4-7 index+1,
// bits 8-10 displacement size, bit 11 disp-only.
const specDispOnly = 1 << 11

// sibSpecEntry: index 4 means no index; at mod 0 a base field of 5
// means disp32 with no base register (disp-only when no index either);
// any other base selects that register.
func sibSpecEntry(mod0 bool, sib int) uint16 {
	idx, base := sib>>3&7, sib&7
	var v uint16
	if idx != 4 {
		v = uint16(idx+1) << 4
	}
	if mod0 && base == 5 {
		v |= 4 << 8
		if idx == 4 {
			v |= specDispOnly
		}
	} else {
		v |= uint16(base) + 1
	}
	return v
}

// checkAddressConstructors is the static constructor leg: the SIB
// address-form tables linked into this binary must equal the
// independent specification slot for slot.
func checkAddressConstructors(pass *Pass, pkg *Package) {
	if mel.AddrDispOnly != specDispOnly {
		pass.Reportf(pkg.Files[0].Package, "address-table layout bits moved: prover spec dispOnly %#x vs mel %#x",
			specDispOnly, mel.AddrDispOnly)
		return
	}
	anchor := findFuncPos(pkg, "buildSibTabs")
	liveSib0, liveSibN := mel.AddressTables()
	check := func(name string, live *[256]uint16, mod0 bool) {
		for i := 0; i < 256; i++ {
			if specV := sibSpecEntry(mod0, i); live[i] != specV {
				pass.Reportf(anchor, "%s: slot %#02x diverges: ISA spec %#x, linked table %#x", name, i, specV, live[i])
			}
		}
	}
	check("sibTab0", &liveSib0, true)
	check("sibTabN", &liveSibN, false)
}

// ----------------------------------------------------------------------
// dpinvariants analyzer.

// dpEngine is one (rules, mode) pair for the invariant pass.
type dpEngine struct {
	name string
	e    *mel.Engine
}

func dpEngines() []dpEngine {
	rules := []struct {
		name string
		r    mel.Rules
	}{
		{"dawn", mel.DAWN()},
		{"dawn-stateless", mel.DAWNStateless()},
		{"ape", mel.APE()},
		{"plain", mel.Rules{}},
	}
	var out []dpEngine
	for _, r := range rules {
		out = append(out, dpEngine{r.name + "/seq", mel.NewEngineMode(r.r, mel.ModeSequential)})
		out = append(out, dpEngine{r.name + "/all", mel.NewEngineMode(r.r, mel.ModeAllPaths)})
	}
	return out
}

// dpFailure is one violated scan invariant.
type dpFailure struct {
	Engine string
	Stream []byte
	Err    error
}

// dpStreams yields the structured stream families the invariant pass
// covers: every single byte and byte pair under a forward and a
// back-edge tail, jump chains at several negative displacements, and
// conditional ladders. yield returning false stops the generator (the
// budget).
func dpStreams(quick bool, yield func([]byte) bool) bool {
	fwd := bytes.Repeat([]byte{0x00}, 15)
	mixed := []byte{0x7F, 0x24, 0x05, 0xEB, 0xFE, 0x90, 0xF3, 0xA4, 0x66, 0xC3, 0x0F, 0xB6, 0x41, 0x04, 0x7F}
	buf := make([]byte, 0, 32)
	for b0 := 0; b0 < 256; b0++ {
		buf = append(append(buf[:0], byte(b0)), fwd...)
		if !yield(buf) {
			return false
		}
		buf = append(append(buf[:0], byte(b0)), mixed...)
		if !yield(buf) {
			return false
		}
	}
	pairSeconds := 256
	if quick {
		pairSeconds = 16
	}
	for b0 := 0; b0 < 256; b0++ {
		for i := 0; i < pairSeconds; i++ {
			b1 := byte(i)
			if quick {
				b1 = []byte{0x00, 0x0F, 0x26, 0x3E, 0x66, 0x67, 0x74, 0x8B,
					0x8D, 0xC3, 0xCD, 0xE8, 0xEB, 0xF3, 0xFE, 0xFF}[i]
			}
			buf = append(append(buf[:0], byte(b0), b1), fwd[:8]...)
			if !yield(buf) {
				return false
			}
			buf = append(append(buf[:0], byte(b0), b1), mixed[:8]...)
			if !yield(buf) {
				return false
			}
		}
	}
	// Backward-jump chains: every record after the jump target is on a
	// cycle, exercising the chain-walk fallback and its memo.
	for _, pad := range []int{0, 1, 3, 8, 14, 30} {
		for _, disp := range []byte{0xFE, 0xF0, 0xE0, 0x80} {
			buf = append(bytes.Repeat([]byte{0x41}, pad), 0xEB, disp, 0x90, 0x42)
			if !yield(buf) {
				return false
			}
		}
	}
	// Conditional ladders: forks at every offset for the all-paths DP.
	ladder := bytes.Repeat([]byte{0x74, 0x02, 0x41, 0xEB, 0x01, 0x42}, 4)
	if !yield(ladder) {
		return false
	}
	if !yield(append(ladder, 0xEB, 0xE0)) {
		return false
	}
	return true
}

func runDPInvariants(pass *Pass, cfg VerifyConfig, clock *verifyClock) {
	melPkg := findModulePackage(pass.Module, "internal/mel")
	if melPkg == nil {
		return
	}
	anchor := findFuncPos(melPkg, "scanFused")
	var scans int64
	var failures []dpFailure
	incomplete := false
	for _, de := range dpEngines() {
		ok := dpStreams(cfg.Quick, func(stream []byte) bool {
			if clock.expired() {
				return false
			}
			scans++
			if err := de.e.VerifyScanInvariants(stream); err != nil {
				if len(failures) < maxWitnesses {
					failures = append(failures, dpFailure{de.name, append([]byte(nil), stream...), err})
				}
			}
			return true
		})
		if !ok {
			incomplete = true
			break
		}
	}
	for _, f := range failures {
		pass.Reportf(anchor, "scan invariant violated: engine %s, stream %x: %v", f.Engine, f.Stream, f.Err)
	}
	if incomplete {
		pass.Reportf(anchor, "invariant verification incomplete: budget exhausted after %d scans; raise -verify-budget or fix the regression that slowed the pass", scans)
	}
	cfg.Stats.update(func(s *VerifyStats) {
		s.InvariantScans += scans
		s.Divergences += int64(len(failures))
		if incomplete {
			s.Incomplete = append(s.Incomplete, "dpinvariants")
		}
	})
}

// ----------------------------------------------------------------------
// Witness corpus export.

// EncodeFuzzSeed renders one (data, sel) input in the `go test fuzz
// v1` corpus encoding FuzzScanDifferential consumes.
func EncodeFuzzSeed(data []byte, sel uint8) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbyte(%q)\n", data, rune(sel)))
}

// WriteWitnessSeeds persists divergence witnesses as corpus seeds for
// internal/mel's FuzzScanDifferential, so a found divergence keeps
// failing the ordinary test suite until fixed.
func WriteWitnessSeeds(dir string, ws []ProverWitness) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, w := range ws {
		name := fmt.Sprintf("melverify-%s-%03d", w.Engine, i)
		if err := os.WriteFile(filepath.Join(dir, name), EncodeFuzzSeed(w.Stream, w.Sel), 0o644); err != nil {
			return err
		}
	}
	return nil
}
