package mel

import (
	"errors"
	"math"
	"sync"

	"repro/internal/telemetry/tracing"
	"repro/internal/x86"
)

// Mode selects how control flow contributes to MEL.
type Mode int

// Scan modes.
const (
	// ModeSequential counts runs of valid instructions along the
	// fall-through path (following unconditional relative jumps, treating
	// conditional branches as ordinary instructions). This matches the
	// linear Bernoulli-trial model of Section 3 and reproduces the
	// paper's measured benign MELs (max ≈ 40 at 4 KB cases).
	ModeSequential Mode = iota + 1
	// ModeAllPaths forks at every conditional branch and credits the
	// longest arm — the literal "pseudo-execute all possible execution
	// paths" reading. On benign text this inflates MEL well beyond the
	// linear model (a branch before an invalid instruction can dodge it),
	// which is why the measurement the paper validates against its model
	// must be the sequential one; the mode is retained for ablation.
	ModeAllPaths
)

// Engine computes Maximum Executable Length under a rule set.
type Engine struct {
	rules Rules
	mode  Mode

	// Compiled rule state: any instruction whose flags intersect
	// invalidFlags is invalid, and wrongSeg is the WrongSegs map
	// flattened to an array — one AND plus one index instead of five
	// branch chains and a map hash per decoded offset.
	invalidFlags x86.Flags
	wrongSeg     [8]bool

	// Compiled opcode meta for the fused record decoder (records.go):
	// one word per one-byte and 0x0F-escaped opcode with the rules folded
	// in, plus the group-slot rows. quick1 holds the complete packed
	// record for opcodes whose record is determined by the first byte
	// alone (no prefix, no ModRM, fixed-size immediate) — the text fast
	// path. Built once in NewEngineMode.
	meta1   [256]uint64
	meta2   [256]uint64
	quick1  [256]uint64
	grpMeta [8][8]uint32

	// quick2 extends quick1 to opcodes whose record is determined by
	// the first two bytes: ModRM forms without a SIB byte (the second
	// byte fixes mod/reg/rm, so length, group selection, and register
	// fields are all known), one prefix followed by such a first-byte
	// form, and 0x0F-escaped forms without ModRM. Entries are compiled
	// by running the reference decoder on zero-padded two-byte probes;
	// 0 means undetermined — take the fused walk.
	quick2 *[256][256]uint32
}

// NewEngine returns a model-faithful (sequential-mode) engine.
func NewEngine(rules Rules) *Engine {
	return NewEngineMode(rules, ModeSequential)
}

// NewEngineMode returns an engine with an explicit scan mode.
func NewEngineMode(rules Rules, mode Mode) *Engine {
	if mode != ModeAllPaths {
		mode = ModeSequential
	}
	e := &Engine{rules: rules, mode: mode}
	e.invalidFlags = x86.FlagUndefined
	if rules.InvalidateIO {
		e.invalidFlags |= x86.FlagIO
	}
	if rules.InvalidatePrivileged {
		e.invalidFlags |= x86.FlagPrivileged
	}
	if rules.InvalidateInterrupts {
		e.invalidFlags |= x86.FlagInt
	}
	if rules.InvalidateFarTransfers {
		e.invalidFlags |= x86.FlagFar
	}
	for seg, wrong := range rules.WrongSegs {
		if wrong && int(seg) >= 0 && int(seg) < len(e.wrongSeg) {
			e.wrongSeg[seg] = true
		}
	}
	e.compileMeta()
	return e
}

// invalidBase reports whether inst is invalid under the compiled rules,
// ignoring register-initialization state — exactly Rules.Invalid with a
// fully defined mask. Each rule bit is a distinct flag, so one mask
// intersection replaces the per-rule branch chain.
func (e *Engine) invalidBase(inst *x86.Inst) bool {
	if inst.Flags&e.invalidFlags != 0 {
		return true
	}
	if inst.MemAccess {
		if inst.Prefixes.Seg != x86.SegNone && e.wrongSeg[inst.Prefixes.Seg] {
			return true
		}
		if e.rules.InvalidateExplicitAddr && inst.MemDispOnly {
			return true
		}
	}
	return false
}

// Result is the outcome of a MEL scan.
type Result struct {
	// MEL is the longest error-free execution path, in instructions.
	MEL int
	// BestStart is the stream offset where that path begins.
	BestStart int
	// States is the number of distinct (offset, register-state) pairs
	// explored — the work the path pruning saved is visible here.
	States int
}

// Scan errors.
var (
	// ErrEmptyStream reports a scan of an empty payload.
	ErrEmptyStream = errors.New("mel: empty stream")
	// ErrStreamTooLarge reports a stream longer than the engine's flat
	// state tables can index (offsets must fit in int32).
	ErrStreamTooLarge = errors.New("mel: stream exceeds maximum supported length")

	errOffsetRange = errors.New("mel: start offset out of range")
)

// maxStreamLen bounds scannable streams so offsets and path lengths fit
// the int32 state tables.
const maxStreamLen = math.MaxInt32 - 1

// MaxStreamLen is the longest stream the engine can scan; longer inputs
// are rejected with ErrStreamTooLarge. Exported so callers (the stream
// scanner, the scan service) can validate sizes up front instead of
// discovering the limit mid-scan.
const MaxStreamLen = maxStreamLen

// Memo cell encoding: 0 = unexplored (so resets are a memclr), -1 = on
// the current DFS stack, v > 0 = resolved with path length v-1.
const memoInProgress int32 = -1

// Control kinds of a packed record (records.go).
const (
	ctrlSeq uint8 = iota // fall through to succ
	ctrlInvalid
	ctrlEnd  // RET-class: continuation unknown
	ctrlCond // conditional branch: succ and target
	ctrlJump // unconditional jump or near call: target only
)

// Register-mask transition kinds (the compiled form of apply).
const (
	transNone uint8 = iota
	transOr         // mask |= arg
	transCopy       // dst (arg low nibble) gets src's (high nibble) defined bit
	transSwap       // swap the defined bits of the two nibble registers
)

// applyTrans is the compiled form of apply: a precomputed transition
// replayed against a concrete register mask.
func applyTrans(kind, arg uint8, mask regMask) regMask {
	switch kind {
	case transOr:
		return mask | regMask(arg)
	case transCopy:
		if mask&(1<<(arg>>4)) != 0 {
			return mask | 1<<(arg&0xF)
		}
		return mask &^ (1 << (arg & 0xF))
	case transSwap:
		a, b := arg>>4, arg&0xF
		bitA, bitB := mask&(1<<a) != 0, mask&(1<<b) != 0
		mask &^= 1<<a | 1<<b
		if bitB {
			mask |= 1 << a
		}
		if bitA {
			mask |= 1 << b
		}
		return mask
	}
	return mask
}

// transitionOf compiles apply(inst, ·) into a (kind, arg) transition.
// Property-tested against apply over every mask in differential_test.go.
func transitionOf(inst *x86.Inst) (uint8, uint8) {
	switch inst.Op {
	case x86.OpPOP:
		if !inst.HasModRM && !inst.TwoByte && inst.Opcode >= 0x58 && inst.Opcode <= 0x5F {
			return transOr, 1 << (inst.Opcode & 7)
		}
	case x86.OpPOPA:
		return transOr, 0xFF
	case x86.OpMOV:
		switch {
		case inst.Opcode >= 0xB0 && inst.Opcode <= 0xBF: // mov reg, imm
			return transOr, 1 << (inst.Opcode & 7)
		case inst.Opcode == 0x8B || inst.Opcode == 0x8A: // mov reg, r/m
			if inst.Mod == 3 {
				return transCopy, inst.RM<<4 | inst.RegField
			}
			// Loaded from memory: content unknown to the analysis but
			// deterministic to the attacker; treat as defined.
			return transOr, 1 << inst.RegField
		case inst.Opcode == 0xA1: // mov eax, moffs
			return transOr, 1 << uint(x86.EAX)
		}
	case x86.OpLEA:
		if inst.MemBase == x86.RegNone {
			return transOr, 1 << inst.RegField
		}
		return transCopy, uint8(inst.MemBase)<<4 | inst.RegField
	case x86.OpXCHG:
		if !inst.HasModRM && inst.Opcode >= 0x91 && inst.Opcode <= 0x97 {
			return transSwap, uint8(x86.EAX)<<4 | inst.Opcode&7
		}
	case x86.OpXOR, x86.OpSUB:
		// xor reg,reg / sub reg,reg define the register (zero).
		if inst.HasModRM && inst.Mod == 3 && inst.RegField == inst.RM {
			return transOr, 1 << inst.RM
		}
	case x86.OpMOVZX, x86.OpMOVSX:
		return transOr, 1 << inst.RegField
	case x86.OpIN:
		return transOr, 1 << uint(x86.EAX)
	case x86.OpCPUID:
		return transOr, 0x0F // eax, ecx, edx, ebx
	case x86.OpRDTSC, x86.OpCDQ:
		return transOr, 0x05 // eax, edx
	}
	return transNone, 0
}

// Decode-cache cell states.
const (
	decodeUnknown uint8 = iota
	decodeOK
	decodeFailed
)

// scanState is the exploration state for one scan. All of it is flat,
// preallocated, and recycled through statePool, so steady-state scans
// allocate nothing: instructions are decoded at most once per offset
// into insts, and memoization uses per-mask []int32 tables instead of
// maps.
type scanState struct {
	e    *Engine
	code []byte

	// Decode-once cache for the single-offset scan path (ScanFrom, the
	// per-scan trace dump).
	insts   []x86.Inst
	decoded []uint8

	// Packed per-offset records (records.go), shared by every full-scan
	// mode and carried across windows by WindowScanner. backEdges counts
	// records whose unconditional transfer targets at or before their own
	// offset; zero means sequential chains are strictly forward and the
	// suffix-run sweep applies.
	recs      []uint64
	backEdges int

	// Per-register-mask memo tables. live marks tables initialized for
	// the current stream; used[:usedN] lists them for O(used) release
	// (a mask can appear only once, so 256 slots always suffice). spanLo /
	// spanHi (exclusive) bound the cells of each table that may hold
	// stale nonzero values from earlier scans: tableSparse clears only
	// that span on acquire instead of the whole table, and every write
	// path either widens the span precisely (the memoized DFS) or
	// stamps it full (table, covering the direct-writing chain walks).
	tables [256][]int32
	live   [256]bool
	used   [256]uint8
	usedN  int
	spanLo [256]int32
	spanHi [256]int32

	stack []int32
	// maskStack holds (offset<<8 | mask) frames for the iterative
	// tracked-sequential walk.
	maskStack []uint64
	states    int
}

var statePool = sync.Pool{New: func() any { return new(scanState) }}

func acquireState(e *Engine, code []byte) *scanState {
	s := statePool.Get().(*scanState)
	s.e = e
	s.code = code
	s.states = 0
	return s
}

func releaseState(s *scanState) {
	s.resetScan(nil)
	s.e = nil
	statePool.Put(s)
}

// resetScan readies the state for another scan: memo tables are marked
// dead (their dirty spans survive, so the next acquire clears exactly
// the stale cells), and the stream is swapped. Records are left in
// place — the window scanner's carry reads them before ensureRecs.
func (s *scanState) resetScan(code []byte) {
	for _, m := range s.used[:s.usedN] {
		s.live[m] = false
	}
	s.usedN = 0
	s.code = code
	s.states = 0
}

// table returns the memo table for mask, sized for the current stream.
// zero controls whether a first acquire within a scan clears the table:
// the memoized DFS needs zeroed cells to mean "unexplored", but the
// suffix sweeps deterministically write every cell before reading it
// and pass false to skip the clear. Either way the table is marked
// live, so a later acquire in the same scan never wipes earlier values.
// Callers of table may write cells directly without span bookkeeping,
// so the dirty span is stamped full on every call — including the live
// fast path, which a direct-writing walk can reach on a table first
// acquired through tableSparse.
func (s *scanState) table(mask regMask, zero bool) []int32 {
	n := len(s.code)
	s.spanLo[mask] = 0
	if hi := int32(n); hi > s.spanHi[mask] {
		s.spanHi[mask] = hi
	}
	if s.live[mask] {
		return s.tables[mask]
	}
	t := s.tables[mask]
	if cap(t) < n {
		t = make([]int32, n)
		s.spanHi[mask] = int32(n)
	} else {
		t = t[:n]
		if zero {
			clear(t)
		}
	}
	s.tables[mask] = t
	s.live[mask] = true
	s.used[s.usedN] = uint8(mask)
	s.usedN++
	return t
}

// tableSparse is table for the memoized-DFS acquires, where writes land
// on the sparse chain the DFS actually walks rather than across the
// whole stream. Instead of zeroing the table it clears only the span
// dirtied by earlier scans and resets the span to empty; longestRecT
// then widens it around each cell it writes. For the divergent-mask
// tables of the tracked sweeps — touched on a handful of chains per
// scan — this replaces a full-stream memclr per mask with a few
// hundred bytes.
func (s *scanState) tableSparse(mask regMask) []int32 {
	if s.live[mask] {
		return s.tables[mask]
	}
	n := len(s.code)
	t := s.tables[mask]
	if cap(t) < n {
		t = make([]int32, n)
	} else {
		t = t[:n]
		// The stored span can exceed the current stream length; clear all
		// of it through the full backing array so a later, longer stream
		// does not see the leftover tail.
		if lo, hi := s.spanLo[mask], s.spanHi[mask]; lo < hi {
			clear(s.tables[mask][lo:hi])
		}
	}
	s.spanLo[mask] = int32(n)
	s.spanHi[mask] = 0
	s.tables[mask] = t
	s.live[mask] = true
	s.used[s.usedN] = uint8(mask)
	s.usedN++
	return t
}

// noteWrite widens mask's dirty span around a cell the DFS is about to
// write. Only the first write at an offset needs it (memoInProgress and
// the final value land on the same cell).
func (s *scanState) noteWrite(mask regMask, off int) {
	if o := int32(off); o < s.spanLo[mask] {
		s.spanLo[mask] = o
	}
	if o := int32(off) + 1; o > s.spanHi[mask] {
		s.spanHi[mask] = o
	}
}

// ensureDecodeCache sizes and resets the per-offset decode cache. The
// exploring scan modes call it once per scan; the sequential DP never
// needs it (it reduces each offset to a successor record instead).
func (s *scanState) ensureDecodeCache() {
	n := len(s.code)
	if cap(s.insts) < n {
		s.insts = make([]x86.Inst, n)
	} else {
		s.insts = s.insts[:n]
	}
	if cap(s.decoded) < n {
		s.decoded = make([]uint8, n)
	} else {
		s.decoded = s.decoded[:n]
		clear(s.decoded)
	}
}

// inst returns the decoded instruction at off, decoding it on first
// request only. A nil return means the stream truncates the instruction.
func (s *scanState) inst(off int) *x86.Inst {
	switch s.decoded[off] {
	case decodeOK:
		return &s.insts[off]
	case decodeFailed:
		return nil
	}
	if x86.DecodeInto(&s.insts[off], s.code, off) != nil {
		s.decoded[off] = decodeFailed
		return nil
	}
	s.decoded[off] = decodeOK
	return &s.insts[off]
}

// Scan pseudo-executes every possible execution path in the stream —
// starting at every byte offset, forking at conditional branches,
// following unconditional transfers — and returns the maximum number of
// consecutively valid instructions along any path (the MEL).
//
//mel:hotpath
func (e *Engine) Scan(stream []byte) (Result, error) {
	return e.ScanTraced(stream, nil)
}

// ScanTraced is Scan with per-stage instrumentation, timed onto tr. In
// the sequential modes the scan is the fused single pass (decode and DP
// in one backward sweep), timed as StageDP; StageDecode stays unset. In
// all-paths mode every record is built first (StageDecode) and the
// exploration runs over them (StageDP). A nil trace is free apart from
// the nil checks — Scan is exactly ScanTraced(stream, nil).
//
//mel:hotpath
func (e *Engine) ScanTraced(stream []byte, tr *tracing.Trace) (Result, error) {
	if len(stream) == 0 {
		return Result{}, ErrEmptyStream
	}
	if len(stream) > maxStreamLen {
		return Result{}, ErrStreamTooLarge
	}
	s := acquireState(e, stream)
	defer releaseState(s)
	s.ensureRecs()
	best, bestStart := s.scanTraced(0, tr)
	return Result{MEL: best, BestStart: bestStart, States: s.states}, nil
}

// scanTraced runs the scan over s.code, whose records below from are
// already in place (the window carry; the caller guarantees they hold
// no back edges), timing it onto tr. Sequential modes take the fused
// single pass, falling back to the chain walk over the then fully built
// records when a backward transfer voids the suffix order.
//
//mel:hotpath
func (s *scanState) scanTraced(from int, tr *tracing.Trace) (best, bestStart int) {
	e := s.e
	if e.mode == ModeAllPaths {
		s.backEdges = 0 // buildRecords counts only the offsets it decodes
		tr.StageStart(tracing.StageDecode)
		s.buildRecords(from)
		tr.StageEnd(tracing.StageDecode)
		tr.StageStart(tracing.StageDP)
		best, bestStart = s.run()
		tr.StageEnd(tracing.StageDP)
		return best, bestStart
	}
	tr.StageStart(tracing.StageDP)
	best, bestStart, ok := s.scanFused(from)
	if !ok {
		if e.rules.TrackRegisterInit {
			best, bestStart = s.scanSequentialTracked()
		} else {
			best, bestStart = s.scanSequential()
		}
	}
	tr.StageEnd(tracing.StageDP)
	return best, bestStart
}

// run is the all-paths exploration over the packed records: the
// memoized DFS from every offset, forking at conditional branches. The
// caller must have run buildRecords for the full stream.
//
//mel:hotpath
func (s *scanState) run() (best, bestStart int) {
	e := s.e
	mask := regMask(0xFF)
	if e.rules.TrackRegisterInit {
		mask = initialMask
	}
	t := s.table(mask, true)
	for off := 0; off < len(s.code); off++ {
		if l := s.longestRecT(off, mask, t); l > best {
			best = l
			bestStart = off
		}
	}
	return best, bestStart
}

// longestRec is longest over the packed records — the hot form used by
// the all-paths full scan, where every offset is explored anyway.
func (s *scanState) longestRec(off int, mask regMask) int {
	if uint(off) >= uint(len(s.code)) {
		return 0 // continuation left the stream
	}
	return s.longestRecT(off, mask, s.table(mask, true))
}

// extRec is the recursion step of longestRecT: bounds check, then the
// threaded walk. Leaving the stream ends the path.
func (s *scanState) extRec(off int, mask regMask, t []int32) int {
	if uint(off) >= uint(len(s.code)) {
		return 0
	}
	return s.longestRecT(off, mask, t)
}

// longestRecT is longestRec with mask's memo table threaded through the
// recursion: continuations that keep the register mask — the common
// case — stay on t without re-resolving it through the table map.
func (s *scanState) longestRecT(off int, mask regMask, t []int32) int {
	switch v := t[off]; {
	case v > 0:
		return int(v) - 1
	case v == memoInProgress:
		return 0 // cycle
	}
	r := s.recs[off]
	kind := uint8(r>>recKindShift) & 7
	if kind == ctrlInvalid || regMask(uint8(r>>recNeedShift))&^mask != 0 {
		s.noteWrite(mask, off)
		t[off] = 1
		s.states++
		return 0
	}
	s.noteWrite(mask, off)
	t[off] = memoInProgress

	nextMask := mask
	nt := t
	if trKind := uint8(r>>recTrKindShift) & 3; trKind != transNone {
		if nextMask = applyTrans(trKind, uint8(r>>recTrArgShift), mask); nextMask != mask {
			nt = s.tableSparse(nextMask)
		}
	}
	succ := off + int(r&recLenMask)

	var ext int
	switch kind {
	case ctrlEnd:
		ext = 0
	case ctrlCond:
		if s.e.mode == ModeAllPaths {
			fall := s.extRec(succ, nextMask, nt)
			taken := s.extRec(succ+int(int32(r>>recDispShift)), nextMask, nt)
			if taken > fall {
				ext = taken
			} else {
				ext = fall
			}
		} else {
			ext = s.extRec(succ, nextMask, nt)
		}
	case ctrlJump:
		ext = s.extRec(succ+int(int32(r>>recDispShift)), nextMask, nt)
	default:
		ext = s.extRec(succ, nextMask, nt)
	}

	t[off] = int32(2 + ext)
	s.states++
	return 1 + ext
}

// chainRecT resolves the memo value of state (off, mask) for the
// tracked sweeps, which only run when the stream has no backward
// transfers and control flow is sequential. Each state then has exactly
// one successor lying strictly ahead, so longestRecT's DFS degenerates
// to an acyclic chain: walk it iteratively, pushing (offset, mask)
// frames until a memoized or terminal state, then unwind in reverse
// assigning values. Memo writes and state counts are exactly the
// recursion's — one final write per state, no in-progress marking
// needed (no cycles can form). Returns t[off]'s resolved value; the
// caller has established t[off] == 0.
//
//mel:hotpath
func (s *scanState) chainRecT(off int, mask regMask, t []int32) int32 {
	n := len(s.code)
	recs := s.recs
	stack := s.maskStack[:cap(s.maskStack)]
	sp := 0
	states := s.states
	var ext int32
	for {
		r := recs[off]
		kind := uint8(r>>recKindShift) & 7
		if kind == ctrlInvalid || regMask(uint8(r>>recNeedShift))&^mask != 0 {
			s.noteWrite(mask, off)
			t[off] = 1
			states++
			break
		}
		stack[sp] = uint64(off)<<8 | uint64(mask)
		sp++
		if kind == ctrlEnd {
			break
		}
		next := off + int(r&recLenMask)
		if kind == ctrlJump {
			next += int(int32(r >> recDispShift))
		}
		if uint(next) >= uint(n) {
			break // continuation leaves the stream: path ends here
		}
		if trKind := uint8(r>>recTrKindShift) & 3; trKind != transNone {
			if nm := applyTrans(trKind, uint8(r>>recTrArgShift), mask); nm != mask {
				mask = nm
				t = s.tableSparse(mask)
			}
		}
		if m := t[next]; m > 0 {
			ext = m - 1
			break
		}
		off = next
	}
	if sp == 0 {
		// The entry state itself was invalid; its memo value is 1.
		s.states = states
		return 1
	}
	// Unwind: each pushed state extends its successor's run by one.
	// Consecutive frames usually share a mask; refetch only on change.
	ut, utMask := t, mask
	var top int32
	for i := sp - 1; i >= 0; i-- {
		fr := stack[i]
		if m := regMask(fr); m != utMask {
			utMask = m
			ut = s.tableSparse(m)
		}
		ext++
		top = ext + 1
		s.noteWrite(utMask, int(fr>>8))
		ut[fr>>8] = top
		states++
	}
	s.states = states
	return top
}

// ScanFrom pseudo-executes from a single start offset only — the shape
// APE's random-position sampling needs — and returns the longest valid
// run beginning there.
func (e *Engine) ScanFrom(stream []byte, off int) (int, error) {
	if len(stream) == 0 {
		return 0, ErrEmptyStream
	}
	if off < 0 || off >= len(stream) {
		return 0, errOffsetRange
	}
	if len(stream) > maxStreamLen {
		return 0, ErrStreamTooLarge
	}
	s := acquireState(e, stream)
	defer releaseState(s)
	s.ensureDecodeCache()
	mask := regMask(0xFF)
	if e.rules.TrackRegisterInit {
		mask = initialMask
	}
	return s.longest(off, mask), nil
}

// longest returns the longest valid run starting at off with the given
// abstract register state — the memoized DFS of the reference engine,
// over the decode-once cache and flat per-mask tables. Cycles are cut:
// re-entering a state that is on the current DFS stack contributes 0
// further instructions, which makes the result the longest acyclic valid
// path (each static instruction counted once).
func (s *scanState) longest(off int, mask regMask) int {
	if off < 0 || off >= len(s.code) {
		return 0
	}
	t := s.table(mask, true)
	switch v := t[off]; {
	case v > 0:
		return int(v) - 1
	case v == memoInProgress:
		return 0 // cycle
	}
	inst := s.inst(off)
	if inst == nil || s.e.rules.Invalid(inst, mask) {
		t[off] = 1
		s.states++
		return 0
	}
	t[off] = memoInProgress

	nextMask := mask
	if s.e.rules.TrackRegisterInit {
		nextMask = apply(inst, mask)
	}
	next := off + inst.Len

	var ext int
	switch {
	case inst.Flags&(x86.FlagRet|x86.FlagIndirect|x86.FlagFar|x86.FlagInt) != 0:
		// Path ends: the continuation address is not statically known (or
		// the instruction transfers out of the stream entirely).
		ext = 0
	case inst.Flags.Has(x86.FlagCondBranch):
		if s.e.mode == ModeAllPaths {
			fall := s.longest(next, nextMask)
			taken := s.longest(inst.RelTarget, nextMask)
			if taken > fall {
				ext = taken
			} else {
				ext = fall
			}
		} else {
			// Sequential mode: a conditional branch is just another valid
			// instruction on the linear path.
			ext = s.longest(next, nextMask)
		}
	case inst.Flags.Has(x86.FlagUncondJump):
		ext = s.longest(inst.RelTarget, nextMask)
	case inst.Flags.Has(x86.FlagCall):
		// Near relative call: execution continues at the target.
		ext = s.longest(inst.RelTarget, nextMask)
	default:
		ext = s.longest(next, nextMask)
	}

	t[off] = int32(2 + ext)
	s.states++
	return 1 + ext
}

// scanFused is the anchored single-pass scan core: decode and the
// suffix-run DP run as ONE backward pass over the stream. The DP at an
// offset only consults records and memo cells strictly ahead of it,
// which the backward order has already produced, so no intermediate
// full-stream decode pass is needed. Offsets below from reuse their
// carried records (the stream-carry path; the caller guarantees the
// carried region has no back edges). If a backward transfer is
// discovered mid-pass the DP half is abandoned: decode completes for
// the remaining offsets, the memo prefix the DP never wrote is
// re-zeroed, and ok=false tells the caller to run the chain-walk
// fallback over the fully built records. Memo contents and state
// counts are identical to the chain walk's in every case (each offset
// is written exactly once in both), so results stay byte-identical to
// ScanReference.
//
//mel:hotpath
func (s *scanState) scanFused(from int) (best, bestStart int, ok bool) {
	if s.e.rules.TrackRegisterInit {
		return s.scanFusedTracked(from)
	}
	return s.scanFusedSeq(from)
}

// finishDecode completes the decode half after the fused DP aborted on
// a back edge at offset off (whose record is r): r is stored, the
// offsets [from, off) are decoded backward (so segDerive applies), and
// s.backEdges is re-established over the whole record array.
func (s *scanState) finishDecode(r uint64, off, from int) {
	code := s.code
	n := len(code)
	e := s.e
	recs := s.recs
	recs[off] = r
	for o := off - 1; o >= from; o-- {
		b := code[o]
		if q := e.quick1[b]; q != 0 {
			recs[o], _ = patchQuick(q, code, o, n)
			continue
		}
		if sp := segPrefixByte[b]; sp != 0 {
			if dr, ok := segDerive(recs[o+1], sp, &e.wrongSeg); ok {
				recs[o] = dr
				continue
			}
		}
		if q := uint64(e.quick2[b][code[o+1]]); q != 0 {
			if q&quickSIB != 0 {
				recs[o] = expandSIB(q, code, o, n)
				continue
			}
			recs[o], _ = patchQuick(q, code, o, n)
			continue
		}
		recs[o] = s.decodeSlow(o)
	}
	s.backEdges = countBackEdges(recs[:n])
}

// scanFusedSeq is scanFused without register tracking.
//
//mel:hotpath
func (s *scanState) scanFusedSeq(from int) (best, bestStart int, ok bool) {
	code := s.code
	n := len(code)
	if n == 0 {
		return 0, 0, true
	}
	e := s.e
	recs := s.recs
	memo := s.table(0xFF, false)[:n]
	var bestV int32
	var r uint64
	var be bool
	s.backEdges = 0
	for off := n - 1; off >= 0; off-- {
		if off < from {
			r = recs[off]
			goto dp
		}
		{
			b := code[off]
			if q := e.quick1[b]; q != 0 {
				if r, be = patchQuick(q, code, off, n); be {
					goto abort
				}
				goto store
			}
			if off+1 < n {
				if sp := segPrefixByte[b]; sp != 0 {
					var dok bool
					if r, dok = segDerive(recs[off+1], sp, &e.wrongSeg); dok {
						if backEdgeRec(r) {
							goto abort
						}
						goto store
					}
				}
				if q := uint64(e.quick2[b][code[off+1]]); q != 0 {
					if q&quickSIB != 0 {
						r = expandSIB(q, code, off, n)
						goto store // SIB records cannot be back edges
					}
					if r, be = patchQuick(q, code, off, n); be {
						goto abort
					}
					goto store
				}
			}
			r = s.decodeSlow(off)
			if backEdgeRec(r) {
				goto abort
			}
		}
	store:
		recs[off] = r
	dp:
		{
			kind := uint8(r>>recKindShift) & 7
			var v int32
			switch {
			case kind == ctrlInvalid:
				v = 1
			case kind == ctrlEnd:
				v = 2
			default:
				next := off + int(r&recLenMask)
				if kind == ctrlJump {
					next += int(int32(r >> recDispShift))
				}
				if uint(next) >= uint(n) {
					v = 2 // leaving the stream ends the path
				} else {
					v = memo[next] + 1
				}
			}
			memo[off] = v
			if v >= bestV {
				bestV = v
				bestStart = off
			}
		}
		continue
	abort:
		s.finishDecode(r, off, from)
		s.states += n - 1 - off
		clear(memo[:off+1])
		return 0, 0, false
	}
	s.states += n
	return int(bestV) - 1, bestStart, true
}

// scanFusedTracked is scanFused with register tracking. The
// initial-mask table is filled backward exactly as in scanFusedSeq;
// when an instruction's register transition diverges from the initial
// mask, the successor state lives in another table and is resolved
// through the memoized chain walk (chainRecT), which explores precisely
// the states the reference DFS would — and whose forward-only
// exploration never outruns the already-decoded suffix. Divergence is
// rare on text, so the sweep stays linear.
//
//mel:hotpath
func (s *scanState) scanFusedTracked(from int) (best, bestStart int, ok bool) {
	code := s.code
	n := len(code)
	if n == 0 {
		return 0, 0, true
	}
	e := s.e
	recs := s.recs
	t0 := s.table(initialMask, false)[:n]
	states := s.states
	var bestV int32
	var r uint64
	var be bool
	lastMask := initialMask
	lastT := t0
	s.backEdges = 0
	for off := n - 1; off >= 0; off-- {
		if off < from {
			r = recs[off]
			goto dp
		}
		{
			b := code[off]
			if q := e.quick1[b]; q != 0 {
				if r, be = patchQuick(q, code, off, n); be {
					goto abort
				}
				goto store
			}
			if off+1 < n {
				if sp := segPrefixByte[b]; sp != 0 {
					var dok bool
					if r, dok = segDerive(recs[off+1], sp, &e.wrongSeg); dok {
						if backEdgeRec(r) {
							goto abort
						}
						goto store
					}
				}
				if q := uint64(e.quick2[b][code[off+1]]); q != 0 {
					if q&quickSIB != 0 {
						r = expandSIB(q, code, off, n)
						goto store // SIB records cannot be back edges
					}
					if r, be = patchQuick(q, code, off, n); be {
						goto abort
					}
					goto store
				}
			}
			r = s.decodeSlow(off)
			if backEdgeRec(r) {
				goto abort
			}
		}
	store:
		recs[off] = r
	dp:
		{
			kind := uint8(r>>recKindShift) & 7
			var v int32
			switch {
			case kind == ctrlInvalid || regMask(uint8(r>>recNeedShift))&^initialMask != 0:
				v = 1
			case kind == ctrlEnd:
				v = 2
			default:
				next := off + int(r&recLenMask)
				if kind == ctrlJump {
					next += int(int32(r >> recDispShift))
				}
				if uint(next) >= uint(n) {
					v = 2 // leaving the stream ends the path
				} else if trKind := uint8(r>>recTrKindShift) & 3; trKind == transNone {
					v = t0[next] + 1
				} else if nm := applyTrans(trKind, uint8(r>>recTrArgShift), initialMask); nm == initialMask {
					v = t0[next] + 1
				} else {
					// The last divergent table is cached, and a memo hit
					// — the common case once a run of the same
					// transition has been seen — resolves with a single
					// load, no call.
					if nm != lastMask {
						lastT = s.tableSparse(nm)
						lastMask = nm
					}
					if mv := lastT[next]; mv > 0 {
						v = mv + 1
					} else {
						s.states = states
						v = s.chainRecT(next, nm, lastT) + 1
						states = s.states
					}
				}
			}
			t0[off] = v
			states++
			if v >= bestV {
				bestV = v
				bestStart = off
			}
		}
		continue
	abort:
		s.finishDecode(r, off, from)
		s.states = states
		clear(t0[:off+1])
		return 0, 0, false
	}
	s.states = states
	return int(bestV) - 1, bestStart, true
}

// scanSequential computes MEL for every start offset in linear time.
// Without register tracking the mask never changes, and in sequential
// mode every offset has exactly one successor, so the per-offset longest
// run satisfies dp[off] = 0 if invalid, else 1 + dp[succ(off)]. Each
// offset is resolved exactly once: either its memo cell is already
// filled, or the walk follows the unresolved successor chain and unwinds
// it in reverse, assigning dp values on the way back. Backward jumps can
// form cycles; they are cut exactly as the reference DFS cuts them (an
// offset already on the active chain contributes 0), so results are
// byte-identical to ScanReference. It is the fallback of the fused
// pass (scanTraced), which has built every record by the time it
// reports a back edge.
//
//mel:hotpath
func (s *scanState) scanSequential() (best, bestStart int) {
	n := len(s.code)
	memo := s.table(0xFF, true)[:n]
	recs := s.recs[:n]
	stack := s.stack[:0]
	states := s.states
	for start := 0; start < n; start++ {
		v := memo[start]
		if v <= 0 {
			off := start
			var ext int32
			for {
				m := memo[off]
				if m > 0 {
					ext = m - 1
					break
				}
				if m == memoInProgress {
					ext = 0 // cycle
					break
				}
				r := recs[off]
				kind := uint8(r>>recKindShift) & 7
				if kind == ctrlInvalid {
					memo[off] = 1
					states++
					ext = 0
					break
				}
				memo[off] = memoInProgress
				stack = append(stack, int32(off))
				if kind == ctrlEnd {
					ext = 0
					break
				}
				next := off + int(r&recLenMask)
				if kind == ctrlJump {
					next += int(int32(r >> recDispShift))
				}
				if uint(next) >= uint(n) {
					// Leaving the stream ends the path, like a terminator.
					ext = 0
					break
				}
				off = next
			}
			for i := len(stack) - 1; i >= 0; i-- {
				ext++
				memo[stack[i]] = ext + 1
				states++
			}
			stack = stack[:0]
			v = memo[start]
		}
		if l := int(v) - 1; l > best {
			best = l
			bestStart = start
		}
	}
	s.stack = stack
	s.states = states
	return best, bestStart
}

// scanSequentialTracked computes MEL for every start offset when
// register tracking is on but control flow is still sequential. Each
// (offset, mask) state then has exactly one successor state, so the
// reference DFS degenerates to a chain: walk it iteratively, pushing
// visited states, and unwind in reverse assigning memo values — the same
// shape as scanSequential but with per-mask tables and the compiled
// register transitions. Visit order, cycle cuts, and memo writes match
// the reference DFS exactly, so results are byte-identical. Like
// scanSequential, it runs over the records the aborted fused pass
// built.
//
//mel:hotpath
func (s *scanState) scanSequentialTracked() (best, bestStart int) {
	n := len(s.code)
	t0 := s.table(initialMask, true)[:n]
	recs := s.recs[:n]
	stack := s.maskStack[:0]
	states := s.states
	for start := 0; start < n; start++ {
		if t0[start] == 0 {
			off, mask := start, initialMask
			t := t0
			var ext int32
			for {
				m := t[off]
				if m > 0 {
					ext = m - 1
					break
				}
				if m == memoInProgress {
					ext = 0 // cycle
					break
				}
				r := recs[off]
				kind := uint8(r>>recKindShift) & 7
				if kind == ctrlInvalid || regMask(uint8(r>>recNeedShift))&^mask != 0 {
					t[off] = 1
					states++
					ext = 0
					break
				}
				t[off] = memoInProgress
				stack = append(stack, uint64(off)<<8|uint64(mask))
				if kind == ctrlEnd {
					ext = 0
					break
				}
				next := off + int(r&recLenMask)
				if kind == ctrlJump {
					next += int(int32(r >> recDispShift))
				}
				if uint(next) >= uint(n) {
					// Continuation leaves the stream: path ends here.
					ext = 0
					break
				}
				off = next
				if trKind := uint8(r>>recTrKindShift) & 3; trKind != transNone {
					if nm := applyTrans(trKind, uint8(r>>recTrArgShift), mask); nm != mask {
						mask = nm
						t = s.table(mask, true)[:n]
					}
				}
			}
			// Unwind: each pushed state extends its successor's run by one.
			// Consecutive frames usually share a mask; refetch only on change.
			ut, utMask := t0, initialMask
			for i := len(stack) - 1; i >= 0; i-- {
				fr := stack[i]
				if m := regMask(fr); m != utMask {
					utMask = m
					ut = s.table(m, true)
				}
				ext++
				ut[fr>>8] = ext + 1
				states++
			}
			stack = stack[:0]
		}
		if l := int(t0[start]) - 1; l > best {
			best = l
			bestStart = start
		}
	}
	s.maskStack = stack
	s.states = states
	return best, bestStart
}

// ValiditySequence disassembles the stream linearly (resynchronizing
// after each instruction) and classifies each instruction as valid or
// invalid under the rules, ignoring path state. This is the view the
// probabilistic model of Section 3 takes: a linear sequence of Bernoulli
// trials. It is also the input to the Section 3.3 chi-square test.
func (e *Engine) ValiditySequence(stream []byte) []bool {
	insts := x86.DecodeAll(stream)
	out := make([]bool, len(insts))
	for i := range insts {
		out[i] = !e.rules.Invalid(&insts[i], 0xFF)
	}
	return out
}

// LinearMEL returns the longest run of valid instructions in the linear
// disassembly — the Xmax of the Bernoulli model. The detector uses Scan
// (all paths); LinearMEL exists to validate the model against its own
// definitions.
func (e *Engine) LinearMEL(stream []byte) int {
	var best, cur int
	for _, valid := range e.ValiditySequence(stream) {
		if valid {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
}

// InvalidFraction returns the fraction of linearly disassembled
// instructions that are invalid — the empirical p of the stream.
func (e *Engine) InvalidFraction(stream []byte) (float64, error) {
	seq := e.ValiditySequence(stream)
	if len(seq) == 0 {
		return 0, ErrEmptyStream
	}
	inv := 0
	for _, valid := range seq {
		if !valid {
			inv++
		}
	}
	return float64(inv) / float64(len(seq)), nil
}

// PairCounts tabulates the validity of contiguous instruction pairs
// <I1, I2> for the chi-square independence test of Section 3.3:
// counts[0][0] = both valid, [0][1] = valid→invalid, [1][0], [1][1].
func (e *Engine) PairCounts(stream []byte) [2][2]int {
	seq := e.ValiditySequence(stream)
	var counts [2][2]int
	for i := 0; i+1 < len(seq); i++ {
		r, c := 1, 1
		if seq[i] {
			r = 0
		}
		if seq[i+1] {
			c = 0
		}
		counts[r][c]++
	}
	return counts
}

// MeanInstrLen returns the average encoded instruction length of the
// linear disassembly — compared against the model's predicted 2.6 bytes
// in Section 5.3 (measured: 2.65).
func (e *Engine) MeanInstrLen(stream []byte) (float64, error) {
	insts := x86.DecodeAll(stream)
	if len(insts) == 0 {
		return 0, ErrEmptyStream
	}
	var total int
	for i := range insts {
		total += insts[i].Len
	}
	return float64(total) / float64(len(insts)), nil
}
