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
	// 0 means undetermined — the spec decoder decides.
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

// scanState is the exploration state for one scan. All of it is flat,
// preallocated, and recycled through statePool, so steady-state scans
// allocate nothing: every offset is reduced once to a packed record in
// recs, and memoization uses per-mask []int32 tables instead of maps.
type scanState struct {
	e    *Engine
	code []byte

	// Packed per-offset records (records.go), shared by every scan
	// path. The full scans build every record; ScanFrom and Trace start
	// from zeroed records and decode only the offsets their walk
	// reaches (no packed record is zero). backEdges counts records
	// whose unconditional transfer targets at or before their own
	// offset; the fused pass sets it, and melverify checks it against a
	// direct tally.
	recs      []uint64
	backEdges int

	// Per-register-mask memo tables. live marks tables initialized for
	// the current stream; used[:usedN] lists them for O(used) release
	// (a mask can appear only once, so 256 slots always suffice). spanLo /
	// spanHi (exclusive) bound the cells of each table that may hold
	// stale nonzero values from earlier scans: tableSparse clears only
	// that span on acquire instead of the whole table, and every write
	// path either widens the span precisely (noteWrite) or stamps it
	// full (table, covering the fused pass's direct writes).
	tables [256][]int32
	live   [256]bool
	used   [256]uint8
	usedN  int
	spanLo [256]int32
	spanHi [256]int32

	// maskStack holds the (offset<<8 | mask) frames of chainWalk.
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

// releaseState returns s to the pool. Its memo tables are marked dead
// but keep their dirty spans, so the next acquire clears exactly the
// stale cells.
func releaseState(s *scanState) {
	for _, m := range s.used[:s.usedN] {
		s.live[m] = false
	}
	s.usedN = 0
	s.code = nil
	s.e = nil
	statePool.Put(s)
}

// table returns the memo table for mask, sized for the current stream,
// for the fused pass, which writes every cell before reading it: a
// first acquire within a scan skips the clear. The table is marked
// live, so a later acquire in the same scan never wipes earlier values,
// and since the pass writes cells without span bookkeeping, the dirty
// span is stamped full.
func (s *scanState) table(mask regMask) []int32 {
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
	}
	s.tables[mask] = t
	s.live[mask] = true
	s.used[s.usedN] = uint8(mask)
	s.usedN++
	return t
}

// tableSparse is table for the walks that need zeroed cells to mean
// "unexplored" — the memoized DFS and the chain walk, whose writes land
// on the chains they follow. Instead of zeroing the whole table it
// clears only the span dirtied by earlier scans and resets the span to
// empty; every write then widens it through noteWrite. For the
// divergent-mask tables of the tracked fused pass — touched on a
// handful of chains per scan — this replaces a full-stream memclr per
// mask with a few hundred bytes.
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

// noteWrite widens mask's dirty span around a cell about to be written.
// Only the first write at an offset needs it (memoInProgress and the
// final value land on the same cell).
func (s *scanState) noteWrite(mask regMask, off int) {
	if o := int32(off); o < s.spanLo[mask] {
		s.spanLo[mask] = o
	}
	if o := int32(off) + 1; o > s.spanHi[mask] {
		s.spanHi[mask] = o
	}
}

// startMask is the register state every path starts from: only ESP
// defined under register tracking, everything defined otherwise.
func (e *Engine) startMask() regMask {
	if e.rules.TrackRegisterInit {
		return initialMask
	}
	return 0xFF
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
	best, bestStart := s.scanTraced(tr)
	return Result{MEL: best, BestStart: bestStart, States: s.states}, nil
}

// scanTraced runs the scan over s.code, timing it onto tr. Sequential
// modes take the fused single pass; all-paths mode builds the records,
// then explores them.
//
//mel:hotpath
func (s *scanState) scanTraced(tr *tracing.Trace) (best, bestStart int) {
	if s.e.mode == ModeAllPaths {
		tr.StageStart(tracing.StageDecode)
		s.backEdges = s.buildRecords(len(s.code))
		tr.StageEnd(tracing.StageDecode)
		tr.StageStart(tracing.StageDP)
		best, bestStart = s.run()
		tr.StageEnd(tracing.StageDP)
		return best, bestStart
	}
	tr.StageStart(tracing.StageDP)
	best, bestStart = s.scanFused()
	tr.StageEnd(tracing.StageDP)
	return best, bestStart
}

// run is the all-paths exploration over the packed records: the
// memoized DFS from every offset, forking at conditional branches. The
// caller must have run buildRecords for the full stream.
//
//mel:hotpath
func (s *scanState) run() (best, bestStart int) {
	mask := s.e.startMask()
	t := s.tableSparse(mask)
	for off := 0; off < len(s.code); off++ {
		if l := s.longestRecT(off, mask, t); l > best {
			best = l
			bestStart = off
		}
	}
	return best, bestStart
}

// longestRec is the memoized DFS from a single state — the entry of
// ScanFrom and of Trace's arm choice, over records decoded on demand.
// Leaving the stream ends the path.
func (s *scanState) longestRec(off int, mask regMask) int {
	return s.extRec(off, mask, s.tableSparse(mask))
}

// extRec is the recursion step of longestRecT: bounds check, then the
// threaded walk. Leaving the stream ends the path.
func (s *scanState) extRec(off int, mask regMask, t []int32) int {
	if uint(off) >= uint(len(s.code)) {
		return 0
	}
	return s.longestRecT(off, mask, t)
}

// longestRecT returns the longest valid run starting at off with the
// given abstract register state — the memoized DFS of the reference
// engine over packed records, with mask's memo table threaded through
// the recursion: continuations that keep the register mask — the common
// case — stay on t without re-resolving it. Cycles are cut: re-entering
// a state on the current DFS stack contributes 0 further instructions,
// which makes the result the longest acyclic valid path (each static
// instruction counted once). A zero record is decoded here first.
func (s *scanState) longestRecT(off int, mask regMask, t []int32) int {
	switch v := t[off]; {
	case v > 0:
		return int(v) - 1
	case v == memoInProgress:
		return 0 // cycle
	}
	r := s.recs[off]
	if r == 0 {
		r = s.lazyRec(off)
	}
	kind := uint8(r>>recKindShift) & 7
	s.noteWrite(mask, off)
	if kind == ctrlInvalid || regMask(uint8(r>>recNeedShift))&^mask != 0 {
		t[off] = 1
		s.states++
		return 0
	}
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

// chainWalk resolves the memo value of state (off, mask), whose table
// is t, in sequential mode, where every state has exactly one
// successor. The reference DFS then degenerates to a chain: walk it
// iteratively, marking each state in progress and pushing an (offset,
// mask) frame, until a memoized, terminal, or in-progress state (a
// cycle, cut to 0 exactly as the DFS cuts it); then unwind in reverse,
// each frame extending its successor's run by one. Memo writes, cycle
// cuts and state counts are exactly the recursion's. Returns t[off]'s
// resolved value; the caller has established t[off] == 0, so an empty
// stack means the entry itself was invalid.
//
//mel:hotpath
func (s *scanState) chainWalk(off int, mask regMask, t []int32) int32 {
	n := len(s.code)
	recs := s.recs
	stack := s.maskStack[:0]
	states := s.states
	var ext int32
	for {
		if m := t[off]; m != 0 {
			if m > 0 {
				ext = m - 1
			} // else memoInProgress: a cycle contributes 0
			break
		}
		r := recs[off]
		kind := uint8(r>>recKindShift) & 7
		s.noteWrite(mask, off)
		if kind == ctrlInvalid || regMask(uint8(r>>recNeedShift))&^mask != 0 {
			t[off] = 1
			states++
			break
		}
		t[off] = memoInProgress
		stack = append(stack, uint64(off)<<8|uint64(mask))
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
		off = next
	}
	// Consecutive frames usually share a mask; refetch only on change.
	ut, utMask := t, mask
	for i := len(stack) - 1; i >= 0; i-- {
		fr := stack[i]
		if m := regMask(fr); m != utMask {
			utMask = m
			ut = s.tableSparse(m)
		}
		ext++
		ut[fr>>8] = ext + 1
		states++
	}
	if cap(stack) > cap(s.maskStack) {
		s.maskStack = stack // grown by a cyclic tracked chain; keep it
	}
	s.states = states
	return ext + 1 // the entry state's memo value
}

// ScanFrom pseudo-executes from a single start offset only — the shape
// APE's random-position sampling needs — and returns the longest valid
// run beginning there. Records are decoded on demand, so a call pays one
// record-array clear plus the states its path explores.
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
	s.ensureRecs()
	clear(s.recs)
	return s.longestRec(off, e.startMask()), nil
}

// scanFused is the anchored single-pass scan core of the sequential
// modes: decode and the suffix-run DP run as ONE backward pass over the
// stream. The DP at an offset only consults records and memo cells
// strictly ahead of it, which the backward order has already produced,
// so no intermediate full-stream decode pass is needed.
//
// The start-mask table is filled backward; when an instruction's
// register transition diverges from the start mask (register tracking
// only — untracked records carry no transition and no required
// registers), the successor state lives in another table and is
// resolved through chainWalk, whose forward-only exploration never
// outruns the already-decoded suffix. Divergence is rare on text, so
// the sweep stays linear.
//
// If a backward transfer is discovered mid-pass the suffix order is
// void: decode completes for the remaining offsets, the memo prefix the
// DP never wrote is re-zeroed, and every start offset is resolved
// through chainWalk, which cuts cycles as the reference DFS does. The
// suffix memo above the back edge stays (its chains are forward-only),
// and every state is written exactly once either way, so results stay
// byte-identical to ScanReference, state counts included.
//
//mel:hotpath
func (s *scanState) scanFused() (best, bestStart int) {
	code := s.code
	n := len(code)
	e := s.e
	recs := s.recs
	m0 := e.startMask()
	t0 := s.table(m0)[:n]
	// A record is invalid under m0 when it needs a register m0 leaves
	// undefined — never without tracking, where m0 defines them all.
	needOut := uint64(^m0) << recNeedShift
	var bestV int32
	var r uint64
	var be bool
	s.backEdges = 0
	for off := n - 1; off >= 0; off-- {
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
		r = e.recFullAt(code, off)
		if backEdgeRec(r) {
			goto abort
		}
	store:
		recs[off] = r
		{
			kind := uint8(r>>recKindShift) & 7
			var v int32
			switch {
			case kind == ctrlInvalid || r&needOut != 0:
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
				} else if r&(3<<recTrKindShift) == 0 {
					v = t0[next] + 1 // no register transition: untracked records never have one
				} else if nm := applyTrans(uint8(r>>recTrKindShift)&3, uint8(r>>recTrArgShift), m0); nm == m0 {
					v = t0[next] + 1
				} else {
					// A memo hit — the common case once a run of the same
					// transition has been seen — resolves with two loads,
					// no call.
					t := s.tables[nm]
					if !s.live[nm] {
						t = s.tableSparse(nm)
					}
					if mv := t[next]; mv > 0 {
						v = mv + 1
					} else {
						v = s.chainWalk(next, nm, t) + 1
					}
				}
			}
			t0[off] = v
			if v >= bestV {
				bestV = v
				bestStart = off
			}
		}
		continue
	abort:
		recs[off] = r
		s.backEdges = 1 + s.buildRecords(off)
		s.states += n - 1 - off // the offsets above off, each resolved once
		clear(t0[:off+1])
		best, bestStart = 0, 0
		for start := range t0 {
			v := t0[start]
			if v == 0 {
				v = s.chainWalk(start, m0, t0)
			}
			if l := int(v) - 1; l > best {
				best = l
				bestStart = start
			}
		}
		return best, bestStart
	}
	s.states += n // every offset resolved once on t0; chainWalk counts its own
	return int(bestV) - 1, bestStart
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
