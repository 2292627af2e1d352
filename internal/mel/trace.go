package mel

import (
	"fmt"
	"strings"

	"repro/internal/x86"
)

// TraceStep is one instruction on a traced execution path.
type TraceStep struct {
	Inst x86.Inst
	// Valid is false for the terminating invalid instruction (when the
	// path ends on one rather than by leaving the stream).
	Valid bool
}

// Trace re-walks the longest valid path from start, returning the
// decoded instructions along it (the analyst-facing "why was this
// flagged" evidence). The walk follows the same policy as Scan: at a
// conditional branch in all-paths mode it picks whichever arm yields the
// longer continuation (falling through on a tie), measured by the same
// memoized DFS over packed records that ScanFrom runs; in sequential
// mode it falls through. The final step, if any, is the invalid
// instruction (or decode boundary) that ends the run.
func (e *Engine) Trace(stream []byte, start int) ([]TraceStep, error) {
	if len(stream) == 0 {
		return nil, ErrEmptyStream
	}
	if start < 0 || start >= len(stream) {
		return nil, fmt.Errorf("mel: trace start %d out of range", start)
	}
	if len(stream) > maxStreamLen {
		return nil, ErrStreamTooLarge
	}
	s := acquireState(e, stream)
	defer releaseState(s)
	s.ensureRecs()
	clear(s.recs)
	mask := e.startMask()

	var steps []TraceStep
	off := start
	visited := make(map[uint64]bool)
	for off >= 0 && off < len(stream) {
		k := key(off, mask)
		if visited[k] {
			break // cycle along the traced path
		}
		visited[k] = true

		inst, err := x86.Decode(stream, off)
		if err != nil {
			break
		}
		if e.rules.Invalid(&inst, mask) {
			steps = append(steps, TraceStep{Inst: inst, Valid: false})
			break
		}
		steps = append(steps, TraceStep{Inst: inst, Valid: true})

		nextMask := mask
		if e.rules.TrackRegisterInit {
			nextMask = apply(&inst, mask)
		}
		next := off + inst.Len
		switch {
		case inst.Flags.Has(x86.FlagRet), inst.Flags.Has(x86.FlagIndirect),
			inst.Flags.Has(x86.FlagFar), inst.Flags.Has(x86.FlagInt):
			return steps, nil
		case inst.Flags.Has(x86.FlagCondBranch):
			if e.mode == ModeAllPaths {
				fall := s.longestRec(next, nextMask)
				taken := s.longestRec(inst.RelTarget, nextMask)
				if taken > fall {
					next = inst.RelTarget
				}
			}
		case inst.Flags.Has(x86.FlagUncondJump), inst.Flags.Has(x86.FlagCall):
			next = inst.RelTarget
		}
		off = next
		mask = nextMask
	}
	return steps, nil
}

// FormatTrace renders a trace as a disassembly listing, at most maxLines
// lines (0 means all), eliding the middle of very long paths.
func FormatTrace(steps []TraceStep, maxLines int) string {
	if len(steps) == 0 {
		return "(empty trace)\n"
	}
	var sb strings.Builder
	write := func(s TraceStep) {
		marker := "  "
		if !s.Valid {
			marker = "!!"
		}
		fmt.Fprintf(&sb, "%s %06x  %s\n", marker, s.Inst.Offset, s.Inst.String())
	}
	if maxLines <= 0 || len(steps) <= maxLines {
		for _, s := range steps {
			write(s)
		}
		return sb.String()
	}
	head := maxLines / 2
	tail := maxLines - head - 1
	for _, s := range steps[:head] {
		write(s)
	}
	fmt.Fprintf(&sb, "   ... %d instructions elided ...\n", len(steps)-head-tail)
	for _, s := range steps[len(steps)-tail:] {
		write(s)
	}
	return sb.String()
}
