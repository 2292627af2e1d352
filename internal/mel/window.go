package mel

import (
	"bytes"

	"repro/internal/telemetry/tracing"
	"repro/internal/x86"
)

// WindowStats counts the record work a WindowScanner performed across
// its lifetime. RecordsReused + RecordsDecoded equals the total bytes
// scanned; their ratio is the decode work the carry saved.
type WindowStats struct {
	// Windows is the number of windows scanned.
	Windows int64
	// RecordsReused counts offsets whose packed record was carried from
	// the previous window instead of re-decoded.
	RecordsReused int64
	// RecordsDecoded counts offsets decoded fresh.
	RecordsDecoded int64
}

// WindowScanner scans a stream in overlapping windows, carrying the
// packed records of the overlap region from one window to the next.
// Records are position-independent (branch displacements are relative),
// so a record decoded at stream offset o is bit-identical at whatever
// window offset o lands on later — except within the last
// MaxInstLen-1 bytes of a window, where truncation may have cut the
// decode short. ScanNext therefore reuses every carried record outside
// that boundary strip and re-decodes only the strip plus the new bytes.
//
// The DP half of the scan always runs over the full window: a memo
// value is a suffix property and changes when the suffix does. Carry
// saves the decode half, which is the majority of scan time on text.
//
// A WindowScanner pins one scan state for its lifetime; call Close to
// return it to the pool. It is not safe for concurrent use — one
// scanner per stream, like the stream scanner that drives it.
type WindowScanner struct {
	e *Engine
	s *scanState
	// prev holds a copy of the previous window, both to validate the
	// caller's advance against the actual bytes (a mismatched overlap
	// silently falls back to a full decode) and to bound reuse.
	prev       []byte
	stats      WindowStats
	lastReused int
}

// NewWindowScanner returns a window scanner over the engine.
func (e *Engine) NewWindowScanner() *WindowScanner {
	return &WindowScanner{e: e}
}

// carryFrom computes how many leading offsets of window can take their
// record from the previous window: the overlap implied by advance,
// minus the truncation strip at the previous window's end, minus the
// truncation strip at this window's end, and only if the overlapping
// bytes actually match.
//
//mel:hotpath
func (w *WindowScanner) carryFrom(window []byte, advance int) int {
	if advance <= 0 || w.s == nil || advance >= len(w.prev) {
		return 0
	}
	reusable := len(w.prev) - advance - (x86.MaxInstLen - 1)
	if m := len(window) - (x86.MaxInstLen - 1); reusable > m {
		reusable = m
	}
	if reusable <= 0 {
		return 0
	}
	// A carried record at offset i was decoded from bytes [i, i+15) of
	// the overlap; the whole decoded span must be unchanged.
	span := reusable + x86.MaxInstLen - 1
	if !bytes.Equal(window[:span], w.prev[advance:advance+span]) {
		return 0
	}
	return reusable
}

// ScanNext scans the next window of the stream. advance is the number
// of stream bytes between the previous window's start and this one's
// (the stride); pass 0 when the window does not continue the previous
// stream. The result is byte-identical to Scan on the same window.
//
//mel:hotpath
func (w *WindowScanner) ScanNext(window []byte, advance int) (Result, error) {
	return w.ScanNextTraced(window, advance, nil)
}

// ScanNextTraced is ScanNext with per-stage instrumentation: the scan
// is timed onto tr exactly as ScanTraced times it, and the
// carried-record count lands on tr too.
//
//mel:hotpath
func (w *WindowScanner) ScanNextTraced(window []byte, advance int, tr *tracing.Trace) (Result, error) {
	n := len(window)
	if n == 0 {
		return Result{}, ErrEmptyStream
	}
	if n > maxStreamLen {
		return Result{}, ErrStreamTooLarge
	}
	from := w.carryFrom(window, advance)
	if w.s == nil {
		w.s = acquireState(w.e, window)
	} else {
		w.s.resetScan(window)
	}
	s := w.s
	old := s.recs
	s.ensureRecs()
	if from > 0 {
		// ensureRecs may have grown the backing array; old still holds
		// the previous window's records either way. When it did not,
		// this is an overlapping forward memmove.
		copy(s.recs[:from], old[advance:advance+from])
		// The fused sweep trusts carried records without re-checking
		// them for back edges, and a backward transfer in the carry
		// voids its suffix order. Re-decoding is the rare clean answer:
		// the scan then discovers the back edge itself and takes the
		// fallback it always takes.
		if countBackEdges(s.recs[:from]) != 0 {
			from = 0
		}
	}
	best, bestStart := s.scanTraced(from, tr)
	tr.SetCarry(from)
	w.lastReused = from
	w.stats.Windows++
	w.stats.RecordsReused += int64(from)
	w.stats.RecordsDecoded += int64(n - from)
	if cap(w.prev) < n {
		w.prev = make([]byte, n)
	} else {
		w.prev = w.prev[:n]
	}
	copy(w.prev, window)
	return Result{MEL: best, BestStart: bestStart, States: s.states}, nil
}

// Stats returns the cumulative record-reuse counters.
func (w *WindowScanner) Stats() WindowStats { return w.stats }

// LastReused returns the number of records carried into the most
// recent window — the per-window form of Stats for telemetry.
func (w *WindowScanner) LastReused() int { return w.lastReused }

// Reset drops the carry so the next ScanNext decodes in full — call it
// when the scanner moves to a new stream.
func (w *WindowScanner) Reset() {
	w.prev = w.prev[:0]
	w.lastReused = 0
}

// Close returns the pinned scan state to the pool. The scanner must
// not be used after Close.
func (w *WindowScanner) Close() {
	if w.s != nil {
		releaseState(w.s)
		w.s = nil
	}
	w.prev = nil
}
