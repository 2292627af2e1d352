package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/mel"
)

// Streaming defaults.
const (
	// DefaultWindow is the stream scanning window (the paper's case
	// size).
	DefaultWindow = 4096
	// DefaultStride is the window advance; windows overlap by
	// DefaultWindow - DefaultStride bytes so a worm straddling a window
	// boundary is still seen whole.
	DefaultStride = 2048
	// MaxWindow is the largest configurable scan window — the MEL
	// engine's stream-length ceiling. NewStreamScanner rejects larger
	// windows with ErrWindowTooLarge up front rather than failing (or
	// worse, truncating) mid-stream.
	MaxWindow = mel.MaxStreamLen
)

// ErrWindowTooLarge reports a scan window beyond MaxWindow.
var ErrWindowTooLarge = errors.New("core: window exceeds maximum scannable length")

// StreamAlert reports one flagged window of a stream.
type StreamAlert struct {
	// Offset is the window's byte offset within the stream.
	Offset int64
	// BestStart is the stream-absolute offset where the flagged
	// window's longest executable path begins (Offset plus the
	// window-relative Verdict.BestStart).
	BestStart int64
	// Verdict is the scan result for the window. Its BestStart is
	// window-relative, as Detector.Scan reports it.
	Verdict Verdict
}

// StreamScanner applies the detector to a byte stream in overlapping
// windows — the deployable, per-connection form of the detector
// ("easily deployable", Section 7). It is not safe for concurrent use;
// create one scanner per stream.
type StreamScanner struct {
	scan   func([]byte) (Verdict, error)
	window int
	stride int

	buf []byte
	// covered counts the leading bytes of buf that the last scanned
	// full window already held: the overlap it left behind.
	covered int
	offset  int64
	alerts  []StreamAlert
}

// NewStreamScanner wraps a detector: each window is judged by
// det.Scan. Non-positive window/stride take the defaults; stride must
// not exceed window, and window must not exceed MaxWindow.
func NewStreamScanner(det *Detector, window, stride int) (*StreamScanner, error) {
	if det == nil {
		return nil, errors.New("core: nil detector")
	}
	return NewStreamScannerFunc(det.Scan, window, stride)
}

// NewStreamScannerFunc builds a stream scanner over an arbitrary scan
// function — the hook that lets a shared scan service (worker pool,
// verdict cache) stand in for a local detector. The function must be
// safe for the scanner's call pattern: one call at a time per scanner.
func NewStreamScannerFunc(scan func([]byte) (Verdict, error), window, stride int) (*StreamScanner, error) {
	if scan == nil {
		return nil, errors.New("core: nil scan function")
	}
	if window <= 0 {
		window = DefaultWindow
	}
	if stride <= 0 {
		stride = DefaultStride
	}
	if window > MaxWindow {
		return nil, fmt.Errorf("core: window %d: %w", window, ErrWindowTooLarge)
	}
	if stride > window {
		return nil, fmt.Errorf("core: stride %d exceeds window %d", stride, window)
	}
	return &StreamScanner{
		scan:   scan,
		window: window,
		stride: stride,
		buf:    make([]byte, 0, window),
	}, nil
}

// Write feeds stream bytes; full windows are scanned as they complete.
// Write never blocks on detection results — collect them with Alerts.
//
// The window buffer is bounded at one window: completed windows are
// compacted by copying the overlap down rather than re-slicing, so the
// backing array never grows, and when the buffer is empty whole windows
// are scanned directly from p without copying at all.
func (s *StreamScanner) Write(p []byte) (int, error) {
	n := len(p)
	for {
		if len(s.buf) == 0 {
			// Zero-copy fast path: scan complete windows in place.
			scanned := false
			for len(p) >= s.window {
				if err := s.scanWindow(p[:s.window]); err != nil {
					return n, err
				}
				p = p[s.stride:]
				scanned = true
			}
			if scanned {
				s.covered = min(len(p), s.window-s.stride)
			}
			s.buf = append(s.buf, p...)
			return n, nil
		}
		need := s.window - len(s.buf)
		if need > len(p) {
			s.buf = append(s.buf, p...)
			return n, nil
		}
		s.buf = append(s.buf, p[:need]...)
		p = p[need:]
		if err := s.scanWindow(s.buf); err != nil {
			return n, err
		}
		// Keep the window overlap: copy it to the front of the buffer.
		kept := copy(s.buf, s.buf[s.stride:])
		s.buf = s.buf[:kept]
		s.covered = kept
	}
}

// scanWindow scans one full window and records the alert; on success the
// stream position advances by one stride.
func (s *StreamScanner) scanWindow(w []byte) error {
	v, err := s.scan(w)
	if err != nil {
		return fmt.Errorf("window at %d: %w", s.offset, err)
	}
	if v.Malicious {
		s.alerts = append(s.alerts, StreamAlert{
			Offset:    s.offset,
			BestStart: s.offset + int64(v.BestStart),
			Verdict:   v,
		})
	}
	s.offset += int64(s.stride)
	return nil
}

// Flush scans the trailing partial window (if any). Call once at end of
// stream. A tail that lies wholly inside the last full window — a
// stream one window plus a whole number of strides long — was already
// scanned, so it is not scanned again.
func (s *StreamScanner) Flush() error {
	if len(s.buf) <= s.covered {
		s.buf, s.covered = s.buf[:0], 0
		return nil
	}
	v, err := s.scan(s.buf)
	if err != nil {
		return fmt.Errorf("final window at %d: %w", s.offset, err)
	}
	if v.Malicious {
		s.alerts = append(s.alerts, StreamAlert{
			Offset:    s.offset,
			BestStart: s.offset + int64(v.BestStart),
			Verdict:   v,
		})
	}
	s.buf, s.covered = s.buf[:0], 0
	return nil
}

// Close ends the stream. The scanner holds no resources between
// windows, so this is a no-op kept for callers that pair every scanner
// with a Close; Alerts remains valid.
func (s *StreamScanner) Close() {}

// Alerts returns the flagged windows so far (a copy).
func (s *StreamScanner) Alerts() []StreamAlert {
	out := make([]StreamAlert, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// ScanStream is the convenience form: consume the whole reader and
// return the alerts.
func (d *Detector) ScanStream(r io.Reader, window, stride int) ([]StreamAlert, error) {
	s, err := NewStreamScanner(d, window, stride)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := io.Copy(s, r); err != nil {
		return nil, err
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s.Alerts(), nil
}

var _ io.Writer = (*StreamScanner)(nil)
