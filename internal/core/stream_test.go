package core

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/shellcode"
)

func streamDetector(t *testing.T) *Detector {
	t.Helper()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStreamScannerValidation(t *testing.T) {
	d := streamDetector(t)
	if _, err := NewStreamScanner(nil, 0, 0); err == nil {
		t.Error("nil detector should fail")
	}
	if _, err := NewStreamScanner(d, 100, 200); err == nil {
		t.Error("stride > window should fail")
	}
	s, err := NewStreamScanner(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.window != DefaultWindow || s.stride != DefaultStride {
		t.Errorf("defaults not applied: %d %d", s.window, s.stride)
	}
}

func TestBenignStreamNoAlerts(t *testing.T) {
	d := streamDetector(t)
	cases, err := corpus.Dataset(51, 8, 4000)
	if err != nil {
		t.Fatal(err)
	}
	stream := corpus.Concat(cases)
	alerts, err := d.ScanStream(bytes.NewReader(stream), 4096, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Errorf("benign stream raised %d alerts: %+v", len(alerts), alerts[0].Verdict)
	}
}

func TestWormMidStreamCaught(t *testing.T) {
	d := streamDetector(t)
	cases, err := corpus.Dataset(52, 6, 4000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 77, SledLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Splice the worm into the middle of benign traffic, deliberately
	// not aligned to any window boundary.
	var stream []byte
	stream = append(stream, corpus.Concat(cases[:3])...)
	stream = append(stream, []byte("X-Data: ")...)
	wormOffset := len(stream)
	stream = append(stream, w.Bytes...)
	stream = append(stream, corpus.Concat(cases[3:])...)

	alerts, err := d.ScanStream(bytes.NewReader(stream), 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("worm in mid-stream not detected")
	}
	// At least one alert's window must cover the worm.
	covered := false
	for _, a := range alerts {
		if a.Offset <= int64(wormOffset) && int64(wormOffset) < a.Offset+4096 {
			covered = true
		}
		if !a.Verdict.Malicious {
			t.Error("non-malicious verdict in alerts")
		}
	}
	if !covered {
		t.Errorf("no alert window covers the worm at %d: %+v", wormOffset, alerts)
	}
}

func TestStreamFlushCatchesTail(t *testing.T) {
	d := streamDetector(t)
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 5, SledLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The worm arrives at the very end, shorter than a full window.
	s, err := NewStreamScanner(d, 4096, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(w.Bytes); err != nil {
		t.Fatal(err)
	}
	if len(s.Alerts()) != 0 {
		t.Fatal("partial window scanned before Flush")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(s.Alerts()) != 1 {
		t.Fatalf("flush alerts = %d, want 1", len(s.Alerts()))
	}
	// Flush twice is a no-op.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(s.Alerts()) != 1 {
		t.Error("double flush duplicated the alert")
	}
}

func TestStreamChunkedWrites(t *testing.T) {
	// Byte-at-a-time delivery must give identical alerts to one-shot.
	d := streamDetector(t)
	cases, err := corpus.Dataset(53, 2, 4000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	stream = append(stream, cases[0].Data...)
	stream = append(stream, w.Bytes...)
	stream = append(stream, cases[1].Data...)

	oneShot, err := d.ScanStream(bytes.NewReader(stream), 2048, 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamScanner(d, 2048, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream {
		if _, err := s.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	chunked := s.Alerts()
	if len(oneShot) != len(chunked) {
		t.Fatalf("one-shot %d alerts vs chunked %d", len(oneShot), len(chunked))
	}
	for i := range oneShot {
		if oneShot[i].Offset != chunked[i].Offset {
			t.Errorf("alert %d offset %d vs %d", i, oneShot[i].Offset, chunked[i].Offset)
		}
	}
}

func TestAlertsReturnsCopy(t *testing.T) {
	d := streamDetector(t)
	s, err := NewStreamScanner(d, 1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Alerts()
	if len(a) != 0 {
		t.Fatal("fresh scanner has alerts")
	}
	a = append(a, StreamAlert{Offset: 99})
	if len(s.Alerts()) != 0 {
		t.Error("caller mutation leaked into scanner state")
	}
}

// windowAlerts is the stream scanner's specification: Detector.Scan on
// every full window at a multiple of stride, then on the trailing bytes
// from the first window position that did not fit, when some of them lie
// past the end of the last full window.
func windowAlerts(t *testing.T, d *Detector, stream []byte, window, stride int) []StreamAlert {
	t.Helper()
	var out []StreamAlert
	judge := func(off int, w []byte) {
		v, err := d.Scan(w)
		if err != nil {
			t.Fatalf("window at %d: %v", off, err)
		}
		if v.Malicious {
			out = append(out, StreamAlert{Offset: int64(off), BestStart: int64(off + v.BestStart), Verdict: v})
		}
	}
	off := 0
	for ; off+window <= len(stream); off += stride {
		judge(off, stream[off:off+window])
	}
	// The tail is a window of its own only when it reaches past the end
	// of the last full window; otherwise that window already held it.
	if off < len(stream) && (off == 0 || len(stream) > off-stride+window) {
		judge(off, stream[off:])
	}
	return out
}

// TestStreamChunkingInvariance: however Write is chunked, the alerts
// equal Detector.Scan run on each window, with the worm placed across
// a window end, across a stride boundary, inside the overlap, and in
// the trailing partial window.
func TestStreamChunkingInvariance(t *testing.T) {
	d := streamDetector(t)
	cases, err := corpus.Dataset(57, 6, 4000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 31, SledLen: 96})
	if err != nil {
		t.Fatal(err)
	}
	benign := corpus.Concat(cases)
	const window, stride = 4096, 2048
	half := len(w.Bytes) / 2
	for _, at := range []int{window - half, 3*stride - half, window + 4, len(benign) - 1000} {
		stream := append(append(append([]byte{}, benign[:at]...), w.Bytes...), benign[at:]...)
		want := windowAlerts(t, d, stream, window, stride)
		if len(want) == 0 {
			t.Fatalf("worm at %d not detected", at)
		}
		for _, chunk := range []int{0, 1, 777, stride, window + 1} {
			s, err := NewStreamScanner(d, window, stride)
			if err != nil {
				t.Fatal(err)
			}
			if chunk == 0 {
				if _, err := s.Write(stream); err != nil {
					t.Fatal(err)
				}
			}
			for off := 0; chunk > 0 && off < len(stream); off += chunk {
				if _, err := s.Write(stream[off:min(off+chunk, len(stream))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			got := s.Alerts()
			if len(got) != len(want) {
				t.Fatalf("worm at %d, chunk %d: %d alerts, per-window scans %d", at, chunk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("worm at %d, chunk %d, alert %d: %+v, per-window scan %+v", at, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamFlushSkipsCoveredTail: a stream one window plus a whole
// number of strides long ends inside its last full window, so a worm in
// its last stride alerts once — from that window — however the stream
// is chunked, not a second time from a Flush of the same bytes.
func TestStreamFlushSkipsCoveredTail(t *testing.T) {
	d := streamDetector(t)
	cases, err := corpus.Dataset(61, 12, 4000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 7, SledLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	const window, stride = 4096, 2048
	benign := corpus.Concat(cases)
	for _, k := range []int{0, 1, 5} {
		stream := bytes.Clone(benign[:window+k*stride])
		copy(stream[len(stream)-stride+(stride-len(w.Bytes))/2:], w.Bytes)
		for _, chunk := range []int{0, 1000, stride, window + 1} {
			s, err := NewStreamScanner(d, window, stride)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(stream); {
				end := len(stream)
				if chunk > 0 {
					end = min(off+chunk, len(stream))
				}
				if _, err := s.Write(stream[off:end]); err != nil {
					t.Fatal(err)
				}
				off = end
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			alerts := s.Alerts()
			if len(alerts) != 1 || alerts[0].Offset != int64(k*stride) {
				t.Fatalf("%d-byte stream, chunk %d: alerts %+v, want one from the window at %d", len(stream), chunk, alerts, k*stride)
			}
		}
	}
}

// TestStreamAlertBestStartAbsolute pins the offset math at window
// boundaries: a worm landing entirely inside the overlap of two
// windows must be reported with a stream-absolute BestStart that
// falls inside the worm, on every alerting window.
func TestStreamAlertBestStartAbsolute(t *testing.T) {
	d := streamDetector(t)
	cases, err := corpus.Dataset(58, 6, 4000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: 12, SledLen: 80})
	if err != nil {
		t.Fatal(err)
	}
	benign := corpus.Concat(cases)
	// Place the worm inside [4096, 6144): the overlap of window 1
	// (offset 2048) and window 2 (offset 4096), past window 0 entirely.
	wormOffset := 4100
	var stream []byte
	stream = append(stream, benign[:wormOffset]...)
	stream = append(stream, w.Bytes...)
	stream = append(stream, benign[wormOffset:3*4096]...)

	s, err := NewStreamScanner(d, 4096, 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	alerts := s.Alerts()
	if len(alerts) == 0 {
		t.Fatal("worm not detected")
	}
	wormEnd := wormOffset + len(w.Bytes)
	for _, a := range alerts {
		if a.BestStart != a.Offset+int64(a.Verdict.BestStart) {
			t.Errorf("alert at %d: BestStart %d is not window offset plus relative start %d",
				a.Offset, a.BestStart, a.Verdict.BestStart)
		}
		if a.BestStart < int64(wormOffset) || a.BestStart >= int64(wormEnd) {
			t.Errorf("alert at %d: stream-absolute BestStart %d outside the worm [%d, %d)",
				a.Offset, a.BestStart, wormOffset, wormEnd)
		}
	}
}
