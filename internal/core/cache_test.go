package core

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/melmodel"
)

// TestThresholdCacheMatchesUncached: the cached threshold path must
// produce exactly the Params and τ the direct Estimate+Threshold
// computation yields, across payload sizes.
func TestThresholdCacheMatchesUncached(t *testing.T) {
	d := buildDetector(t)
	payloads := benignCases(t, 77, 2)
	for _, size := range []int{100, 1024, 4000} {
		p := payloads[0][:size]
		// Scan twice: second hit comes from the cache.
		first, err := d.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		second, err := d.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		if first.Params != second.Params || first.Threshold != second.Threshold {
			t.Fatalf("size %d: cached scan diverged: %+v vs %+v", size, first, second)
		}
		// Compare against the detector's own stored table (EnglishFreq()
		// rebuilds its table per call with map-order float summation, so a
		// fresh copy can differ in the last ulp).
		params, err := melmodel.Estimate(d.freq, size)
		if err != nil {
			t.Fatal(err)
		}
		tau, err := melmodel.Threshold(d.Alpha(), params.N, params.P)
		if err != nil {
			t.Fatal(err)
		}
		if first.Params != params || first.Threshold != tau {
			t.Fatalf("size %d: cached path != direct computation:\n got %+v τ=%v\nwant %+v τ=%v",
				size, first.Params, first.Threshold, params, tau)
		}
	}
}

// TestCalibrateInvalidatesThresholdCache: recalibration must not serve
// thresholds derived from the previous frequency table.
func TestCalibrateInvalidatesThresholdCache(t *testing.T) {
	d := buildDetector(t)
	payload := benignCases(t, 78, 1)[0]
	before, err := d.Scan(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Retrain on a skewed sample: heavy in 'l'/'o' (I/O characters), so p
	// and therefore τ must move.
	training := bytes.Repeat([]byte("hello worlds "), 400)
	if err := d.Calibrate(training); err != nil {
		t.Fatal(err)
	}
	after, err := d.Scan(payload)
	if err != nil {
		t.Fatal(err)
	}
	if before.Params.P == after.Params.P {
		t.Fatal("recalibration did not change p; cache likely stale")
	}
	params, err := melmodel.Estimate(d.freq, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if after.Params != params {
		t.Fatalf("post-calibration params stale:\n got %+v\nwant %+v", after.Params, params)
	}
}

// TestStreamBufferBounded: the stream scanner's window buffer must never
// grow beyond one window no matter how the input is chunked, and the
// alerts must be identical across chunkings.
func TestStreamBufferBounded(t *testing.T) {
	d := streamDetector(t)
	cases, err := corpus.Dataset(52, 6, 4000)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for _, c := range cases {
		stream = append(stream, c.Data...)
	}
	var want []StreamAlert
	for i, chunk := range []int{1, 7, 333, 2048, 4096, 5000, len(stream)} {
		s, err := NewStreamScanner(d, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			if _, err := s.Write(stream[off:end]); err != nil {
				t.Fatal(err)
			}
			if cap(s.buf) > s.window {
				t.Fatalf("chunk %d: buffer grew to %d (window %d)", chunk, cap(s.buf), s.window)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		alerts := s.Alerts()
		if i == 0 {
			want = alerts
			continue
		}
		if len(alerts) != len(want) {
			t.Fatalf("chunk %d: %d alerts, want %d", chunk, len(alerts), len(want))
		}
		for j := range alerts {
			if alerts[j].Offset != want[j].Offset {
				t.Fatalf("chunk %d: alert %d at offset %d, want %d",
					chunk, j, alerts[j].Offset, want[j].Offset)
			}
		}
	}
}

// TestScanAllMatchesScan: the batch path must produce the verdicts of
// sequential Scan calls, in order, and keep the non-nil empty result for
// an empty batch.
func TestScanAllMatchesScan(t *testing.T) {
	d := buildDetector(t)
	batch := append(benignCases(t, 80, 3), wormCases(t, 2)...)
	vs, err := d.ScanAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range batch {
		want, err := d.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		if vs[i] != want {
			t.Fatalf("verdict %d diverges from Scan: %+v vs %+v", i, vs[i], want)
		}
	}
	empty, err := d.ScanAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty batch: got %#v, want non-nil empty slice", empty)
	}
}
