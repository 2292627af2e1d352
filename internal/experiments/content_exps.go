package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/shellcode"
)

// ContentBenchReport is the BENCH_content.json artifact: the content
// pipeline's cost and effectiveness on mixed traffic, tracked across
// PRs alongside BENCH_engine.json.
type ContentBenchReport struct {
	Workload string              `json:"workload"`
	Results  []EngineBenchResult `json:"results"`
	// TriageClearRate is the fraction of benign mixed traffic the triage
	// gate cleared without any MEL pass at all.
	TriageClearRate float64 `json:"triage_clear_rate"`
	// PipelineSpeedup is the ns/op advantage of the triage-gated
	// pipeline over scanning every payload and every decoded view
	// unconditionally (baseline_scan_all / pipeline_mixed).
	PipelineSpeedup float64 `json:"pipeline_speedup"`
	// WrappedWormCaught records that a gzip-wrapped worm — invisible to
	// the raw scan — was flagged through the decode path.
	WrappedWormCaught bool `json:"wrapped_worm_caught"`
	// WrappedWormRawMissed records the premise: the same wrapped worm
	// scans clean without the pipeline.
	WrappedWormRawMissed bool `json:"wrapped_worm_raw_missed"`
}

// ContentBench measures the content pipeline — triage gate cost, decode
// cost on a gzip case and on the plain-text reject path, and the gated
// pipeline against the scan-everything baseline on mixed benign traffic
// (30% of bodies wrapped in base64 or gzip) — and proves the detection win: a gzip-wrapped worm the raw
// scan misses is caught through the decode path. Writes the JSON
// artifact to outPath ("" skips the file).
func ContentBench(w io.Writer, outPath string, seed uint64) (ContentBenchReport, error) {
	return contentBenchN(w, outPath, seed, 40)
}

// contentBenchN is ContentBench with the mixed-traffic case count
// exposed for fast tests.
func contentBenchN(w io.Writer, outPath string, seed uint64, nCases int) (ContentBenchReport, error) {
	det, err := core.New()
	if err != nil {
		return ContentBenchReport{}, err
	}
	pipe, err := content.NewPipeline(det.ScanTraced, content.PipelineConfig{})
	if err != nil {
		return ContentBenchReport{}, err
	}
	dec := pipe.Decoder()

	cases, err := corpus.Dataset(seed, nCases, 4096)
	if err != nil {
		return ContentBenchReport{}, err
	}
	// Mixed benign traffic: 30% of bodies arrive behind an encoding
	// layer, alternating base64 and gzip — the shape -encoded-frac 0.3
	// traffic has.
	mixed := make([][]byte, 0, len(cases))
	var mixedBytes int
	for i, c := range cases {
		body := c.Data
		switch i % 10 {
		case 0, 4:
			body = content.EncodeBase64(body)
		case 2:
			body = content.EncodeGzip(body)
		}
		mixed = append(mixed, body)
		mixedBytes += len(body)
	}

	// A worm window the raw scan flags, hidden behind gzip. Some gzip
	// blobs trip the raw detector on their own (compressed bytes can
	// pseudo-execute far); walk the seed until the premise — wrapped
	// worm invisible to the raw scan — holds.
	var wrapped []byte
	benign := cases[0].Data
	for s, tries := seed, 0; ; s, tries = s+1, tries+1 {
		if tries >= 16 {
			return ContentBenchReport{}, fmt.Errorf("no seed in %d..%d yields a raw-clean gzip worm", seed, s-1)
		}
		worm, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: s, SledLen: 64})
		if err != nil {
			return ContentBenchReport{}, err
		}
		window := append(append([]byte{}, benign[:2000]...), worm.Bytes...)
		window = append(window, benign[2000:]...)
		if len(window) > 4096 {
			window = window[:4096]
		}
		raw, err := det.Scan(window)
		if err != nil {
			return ContentBenchReport{}, err
		}
		if !raw.Malicious {
			continue // the capped splice must still flag raw to matter
		}
		cand := content.EncodeGzip(window)
		rawWrapped, err := det.Scan(cand)
		if err != nil {
			return ContentBenchReport{}, err
		}
		if !rawWrapped.Malicious {
			wrapped = cand
			break
		}
	}

	report := ContentBenchReport{
		Workload:             "4 KB mixed benign traffic, 30% encoded (base64/gzip), DAWN rules",
		WrappedWormRawMissed: true,
	}

	v, err := pipe.Scan(wrapped)
	if err != nil {
		return ContentBenchReport{}, err
	}
	report.WrappedWormCaught = v.Malicious && v.DecodeChain == "gzip"

	var cleared int
	for _, body := range mixed {
		v, err := pipe.Scan(body)
		if err != nil {
			return ContentBenchReport{}, err
		}
		if v.TriageCleared {
			cleared++
		}
	}
	report.TriageClearRate = float64(cleared) / float64(len(mixed))

	measure := func(name string, nbytes int, f func(b *testing.B)) EngineBenchResult {
		r := testing.Benchmark(f)
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		mbPerSec := 0.0
		if nsPerOp > 0 {
			mbPerSec = float64(nbytes) / nsPerOp * 1e9 / 1e6
		}
		return EngineBenchResult{
			Name:        name,
			NsPerOp:     nsPerOp,
			MBPerSec:    mbPerSec,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}

	tri := pipe.Triage()
	triageRes := measure("triage_assess_4k", len(benign), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := tri.Assess(benign); r.Score < 0 {
				b.Fatal("impossible score")
			}
		}
	})
	gzBody := content.EncodeGzip(benign)
	decodeRes := measure("decode_views_gzip_4k", len(benign), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var total int
			for view, err := range dec.Views(gzBody, 0) {
				if err != nil {
					b.Fatal(err)
				}
				total += len(view.Data)
			}
			if total < len(benign) {
				b.Fatalf("decoded only %d bytes", total)
			}
		}
	})
	// The reject path: one plain-text case, which sniffs no layer.
	textRes := measure("decode_views_text_4k", len(benign), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for range dec.Views(benign, 0) {
				b.Fatal("plain-text case yielded a view")
			}
		}
	})
	pipelineRes := measure("pipeline_mixed_4k", mixedBytes, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, body := range mixed {
				if _, err := pipe.Scan(body); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	baselineRes := measure("baseline_scan_all_4k", mixedBytes, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// No triage gate: MEL on every payload and every decoded view.
			for _, body := range mixed {
				if _, err := det.Scan(body); err != nil {
					b.Fatal(err)
				}
				for view, verr := range dec.Views(body, 0) {
					if verr != nil {
						b.Fatal(verr)
					}
					if _, err := det.Scan(view.Data); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})

	report.Results = []EngineBenchResult{triageRes, decodeRes, textRes, pipelineRes, baselineRes}
	if pipelineRes.NsPerOp > 0 {
		report.PipelineSpeedup = baselineRes.NsPerOp / pipelineRes.NsPerOp
	}

	fmt.Fprintln(w, "E21: content pipeline (triage -> decode -> MEL) on mixed traffic")
	for _, r := range report.Results {
		fmt.Fprintf(w, "  %-28s %12.0f ns/op %9.2f MB/s %6d allocs/op\n",
			r.Name, r.NsPerOp, r.MBPerSec, r.AllocsPerOp)
	}
	fmt.Fprintf(w, "  triage clear rate (benign mixed): %.1f%%\n", report.TriageClearRate*100)
	fmt.Fprintf(w, "  pipeline speedup vs scan-all baseline: %.2fx\n", report.PipelineSpeedup)
	fmt.Fprintf(w, "  gzip-wrapped worm: raw scan missed=%v, pipeline caught=%v\n",
		report.WrappedWormRawMissed, report.WrappedWormCaught)

	if outPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return report, err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return report, fmt.Errorf("write %s: %w", outPath, err)
		}
		fmt.Fprintf(w, "  wrote %s\n", outPath)
	}
	fmt.Fprintln(w)
	return report, nil
}

// ContentGuard re-measures the content benchmarks and fails if any
// regressed against the committed BENCH_content.json artifact, under
// the same 20%-ns/op / zero-alloc-growth rules as the engine guard.
func ContentGuard(w io.Writer, committedPath string, seed uint64) error {
	return guardBench(w, committedPath, func() ([]EngineBenchResult, error) {
		report, err := ContentBench(w, "", seed)
		return report.Results, err
	})
}
