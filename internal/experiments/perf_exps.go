package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/mel"
	"repro/internal/shellcode"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/tracing"
)

// EngineBenchResult is one measured scan configuration.
type EngineBenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// EngineBenchReport is the BENCH_engine.json artifact: the engine's perf
// trajectory, tracked across PRs. SpeedupSequential is the optimized
// engine's ns/op improvement over the retained seed implementation on
// the default-rules 4 KB benign scan. TracingOverhead is the relative
// ns/op cost of running that same scan with a live per-scan trace
// (traced/untraced − 1); the observability budget holds it under 5%.
type EngineBenchReport struct {
	Workload          string              `json:"workload"`
	Results           []EngineBenchResult `json:"results"`
	SpeedupSequential float64             `json:"speedup_sequential"`
	TracingOverhead   float64             `json:"tracing_overhead"`
	// EventsOverhead is the additional relative cost of journaling every
	// scan as a wide event on top of the traced path (events/traced − 1);
	// like tracing, the budget holds it under 5%.
	EventsOverhead float64 `json:"events_overhead"`
}

// referenceName is the frozen ScanReference benchmark. The bench guard
// judges every other ns/op as a multiple of it, measured in the same
// run, so a uniformly slower host does not read as a regression.
const referenceName = "engine_scan_reference_4k"

// benchResult runs f under testing.Benchmark and reports it as name,
// with throughput over nbytes per op.
func benchResult(name string, nbytes int, f func(b *testing.B)) EngineBenchResult {
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

// engineCases are the engine benchmarks' inputs: eight 4 KB text cases
// and, cut from the first, the benign case ScanReference is timed on.
func engineCases(seed uint64) (cases []corpus.Case, benign []byte, err error) {
	cases, err = corpus.Dataset(seed, 8, 4096)
	if err != nil {
		return nil, nil, err
	}
	return cases, cases[0].Data[:4000], nil
}

// referenceResult measures ScanReference on benign.
func referenceResult(eng *mel.Engine, benign []byte) EngineBenchResult {
	return benchResult(referenceName, len(benign), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ScanReference(benign); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// EngineBench measures MEL-engine scan throughput — optimized engine vs
// the retained reference, plus the worm positive case and the windowed
// stream path — and writes the JSON artifact to outPath ("" skips the
// file).
func EngineBench(w io.Writer, outPath string, seed uint64) (EngineBenchReport, error) {
	cases, benign, err := engineCases(seed)
	if err != nil {
		return EngineBenchReport{}, err
	}

	worm, err := encoder.Encode(shellcode.Execve().Code, encoder.Options{Seed: seed})
	if err != nil {
		return EngineBenchReport{}, err
	}
	wormCase := append(append([]byte{}, benign[:2000]...), worm.Bytes...)
	wormCase = append(wormCase, benign[2000:]...)
	if len(wormCase) > 4096 {
		wormCase = wormCase[:4096]
	}

	eng := mel.NewEngine(mel.DAWN())

	report := EngineBenchReport{Workload: "4 KB benign text case, DAWN rules, sequential mode"}

	optimized := benchResult("engine_scan_benign_4k", len(benign), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Scan(benign); err != nil {
				b.Fatal(err)
			}
		}
	})
	reference := referenceResult(eng, benign)
	rec := tracing.NewRecorder(tracing.RecorderConfig{})
	traced := benchResult("engine_scan_traced_4k", len(benign), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The full per-scan tracing cost as the server pays it: trace
			// allocation, timed stages, finish, and recorder publish.
			tr := tracing.New(tracing.TraceID{}, len(benign))
			if _, err := eng.ScanTraced(benign, tr); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
			rec.Record(tr)
		}
	})
	// The events path is the traced path plus a wide-event journal write
	// per scan: what the server's hot path pays with -events enabled.
	// SampleEvery 1 defeats the benign sampler, so this is the worst
	// case — every scan encodes and publishes.
	journal := events.New(events.Config{Capacity: events.DefaultCapacity, SampleEvery: 1})
	eventsRes := benchResult("engine_scan_events_4k", len(benign), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := tracing.New(tracing.TraceID{}, len(benign))
			res, err := eng.ScanTraced(benign, tr)
			if err != nil {
				b.Fatal(err)
			}
			tr.Finish()
			rec.Record(tr)
			ev := events.Event{
				StartUnixNs: tr.Start.UnixNano(),
				Total:       tr.Total(),
				Bytes:       len(benign),
				MEL:         res.MEL,
				ViewIndex:   -1,
			}
			// Spread the shard hash as real trace ids would.
			ev.TraceID[15] = byte(i)
			ev.TraceID[14] = byte(i >> 8)
			for s := 0; s < tracing.NumStages; s++ {
				ev.Stages[s] = tr.StageDur(tracing.Stage(s))
			}
			journal.Record(&ev)
		}
	})
	wormRes := benchResult("engine_scan_worm_4k", len(wormCase), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Scan(wormCase); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Larger and adversarial inputs: a 64 KB text case (the cost curve
	// past the calibrated window size) and a 4 KB case alternating text
	// with high-entropy runs (the quick tables miss most offsets there).
	bigCases, err := corpus.Dataset(seed+1, 16, 4096)
	if err != nil {
		return EngineBenchReport{}, err
	}
	big := corpus.Concat(bigCases)
	if len(big) > 64<<10 {
		big = big[:64<<10]
	}
	big64Res := benchResult("engine_scan_benign_64k", len(big), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Scan(big); err != nil {
				b.Fatal(err)
			}
		}
	})
	mixed := append([]byte{}, benign...)
	rng := rand.New(rand.NewSource(int64(seed) + 7))
	for off := 512; off+512 <= len(mixed); off += 1024 {
		rng.Read(mixed[off : off+512])
	}
	mixedRes := benchResult("engine_scan_mixed_4k", len(mixed), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Scan(mixed); err != nil {
				b.Fatal(err)
			}
		}
	})

	det, err := core.New()
	if err != nil {
		return EngineBenchReport{}, err
	}
	var stream []byte
	for _, c := range cases {
		stream = append(stream, c.Data...)
	}
	scanner, err := core.NewStreamScanner(det, 0, 0)
	if err != nil {
		return EngineBenchReport{}, err
	}
	if _, err := scanner.Write(stream); err != nil { // warm caches and pools
		return EngineBenchReport{}, err
	}
	streamRes := benchResult("stream_scanner_throughput", len(stream), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := scanner.Write(stream); err != nil {
				b.Fatal(err)
			}
		}
	})

	report.Results = []EngineBenchResult{optimized, reference, traced, eventsRes, wormRes, big64Res, mixedRes, streamRes}
	if optimized.NsPerOp > 0 {
		report.SpeedupSequential = reference.NsPerOp / optimized.NsPerOp
		report.TracingOverhead = traced.NsPerOp/optimized.NsPerOp - 1
	}
	if traced.NsPerOp > 0 {
		report.EventsOverhead = eventsRes.NsPerOp/traced.NsPerOp - 1
	}

	fmt.Fprintln(w, "E19: engine scan throughput (4 KB cases, DAWN rules)")
	for _, r := range report.Results {
		fmt.Fprintf(w, "  %-28s %12.0f ns/op %9.2f MB/s %6d allocs/op\n",
			r.Name, r.NsPerOp, r.MBPerSec, r.AllocsPerOp)
	}
	fmt.Fprintf(w, "  sequential speedup vs reference: %.2fx\n", report.SpeedupSequential)
	fmt.Fprintf(w, "  tracing overhead: %.2f%%\n", report.TracingOverhead*100)
	fmt.Fprintf(w, "  events overhead: %.2f%%\n", report.EventsOverhead*100)

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

// BenchGuard re-measures the engine benchmarks and fails if any named
// benchmark regressed against the committed BENCH_engine.json artifact:
// its ns/op as a multiple of the same run's ScanReference more than 20%
// above the committed artifact's own multiple, or any rise in
// allocs/op. Benchmarks present in only one of the two reports are
// noted but not judged. A failing first pass is measured once more and
// judged on the better of the two runs, so a single co-tenant noise
// spike does not fail CI.
func BenchGuard(w io.Writer, committedPath string, seed uint64) error {
	return guardBench(w, committedPath, committedPath, func() ([]EngineBenchResult, error) {
		report, err := EngineBench(w, "", seed)
		return report.Results, err
	})
}

// guardBench is the regression judge shared by the engine and content
// guards. measure re-runs one benchmark family and must include a
// ScanReference result; referencePath is the artifact holding the
// committed one. Each result's ns/op is divided by its own run's
// reference and compared with the committed ratio: more than 20%
// above it — or any rise in allocs/op — is a violation. A failing
// first pass is measured once more and judged on the better of the two
// runs per benchmark.
func guardBench(w io.Writer, committedPath, referencePath string, measure func() ([]EngineBenchResult, error)) error {
	base, err := readBenchResults(committedPath)
	if err != nil {
		return err
	}
	refBase, err := readBenchResults(referencePath)
	if err != nil {
		return err
	}
	committedRef := refBase[referenceName].NsPerOp
	if committedRef <= 0 {
		return fmt.Errorf("bench-guard: %s has no %s result", referencePath, referenceName)
	}

	// ratios turns one run into ns/op per reference ns/op by name.
	ratios := func(results []EngineBenchResult) (map[string]EngineBenchResult, error) {
		out := make(map[string]EngineBenchResult, len(results))
		for _, r := range results {
			out[r.Name] = r
		}
		ref := out[referenceName].NsPerOp
		if ref <= 0 {
			return nil, fmt.Errorf("bench-guard: run measured no %s", referenceName)
		}
		for name, r := range out {
			r.NsPerOp /= ref
			out[name] = r
		}
		return out, nil
	}
	judge := func(results []EngineBenchResult, run map[string]EngineBenchResult) []string {
		var violations []string
		for _, res := range results {
			r := run[res.Name]
			c, ok := base[r.Name]
			if !ok {
				if r.Name != referenceName {
					fmt.Fprintf(w, "  %-28s no committed baseline; skipped\n", r.Name)
				}
				continue
			}
			if want := c.NsPerOp / committedRef; r.NsPerOp > want*1.20 {
				violations = append(violations, fmt.Sprintf(
					"%s: %.4f× %s exceeds committed %.4f× by more than 20%%",
					r.Name, r.NsPerOp, referenceName, want))
			}
			if r.AllocsPerOp > c.AllocsPerOp {
				violations = append(violations, fmt.Sprintf(
					"%s: %d allocs/op, committed %d",
					r.Name, r.AllocsPerOp, c.AllocsPerOp))
			}
		}
		return violations
	}

	results, err := measure()
	if err != nil {
		return err
	}
	run, err := ratios(results)
	if err != nil {
		return err
	}
	violations := judge(results, run)
	if len(violations) > 0 {
		fmt.Fprintf(w, "  bench-guard: %d violation(s) on first pass; re-measuring\n", len(violations))
		retry, err := measure()
		if err != nil {
			return err
		}
		again, err := ratios(retry)
		if err != nil {
			return err
		}
		// Judge the better of the two runs per benchmark.
		for name, r := range run {
			if r2, ok := again[name]; ok {
				r.NsPerOp = min(r.NsPerOp, r2.NsPerOp)
				r.AllocsPerOp = min(r.AllocsPerOp, r2.AllocsPerOp)
				run[name] = r
			}
		}
		violations = judge(results, run)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(w, "  REGRESSION %s\n", v)
		}
		return fmt.Errorf("bench-guard: %d regression(s) vs %s", len(violations), committedPath)
	}
	fmt.Fprintf(w, "  bench-guard: all benchmarks within 20%% of %s relative to %s, no alloc growth\n", committedPath, referenceName)
	return nil
}

// readBenchResults reads a committed bench artifact's results by name.
// Every artifact carries its results under the same key; the
// family-specific fields are not judged.
func readBenchResults(path string) (map[string]EngineBenchResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench-guard: read committed artifact: %w", err)
	}
	var committed struct {
		Results []EngineBenchResult `json:"results"`
	}
	if err := json.Unmarshal(blob, &committed); err != nil {
		return nil, fmt.Errorf("bench-guard: parse %s: %w", path, err)
	}
	out := make(map[string]EngineBenchResult, len(committed.Results))
	for _, r := range committed.Results {
		out[r.Name] = r
	}
	return out, nil
}
