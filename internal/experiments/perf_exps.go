package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/mel"
	"repro/internal/shellcode"
	"repro/internal/stats"
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
// trajectory, recorded across PRs. SpeedupSequential is the optimized
// engine's ns/op improvement over the retained seed implementation on
// the default-rules 4 KB benign scan.
type EngineBenchReport struct {
	Workload          string              `json:"workload"`
	Results           []EngineBenchResult `json:"results"`
	SpeedupSequential float64             `json:"speedup_sequential"`
}

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

// EngineBench measures MEL-engine scan throughput — optimized engine vs
// the retained reference, plus the worm positive case and the windowed
// stream path — and writes the JSON artifact to outPath ("" skips the
// file).
func EngineBench(w io.Writer, outPath string, seed uint64) (EngineBenchReport, error) {
	cases, err := corpus.Dataset(seed, 8, 4096)
	if err != nil {
		return EngineBenchReport{}, err
	}
	benign := cases[0].Data[:4000]

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
	reference := benchResult("engine_scan_reference_4k", len(benign), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ScanReference(benign); err != nil {
				b.Fatal(err)
			}
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

	report.Results = []EngineBenchResult{optimized, reference, wormRes, big64Res, mixedRes, streamRes}
	if optimized.NsPerOp > 0 {
		report.SpeedupSequential = reference.NsPerOp / optimized.NsPerOp
	}

	fmt.Fprintln(w, "E19: engine scan throughput (4 KB cases, DAWN rules)")
	for _, r := range report.Results {
		fmt.Fprintf(w, "  %-28s %12.0f ns/op %9.2f MB/s %6d allocs/op\n",
			r.Name, r.NsPerOp, r.MBPerSec, r.AllocsPerOp)
	}
	fmt.Fprintf(w, "  sequential speedup vs reference: %.2fx\n", report.SpeedupSequential)

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

// JudgePairs is the paired bench gate's verdict. parent[i] and
// change[i] are the results of pair i: one run of each side, back to
// back on one host, so a host that slows or speeds up moves both. An
// entry measured in every run of both sides is judged. Its ns/op
// regressed when the change was slower in at least nine tenths of the
// pairs (ties count for neither) and the median per-pair delta exceeds
// the interquartile range of the parent's own runs. Its allocs/op
// regressed when every change run reads more than every parent run:
// allocs/op is allocations over b.N rounded down, and a sync.Pool
// refilled after a GC puts an entry like pipeline_mixed_4k at 30 in
// some runs and 31 in others on either side, so no one run, median or
// minimum stands for a side. A zero-alloc entry reads one figure, and
// on it any rise fails. An entry missing from either side is printed
// and not judged. JudgePairs writes one line per entry to w and returns
// an error naming every regression.
func JudgePairs(w io.Writer, parent, change [][]EngineBenchResult) error {
	k := len(parent)
	if k == 0 || len(change) != k {
		return fmt.Errorf("bench-pair: %d parent runs against %d change runs", len(parent), len(change))
	}
	byName := func(runs [][]EngineBenchResult) map[string][]EngineBenchResult {
		out := map[string][]EngineBenchResult{}
		for _, run := range runs {
			for _, r := range run {
				out[r.Name] = append(out[r.Name], r)
			}
		}
		return out
	}
	p, c := byName(parent), byName(change)
	var names []string
	for _, run := range [][]EngineBenchResult{parent[0], change[0]} {
		for _, r := range run {
			if !slices.Contains(names, r.Name) {
				names = append(names, r.Name)
			}
		}
	}
	// quantile's input is never empty: k > 0.
	quantile := func(xs []float64, q float64) float64 {
		v, _ := stats.Quantile(xs, q)
		return v
	}
	need := int(math.Ceil(0.9 * float64(k)))

	var regressions []string
	for _, name := range names {
		pr, cr := p[name], c[name]
		if len(pr) != k || len(cr) != k {
			fmt.Fprintf(w, "  %-28s in %d parent and %d change runs of %d; not judged\n", name, len(pr), len(cr), k)
			continue
		}
		pns, deltas := make([]float64, k), make([]float64, k)
		pa, ca := pr[0].AllocsPerOp, cr[0].AllocsPerOp // parent max, change min
		slower := 0
		for i := range k {
			pns[i] = pr[i].NsPerOp
			deltas[i] = cr[i].NsPerOp - pr[i].NsPerOp
			if deltas[i] > 0 {
				slower++
			}
			pa, ca = max(pa, pr[i].AllocsPerOp), min(ca, cr[i].AllocsPerOp)
		}
		pmed, delta := quantile(pns, 0.5), quantile(deltas, 0.5)
		iqr := quantile(pns, 0.75) - quantile(pns, 0.25)
		verdict := "ok"
		if slower >= need && delta > iqr {
			verdict = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf(
				"%s: slower in %d of %d pairs, median delta %+.0f ns/op (%+.1f%%) exceeds the parent's IQR %.0f ns/op",
				name, slower, k, delta, 100*delta/pmed, iqr))
		}
		if ca > pa {
			verdict = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: at least %d allocs/op in every run, parent at most %d", name, ca, pa))
		}
		fmt.Fprintf(w, "  %-28s %12.0f ns/op %+7.1f%% (IQR %5.1f%%) slower %2d/%d  allocs/op parent<=%d change>=%d  %s\n",
			name, pmed, 100*delta/pmed, 100*iqr/pmed, slower, k, pa, ca, verdict)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench-pair: %d regression(s):\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	return nil
}
