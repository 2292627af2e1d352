package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestContentBenchReduced runs the content benchmark on a small mixed
// set: the triage hot path and the decoder's plain-text reject path
// must be allocation-free, the clear rate on benign mixed traffic must
// reach the 50% floor, the wrapped-worm detection win must hold in both
// directions, and the JSON artifact must round-trip.
func TestContentBenchReduced(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_content.json")
	var buf bytes.Buffer
	report, err := contentBenchN(&buf, out, DefaultSeed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 5 {
		t.Fatalf("results = %+v", report.Results)
	}
	byName := map[string]EngineBenchResult{}
	for _, r := range report.Results {
		byName[r.Name] = r
	}
	if tri := byName["triage_assess_4k"]; tri.AllocsPerOp != 0 {
		t.Errorf("triage hot path allocates: %d allocs/op", tri.AllocsPerOp)
	}
	if text := byName["decode_views_text_4k"]; text.AllocsPerOp != 0 {
		t.Errorf("plain-text decode reject path allocates: %d allocs/op", text.AllocsPerOp)
	}
	if report.TriageClearRate < 0.5 {
		t.Errorf("triage clear rate %.2f below the 0.5 floor", report.TriageClearRate)
	}
	if !report.WrappedWormRawMissed || !report.WrappedWormCaught {
		t.Errorf("wrapped worm: raw missed=%v caught=%v, want true/true",
			report.WrappedWormRawMissed, report.WrappedWormCaught)
	}
	if report.PipelineSpeedup <= 1 {
		t.Errorf("pipeline speedup %.2f, want > 1x over the scan-all baseline", report.PipelineSpeedup)
	}
	if !strings.Contains(buf.String(), "E21:") {
		t.Errorf("report output missing header:\n%s", buf.String())
	}

	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ContentBenchReport
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.TriageClearRate != report.TriageClearRate || len(decoded.Results) != 5 {
		t.Errorf("artifact round trip mismatch: %+v", decoded)
	}
}
