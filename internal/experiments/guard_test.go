package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGuardJudgesRatioToReference pins the bench guard's quantity: ns/op
// divided by the same run's ScanReference. A host that is uniformly
// twice as slow passes; a benchmark that slowed against its own run's
// reference fails, as does any alloc growth.
func TestGuardJudgesRatioToReference(t *testing.T) {
	committed := filepath.Join(t.TempDir(), "BENCH_engine.json")
	blob, err := json.Marshal(EngineBenchReport{Results: []EngineBenchResult{
		{Name: referenceName, NsPerOp: 1000, AllocsPerOp: 30},
		{Name: "scan", NsPerOp: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(committed, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(ref, scan float64, allocs int64) func() ([]EngineBenchResult, error) {
		return func() ([]EngineBenchResult, error) {
			return []EngineBenchResult{
				{Name: referenceName, NsPerOp: ref, AllocsPerOp: 30},
				{Name: "scan", NsPerOp: scan, AllocsPerOp: allocs},
			}, nil
		}
	}
	for _, tc := range []struct {
		name       string
		ref, scan  float64
		allocs     int64
		wantReject string
	}{
		{name: "slower host, same ratio", ref: 2000, scan: 200},
		{name: "within 20%", ref: 1000, scan: 119},
		{name: "ratio regressed", ref: 2000, scan: 260, wantReject: "scan: 0.1300×"},
		{name: "alloc growth", ref: 1000, scan: 100, allocs: 1, wantReject: "1 allocs/op"},
	} {
		var out strings.Builder
		err := guardBench(&out, committed, committed, run(tc.ref, tc.scan, tc.allocs))
		switch {
		case tc.wantReject == "" && err != nil:
			t.Errorf("%s: rejected: %v\n%s", tc.name, err, out.String())
		case tc.wantReject != "" && (err == nil || !strings.Contains(out.String(), tc.wantReject)):
			t.Errorf("%s: err = %v, want a rejection naming %q\n%s", tc.name, err, tc.wantReject, out.String())
		}
	}
}
