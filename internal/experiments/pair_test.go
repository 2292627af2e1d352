package experiments

import (
	"strings"
	"testing"
)

// TestJudgePairs pins the paired bench gate's rule: a regression must
// show in nine tenths of the pairs and beat the parent's own spread,
// allocs/op fails when every change run reads more than every parent
// run, and an entry one side lacks is reported but not judged.
func TestJudgePairs(t *testing.T) {
	const k = 10
	// The parent's runs drift with the host: ±3% around 1000 ns/op.
	host := [k]float64{1.00, 1.03, 0.98, 1.01, 0.97, 1.02, 0.99, 1.01, 0.98, 1.00}
	runs := func(scale func(i int) float64, allocs int64, extra string) [][]EngineBenchResult {
		out := make([][]EngineBenchResult, k)
		for i := range out {
			out[i] = []EngineBenchResult{
				{Name: "scan", NsPerOp: 1000 * host[i] * scale(i), AllocsPerOp: allocs},
				{Name: "steady", NsPerOp: 500 * host[i]},
			}
			if extra != "" {
				out[i] = append(out[i], EngineBenchResult{Name: extra, NsPerOp: 10})
			}
		}
		return out
	}
	same := func(int) float64 { return 1 }
	parent := runs(same, 3, "")
	// A GC that empties a sync.Pool mid-run rounds a run's allocs/op up
	// by one, on either side, in a few runs or in most of them.
	refilled := runs(same, 3, "")
	for i := 1; i < 7; i++ {
		refilled[i][0].AllocsPerOp = 4
	}
	for _, tc := range []struct {
		name       string
		parent     [][]EngineBenchResult
		change     [][]EngineBenchResult
		wantReject string // "" passes
		wantOutput string
	}{
		{name: "identical runs", parent: parent, change: runs(same, 3, "")},
		{
			name:   "uniform slowdown on both sides of every pair",
			parent: runs(func(i int) float64 { return 1 + 0.2*float64(i) }, 3, ""),
			change: runs(func(i int) float64 { return 1 + 0.2*float64(i) }, 3, ""),
		},
		{
			name:       "change 15% slower in every pair",
			parent:     parent,
			change:     runs(func(int) float64 { return 1.15 }, 3, ""),
			wantReject: "scan: slower in 10 of 10 pairs",
		},
		{
			name:   "one +50% outlier pair",
			parent: parent,
			change: runs(func(i int) float64 {
				if i == 3 {
					return 1.5
				}
				return 1
			}, 3, ""),
			wantOutput: "slower  1/10",
		},
		{
			name:       "one more alloc per op",
			parent:     parent,
			change:     runs(same, 4, ""),
			wantReject: "scan: at least 4 allocs/op in every run, parent at most 3",
		},
		{name: "pool refills in most change runs", parent: parent, change: refilled},
		{name: "pool refills in every change run and most parent runs", parent: refilled, change: runs(same, 4, "")},
		{
			name:       "entry on one side only",
			parent:     parent,
			change:     runs(same, 3, "new_bench"),
			wantOutput: "new_bench                    in 0 parent and 10 change runs of 10; not judged",
		},
	} {
		var out strings.Builder
		err := JudgePairs(&out, tc.parent, tc.change)
		switch {
		case tc.wantReject == "" && err != nil:
			t.Errorf("%s: rejected: %v\n%s", tc.name, err, out.String())
		case tc.wantReject != "" && (err == nil || !strings.Contains(err.Error(), tc.wantReject)):
			t.Errorf("%s: err = %v, want a rejection naming %q\n%s", tc.name, err, tc.wantReject, out.String())
		}
		if !strings.Contains(out.String(), tc.wantOutput) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.wantOutput, out.String())
		}
		if tc.wantReject != "" && strings.Contains(err.Error(), "steady") {
			t.Errorf("%s: untouched entry judged a regression: %v", tc.name, err)
		}
	}
	if err := JudgePairs(&strings.Builder{}, parent, parent[:k-1]); err == nil {
		t.Error("unequal run counts judged")
	}
}
