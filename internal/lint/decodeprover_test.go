package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/mel"
)

// loadSelf loads this repository's own module once for the prover's
// static-leg tests; they need the real internal/mel source.
var loadSelf = sync.OnceValues(func() (*Module, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return Load(root, []string{"./..."})
})

// capturePass builds a Pass that collects diagnostics for direct
// analyzer-leg invocation.
func capturePass(m *Module, name string) (*Pass, *[]Diagnostic) {
	var diags []Diagnostic
	return &Pass{Module: m, analyzer: &Analyzer{Name: name}, diags: &diags}, &diags
}

// TestProverQuickClean proves the shipped decoder has no divergence
// over the quick enumeration, and that an unconstrained clock leaves
// the run complete.
func TestProverQuickClean(t *testing.T) {
	rep := proveDecoderEquivalence(proverEngines(), true, &verifyClock{})
	if rep.Divergent != 0 {
		t.Fatalf("quick enumeration found %d divergence(s); first witness: %v", rep.Divergent, rep.Witnesses[0])
	}
	if rep.Incomplete != "" {
		t.Fatalf("no budget set, but enumeration stopped in layer %q", rep.Incomplete)
	}
	if rep.Streams == 0 || rep.RecordCmps == 0 {
		t.Fatalf("enumeration accounting empty: %+v", rep)
	}
}

// TestProverCatchesTamperedTable is the seeded-mutation check: corrupt
// one quick1 slot and the prover must return a concrete witness whose
// stream reproduces the divergence through the public decoder models.
func TestProverCatchesTamperedTable(t *testing.T) {
	engines := []proverEngine{{"dawn", 0, mel.NewEngine(mel.DAWN())}}
	e := engines[0].e
	// 0x90 (NOP) is a one-byte instruction; claiming length 2 shifts
	// every decode that crosses it.
	old := e.TamperQuick1ForTest(0x90, uint64(mel.RecSeq)<<4|2)
	defer e.TamperQuick1ForTest(0x90, old)

	rep := proveDecoderEquivalence(engines, true, &verifyClock{})
	if rep.Divergent == 0 {
		t.Fatal("tampered quick1 slot produced no divergence")
	}
	if len(rep.Witnesses) == 0 {
		t.Fatal("divergences counted but no witness captured")
	}
	w := rep.Witnesses[0]
	if !bytes.Contains(w.Stream, []byte{0x90}) {
		t.Fatalf("witness stream %x does not contain the tampered byte", w.Stream)
	}
	// The witness must reproduce: the two models must actually disagree
	// on the recorded stream at the recorded offset.
	recs := e.FusedRecords(w.Stream, nil)
	if got, want := recs[w.Off], e.ReferenceRecord(w.Stream, w.Off); got == want {
		t.Fatalf("witness does not reproduce: both models return %#x", got)
	} else if got != w.Fused || want != w.Spec {
		t.Fatalf("witness records stale: stream says %#x/%#x, witness says %#x/%#x", got, want, w.Fused, w.Spec)
	}
}

// TestProverBudgetIncomplete: an exhausted budget must surface as an
// incomplete report, never as a silent pass.
func TestProverBudgetIncomplete(t *testing.T) {
	clock := &verifyClock{budget: 1} // 1ns: expired at the first poll
	rep := proveDecoderEquivalence(proverEngines(), true, clock)
	if rep.Incomplete == "" {
		t.Fatal("1ns budget did not mark the enumeration incomplete")
	}
}

// TestStaticLegsCleanOnRepo runs the inventory and constructor legs
// over the real module: the modeled-table set must match the source
// and the linked SIB tables must equal the independent spec.
func TestStaticLegsCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	mod, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	melPkg := findModulePackage(mod, "internal/mel")
	if melPkg == nil {
		t.Fatal("internal/mel not found in module load")
	}
	pass, diags := capturePass(mod, "decodeprover")
	checkTableInventory(pass, melPkg)
	checkAddressConstructors(pass, melPkg)
	for _, d := range *diags {
		t.Errorf("static leg finding: %s", d.String())
	}
}

// TestVerifyAnalyzersEndToEnd drives both analyzers through the
// ordinary Run pipeline over the real module — the same path `mellint
// -verify ./...` takes — and expects a clean quick pass with stats
// populated.
func TestVerifyAnalyzersEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	mod, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	stats := &VerifyStats{}
	diags := Run(mod, VerifyAnalyzers(VerifyConfig{Quick: true, Stats: stats}))
	for _, d := range diags {
		t.Errorf("verify finding: %s", d.String())
	}
	if stats.Streams == 0 || stats.InvariantScans == 0 {
		t.Errorf("verify stats not populated: %+v streams=%d scans=%d", stats, stats.Streams, stats.InvariantScans)
	}
	if len(stats.Incomplete) != 0 {
		t.Errorf("unbudgeted run marked incomplete: %v", stats.Incomplete)
	}
}

// TestEncodeFuzzSeed pins the go fuzz corpus encoding witness seeds
// are written in.
func TestEncodeFuzzSeed(t *testing.T) {
	got := string(EncodeFuzzSeed([]byte{0x66, 0x90}, 3))
	want := "go test fuzz v1\n[]byte(\"f\\x90\")\nbyte('\\x03')\n"
	if got != want {
		t.Fatalf("seed encoding:\n got %q\nwant %q", got, want)
	}
}

// TestWriteWitnessSeeds checks the corpus export writes one readable
// seed file per witness.
func TestWriteWitnessSeeds(t *testing.T) {
	dir := t.TempDir()
	ws := []ProverWitness{
		{Engine: "dawn", Sel: 0, Stream: []byte{0x66, 0x67, 0x8B}},
		{Engine: "ape", Sel: 2, Stream: []byte{0xF3, 0xA4}},
	}
	if err := WriteWitnessSeeds(dir, ws); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("wrote %d files, want 2", len(ents))
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), "go test fuzz v1\n") {
			t.Fatalf("%s: not a go fuzz seed: %q", ent.Name(), b)
		}
	}
}

// TestReportDeterminism: with timings disabled, repeated runs over the
// same module must produce byte-identical lint.json and lint.sarif
// payloads — the property `make clean && make lint` relies on.
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	mod, err := loadSelf()
	if err != nil {
		t.Fatal(err)
	}
	analyzers := Analyzers()
	render := func() ([]byte, []byte) {
		diags := Run(mod, analyzers)
		j, err := FormatJSON(mod, analyzers, diags, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := FormatSARIF(mod, analyzers, diags, nil)
		if err != nil {
			t.Fatal(err)
		}
		return j, s
	}
	j1, s1 := render()
	j2, s2 := render()
	if !bytes.Equal(j1, j2) {
		t.Error("lint.json output differs between identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("lint.sarif output differs between identical runs")
	}
	if bytes.Contains(j1, []byte("timings")) || bytes.Contains(s1, []byte("totalTimeMS")) {
		t.Error("timings leaked into deterministic output")
	}
}
