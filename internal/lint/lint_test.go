package lint

import (
	"flag"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current analyzer output")

// loadFixture loads the fixture mini-module under testdata/src once per
// test binary.
func loadFixture(t *testing.T) *Module {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	return mod
}

// render formats diagnostics with paths relative to the fixture module
// root so golden files are machine-independent.
func render(mod *Module, diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(mod.Dir, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		b.WriteString(filepath.ToSlash(rel))
		b.WriteString(d.String()[len(d.Pos.Filename):])
		b.WriteString("\n")
	}
	return b.String()
}

// TestAnalyzersGolden runs each analyzer over the fixture module and
// compares its findings against testdata/golden/<name>.golden. The
// *good packages are the negative controls: any finding inside one is
// a direct failure regardless of golden content.
func TestAnalyzersGolden(t *testing.T) {
	mod := loadFixture(t)
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			diags := Run(mod, []*Analyzer{a})
			got := render(mod, diags)

			for _, line := range strings.Split(got, "\n") {
				file, _, found := strings.Cut(line, ":")
				if found && strings.HasSuffix(path.Dir(file), "good") {
					t.Errorf("finding in clean fixture package: %s", line)
				}
			}
			if !strings.Contains(got, ":") {
				t.Errorf("%s produced no findings on its negative fixture", a.Name)
			}

			golden := filepath.Join("testdata", "golden", a.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run Golden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}

	// The hotpath checks (fmt/reflect use, defer in a loop) run inside
	// allocfree; this case pins exactly their findings, including the
	// one reached through a call into another package.
	t.Run("hotpath", func(t *testing.T) {
		var hot []Diagnostic
		for _, d := range Run(mod, []*Analyzer{AllocFreeAnalyzer()}) {
			if strings.HasPrefix(d.Message, "use of ") || strings.HasPrefix(d.Message, "defer inside a loop") {
				hot = append(hot, d)
			}
		}
		got := render(mod, hot)
		want := "hotpathbad/bad.go:27:3 allocfree: defer inside a loop on a hot path (in //mel:hotpath Scan)\n" +
			"hotpathbad/bad.go:29:6 allocfree: use of fmt.Println on a hot path (in //mel:hotpath Scan)\n" +
			"hotpathdep/dep.go:11:7 allocfree: use of fmt.Printf on a hot path (in Weigh, reached from //mel:hotpath Scan)\n"
		if got != want {
			t.Errorf("hotpath findings diverge\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	})
}

// TestDiagnosticOrdering pins the sort contract: findings come out
// ordered by file, then line, then column.
func TestDiagnosticOrdering(t *testing.T) {
	mod := loadFixture(t)
	diags := Run(mod, Analyzers())
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename {
			t.Fatalf("diagnostics out of file order: %s after %s", b.Pos.Filename, a.Pos.Filename)
		}
		if a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line {
			t.Fatalf("diagnostics out of line order in %s: %d after %d", a.Pos.Filename, b.Pos.Line, a.Pos.Line)
		}
	}
}

// TestRepoIsClean is the self-hosting gate: the full analyzer suite
// must report nothing on this repository beyond the findings recorded
// and justified in lint.baseline. This is the same run `make lint`
// performs, kept in-tree so a regular `go test ./...` catches hot-path
// or protocol regressions even when lint is skipped. The baseline is
// checked both ways: a finding outside it fails, and a baseline entry
// no longer produced is stale and fails too (delete it — dead entries
// hide typos that would silently excuse future findings).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ReadBaselineFile(filepath.Join(root, "lint.baseline"))
	if err != nil {
		t.Fatalf("reading lint.baseline: %v", err)
	}
	mod, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository module: %v", err)
	}
	diags := Run(mod, Analyzers())
	matched := make(map[string]bool)
	for _, d := range diags {
		if baseline.Match(mod.Dir, d) {
			matched[BaselineKey(mod.Dir, d)] = true
			continue
		}
		t.Errorf("repository is not lint-clean: %s", d.String())
	}
	for _, entry := range baseline.Entries() {
		if !matched[entry] {
			t.Errorf("stale lint.baseline entry (no finding matches it): %s", entry)
		}
	}
}
