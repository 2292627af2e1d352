package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureDir points run at the lint package's fixture mini-module, so
// CLI tests exercise the real load/run path without type-checking the
// whole repository.
func fixtureDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// runCLI invokes run and captures both streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestListExitsClean(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{"allocfree", "atomiccheck", "leakcheck", "taintcheck", "lockorder"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout)
		}
	}
}

func TestBadFlagExits2(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}

func TestJSONAndSARIFAreExclusive(t *testing.T) {
	code, _, stderr := runCLI(t, "-json", "-sarif", "-C", fixtureDir(t), "./...")
	if code != 2 {
		t.Fatalf("-json -sarif exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("stderr missing exclusivity message: %s", stderr)
	}
}

func TestAllDisabledExits2(t *testing.T) {
	var args []string
	for _, name := range []string{"allocfree", "wireerrors", "lockcheck", "atomiccheck", "leakcheck", "opcodetable", "ctxcheck", "taintcheck", "lockorder"} {
		args = append(args, "-"+name+"=false")
	}
	if code, _, _ := runCLI(t, args...); code != 2 {
		t.Fatalf("all-disabled exit = %d, want 2", code)
	}
}

// TestFindingsExitNonzero pins the dirty-tree contract: the fixture
// module has known violations, so the exit code must be 1 and the text
// output must carry analyzer-attributed lines.
func TestFindingsExitNonzero(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-C", fixtureDir(t), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "allocfree:") || !strings.Contains(stdout, "leakcheck:") {
		t.Errorf("text output missing expected analyzer findings:\n%s", stdout)
	}
}

// TestJSONShape decodes the -json report and checks its structure:
// module path, full analyzer list, relative slash paths, positive
// positions.
func TestJSONShape(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-json", "-C", fixtureDir(t), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	var rep struct {
		Module    string `json:"module"`
		Analyzers []string
		Findings  []struct {
			File     string
			Line     int
			Column   int
			Analyzer string
			Message  string
		}
		Baselined int
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Module != "fixture" {
		t.Errorf("module = %q, want fixture", rep.Module)
	}
	if len(rep.Analyzers) != 9 {
		t.Errorf("analyzers = %v, want all 9", rep.Analyzers)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings in JSON report over the negative fixtures")
	}
	for _, f := range rep.Findings {
		if filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("finding path %q is not module-relative slash form", f.File)
		}
		if f.Line <= 0 || f.Column <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("malformed finding: %+v", f)
		}
	}
	if rep.Baselined != 0 {
		t.Errorf("baselined = %d without a baseline flag", rep.Baselined)
	}
}

// TestSARIFShape checks the SARIF log structure: version, one run,
// rules for every analyzer, results pointing at fixture files.
func TestSARIFShape(t *testing.T) {
	code, stdout, _ := runCLI(t, "-sarif", "-C", fixtureDir(t), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string
					Rules []struct{ ID string }
				}
			}
			Results []struct {
				RuleID  string `json:"ruleId"`
				Message struct{ Text string }
			}
		}
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "mellint" || len(run.Tool.Driver.Rules) != 9 {
		t.Errorf("driver = %q with %d rules, want mellint with 9", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	if len(run.Results) == 0 {
		t.Error("no SARIF results over the negative fixtures")
	}
}

// TestBaselineRoundTrip writes a baseline from the dirty fixture tree,
// then reruns against it: everything must be suppressed and the exit
// code drop to 0.
func TestBaselineRoundTrip(t *testing.T) {
	dir := fixtureDir(t)
	baseline := filepath.Join(t.TempDir(), "fixture.baseline")

	code, stdout, stderr := runCLI(t, "-write-baseline", baseline, "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("-write-baseline exit = %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "wrote") {
		t.Errorf("missing write confirmation: %s", stdout)
	}

	code, stdout, stderr = runCLI(t, "-baseline", baseline, "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0 (stderr: %s)\n%s", code, stderr, stdout)
	}
	if !strings.Contains(stdout, "suppressed by baseline") {
		t.Errorf("missing suppression summary: %s", stdout)
	}

	// The JSON report must count the suppressed findings.
	code, stdout, _ = runCLI(t, "-baseline", baseline, "-json", "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("baselined -json exit = %d, want 0", code)
	}
	var rep struct {
		Findings  []json.RawMessage
		Baselined int
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 || rep.Baselined == 0 {
		t.Errorf("baselined JSON report: findings=%d baselined=%d, want 0/nonzero", len(rep.Findings), rep.Baselined)
	}
}

// TestOutFileKeepsTextOnStdout checks the artifact path: -o writes the
// report (defaulting to JSON) while stdout keeps the plain lines.
func TestOutFileKeepsTextOnStdout(t *testing.T) {
	dir := fixtureDir(t)
	out := filepath.Join(t.TempDir(), "lint.json")
	code, stdout, stderr := runCLI(t, "-o", out, "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "allocfree:") {
		t.Errorf("plain diagnostics missing from stdout with -o:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	if !json.Valid(data) {
		t.Errorf("artifact is not valid JSON:\n%s", data)
	}
}

// TestMissingBaselineExits2 pins that pointing at a nonexistent
// baseline is a usage error, not a silent no-op.
func TestMissingBaselineExits2(t *testing.T) {
	code, _, stderr := runCLI(t, "-baseline", filepath.Join(t.TempDir(), "nope"), "-C", fixtureDir(t), "./...")
	if code != 2 {
		t.Fatalf("missing baseline exit = %d, want 2 (stderr: %s)", code, stderr)
	}
}
