package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the SARIF golden snapshot")

// TestSARIFGolden snapshots the full -sarif log over the fixture
// module. The artifact uses module-relative slash paths, so the bytes
// are reproducible across checkouts; regenerate with `go test
// ./cmd/mellint -run SARIFGolden -update` after an intentional change
// to the fixtures or the SARIF shape.
func TestSARIFGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-sarif", "-C", fixtureDir(t), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	golden := filepath.Join("testdata", "lint.sarif.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	if stdout != string(want) {
		t.Errorf("SARIF output drifted from %s; rerun with -update if intentional.\ngot:\n%s", golden, stdout)
	}
}

// TestSARIFGoldenShape decodes the committed snapshot and asserts the
// structural contract a code-scanning consumer relies on, so the
// golden cannot silently rot into an invalid log via -update.
func TestSARIFGoldenShape(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "lint.sarif.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					}
				}
			}
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				}
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				}
			}
		}
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") || log.Version != "2.1.0" {
		t.Fatalf("envelope: schema=%q version=%q", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	rules := make(map[string]bool, len(run.Tool.Driver.Rules))
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %+v missing id or description", r)
		}
		rules[r.ID] = true
	}
	if len(rules) != 9 {
		t.Errorf("distinct rules = %d, want 9", len(rules))
	}
	for _, name := range []string{"taintcheck", "lockorder"} {
		if !rules[name] {
			t.Errorf("rules missing the %s analyzer", name)
		}
	}
	if len(run.Results) == 0 {
		t.Fatal("golden has no results; the negative fixtures should produce findings")
	}
	resultRules := make(map[string]bool)
	for _, res := range run.Results {
		if !rules[res.RuleID] {
			t.Errorf("result ruleId %q not declared in rules", res.RuleID)
		}
		resultRules[res.RuleID] = true
		if res.Message.Text == "" {
			t.Errorf("empty message for %s result", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Errorf("result has %d locations, want 1", len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if uri := loc.ArtifactLocation.URI; uri == "" || strings.HasPrefix(uri, "/") || strings.Contains(uri, "\\") {
			t.Errorf("artifact URI %q is not a relative slash path", uri)
		}
		if loc.Region.StartLine <= 0 || loc.Region.StartColumn <= 0 {
			t.Errorf("nonpositive region for %s result", res.RuleID)
		}
	}
	for _, name := range []string{"taintcheck", "lockorder"} {
		if !resultRules[name] {
			t.Errorf("golden has no %s results; the new fixtures should trip it", name)
		}
	}
}

// TestSARIFOArtifact pins the -sarif-o side channel: the file must be
// written even when stdout stays plain text, and its bytes must match
// what -sarif itself would emit.
func TestSARIFOArtifact(t *testing.T) {
	dir := fixtureDir(t)
	out := filepath.Join(t.TempDir(), "lint.sarif")
	code, stdout, stderr := runCLI(t, "-sarif-o", out, "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "allocfree:") {
		t.Errorf("plain diagnostics missing from stdout with -sarif-o:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	_, direct, _ := runCLI(t, "-sarif", "-C", dir, "./...")
	if !bytes.Equal(data, []byte(direct)) {
		t.Error("-sarif-o artifact differs from -sarif stdout")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "lint.sarif.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Error("-sarif-o artifact differs from the committed golden")
	}
}
