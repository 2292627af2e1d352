package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSingleExperiments(t *testing.T) {
	// Quick experiments that are cheap enough to run individually.
	for _, exp := range []string{"approx", "fig2", "xor"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", exp}, &out); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s produced no output", exp)
		}
	}
}

func TestDetectAlias(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "detect", "-cases", "5", "-worms", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "detection:") {
		t.Errorf("output: %s", out.String())
	}
}

func TestReducedFig1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig1p", "-rounds", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total variation distance") {
		t.Errorf("output missing TV line")
	}
}

func TestUnknownExperiment(t *testing.T) {
	// guard was the committed-artifact bench gate, replaced by pair.
	for _, exp := range []string{"bogus", "guard"} {
		if err := run([]string{"-exp", exp}, io.Discard); err == nil {
			t.Errorf("unknown experiment %q should fail", exp)
		}
	}
}

// TestPairParent pins how the paired gate picks its parent from git
// state: HEAD~1 on a clean tree, HEAD when a tracked file differs, and
// an error when the wanted commit does not exist.
func TestPairParent(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	commit := func(content string) string {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "f"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"add", "f"}, {"-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", content}} {
			if _, err := git(ctx, dir, args...); err != nil {
				t.Fatal(err)
			}
		}
		rev, err := git(ctx, dir, "rev-parse", "HEAD")
		if err != nil {
			t.Fatal(err)
		}
		return rev
	}
	if _, err := git(ctx, dir, "init", "-q"); err != nil {
		t.Fatal(err)
	}
	if _, err := pairParent(ctx, dir); err == nil {
		t.Error("a repository without commits has no parent")
	}
	first := commit("1")
	if rev, err := pairParent(ctx, dir); err == nil {
		t.Errorf("clean root commit: parent %s, want an error", rev)
	}
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("edited"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rev, err := pairParent(ctx, dir); err != nil || rev != first {
		t.Errorf("edited tree: parent %s, %v; want HEAD %s", rev, err, first)
	}
	commit("2")
	if rev, err := pairParent(ctx, dir); err != nil || rev != first {
		t.Errorf("clean tree: parent %s, %v; want HEAD~1 %s", rev, err, first)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestAblationExperiments(t *testing.T) {
	for _, exp := range []string{"binary", "rules", "alpha", "styles", "sizes"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", exp, "-cases", "8", "-worms", "8", "-rounds", "100"}, &out); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), "ablation") && exp != "binary" {
			t.Errorf("%s output missing section header:\n%.200s", exp, out.String())
		}
	}
}
