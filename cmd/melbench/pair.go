package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

// pairRuns is the paired gate's number of parent/change pairs: the
// fewest that lets one pair of ten go against a real regression under
// the nine-tenths rule. Ten pairs of one engine and one content run fit
// the gate in about six minutes on a 2-vCPU host.
const pairRuns = 10

// benchPair is the paired bench gate (`make bench-pair`). It builds
// cmd/melbench at the parent commit and from the working tree, runs
// each side's engine and content benchmarks pairRuns times, alternating
// which side runs first, and judges the pairs with
// experiments.JudgePairs. The parent is HEAD when tracked files differ
// from it and HEAD~1 otherwise; it is checked out into a temporary git
// worktree outside the repository, which is removed and pruned on
// every exit path.
func benchPair(ctx context.Context, w io.Writer) (err error) {
	parent, err := pairParent(ctx, ".")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "melbench-pair-")
	if err != nil {
		return err
	}
	tree := filepath.Join(tmp, "parent")
	defer func() {
		// Deleting the checkout leaves its worktree entry stale, and
		// prune drops it. A fresh context: this must run after ctx ends.
		rmErr := os.RemoveAll(tmp)
		if _, pruneErr := git(context.Background(), ".", "worktree", "prune"); err == nil {
			err = errors.Join(rmErr, pruneErr)
		}
	}()
	if _, err := git(ctx, ".", "worktree", "add", "--detach", tree, parent); err != nil {
		return err
	}

	bins := [2]string{filepath.Join(tmp, "parent.melbench"), filepath.Join(tmp, "change.melbench")}
	for i, dir := range [2]string{tree, "."} {
		build := exec.CommandContext(ctx, "go", "build", "-o", bins[i], "./cmd/melbench")
		build.Dir = dir
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("bench-pair: build %s: %w\n%s", dir, err, out)
		}
	}

	fmt.Fprintf(w, "bench-pair: parent %.12s vs working tree, %d pairs\n", parent, pairRuns)
	var runs [2][][]experiments.EngineBenchResult
	for i := range pairRuns {
		for j := range 2 {
			side := (i + j) % 2 // the parent runs first in even pairs
			res, err := benchRun(ctx, bins[side], tmp)
			if err != nil {
				return err
			}
			runs[side] = append(runs[side], res)
		}
		fmt.Fprintf(w, "  pair %d/%d measured\n", i+1, pairRuns)
	}
	return experiments.JudgePairs(w, runs[0], runs[1])
}

// pairParent resolves the commit the working tree in dir is judged
// against: HEAD when tracked files differ from it, else HEAD~1.
func pairParent(ctx context.Context, dir string) (string, error) {
	rev := "HEAD~1"
	if _, err := git(ctx, dir, "diff", "--quiet", "HEAD", "--"); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			return "", err
		}
		rev = "HEAD"
	}
	out, err := git(ctx, dir, "rev-parse", "--verify", "--quiet", rev+"^{commit}")
	if err != nil {
		return "", fmt.Errorf("bench-pair: no parent commit %s: %w", rev, err)
	}
	return out, nil
}

// git runs one git command in dir and returns its trimmed stdout.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w %s", strings.Join(args, " "), err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// benchRun is one side's run in a pair: the engine benchmarks, then the
// content benchmarks, each writing its artifact into dir, which is read
// back and returned as one list of results.
func benchRun(ctx context.Context, bin, dir string) ([]experiments.EngineBenchResult, error) {
	var results []experiments.EngineBenchResult
	for _, args := range [][]string{
		{"-exp", "engine", "-benchout", "engine.json"},
		{"-exp", "content", "-contentout", "content.json"},
	} {
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("bench-pair: %s %s: %w\n%s", bin, strings.Join(args, " "), err, out)
		}
		blob, err := os.ReadFile(filepath.Join(dir, args[3]))
		if err != nil {
			return nil, fmt.Errorf("bench-pair: %w", err)
		}
		var report struct {
			Results []experiments.EngineBenchResult `json:"results"`
		}
		if err := json.Unmarshal(blob, &report); err != nil {
			return nil, fmt.Errorf("bench-pair: parse %s: %w", args[3], err)
		}
		results = append(results, report.Results...)
	}
	return results, nil
}
