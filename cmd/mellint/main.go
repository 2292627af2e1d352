// Command mellint runs the repository's static-analysis suite over Go
// package patterns and reports findings as file:line:col diagnostics.
//
// Usage:
//
//	mellint [flags] [packages]
//
// Patterns default to ./... relative to the current directory. Each
// analyzer has a bool flag (-allocfree, -lockcheck, ...) defaulting to
// true; disable one with e.g. -lockcheck=false. -list prints the
// available analyzers.
//
// Machine-readable output: -json emits a report object, -sarif a
// SARIF 2.1.0 log. With -o FILE the report is written to FILE and the
// human-readable diagnostics still go to stdout, so `make lint` can
// archive an artifact without silencing the terminal. -sarif-o FILE
// additionally writes a SARIF log regardless of the stdout format,
// letting one run archive both lint.json and lint.sarif.
//
// Baselines: -baseline FILE suppresses the findings recorded in FILE
// (format: "file: analyzer: message", module-relative, no line
// numbers); -write-baseline FILE records the current findings and
// exits clean. Exit status is 0 when the tree is clean apart from the
// baseline, 1 when any new finding remains, 2 on usage or load errors.
//
// Verification: -verify swaps the lint suite for the melverify
// analyzer family (decodeprover, dpinvariants), which proves the
// fused packed-record decoder equivalent to the reference decoder
// over the bounded x86 encoding space and checks the fused DP's scan
// invariants; run it over ./... so witnesses anchored in internal/mel
// survive target filtering. -verify-quick shrinks the enumeration for
// smoke tests, -verify-budget bounds its wall time (exceeding the
// budget is itself a finding), and -verify-corpus DIR exports
// divergence witnesses as FuzzScanDifferential corpus seeds.
//
// Timings: -timings embeds per-analyzer wall times in the -json
// report and a totalTimeMS run property in SARIF output (making them
// nondeterministic); -timings-o FILE archives the timings as a
// separate artifact, keeping lint.json/lint.sarif byte-stable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mellint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available analyzers and exit")
	dir := fs.String("C", ".", "directory to resolve package patterns in")
	jsonOut := fs.Bool("json", false, "emit a JSON report instead of plain diagnostics")
	sarifOut := fs.Bool("sarif", false, "emit a SARIF 2.1.0 log instead of plain diagnostics")
	outFile := fs.String("o", "", "write the -json/-sarif report to this file and keep plain diagnostics on stdout")
	sarifFile := fs.String("sarif-o", "", "additionally write a SARIF 2.1.0 log to this file, whatever the stdout format")
	baselinePath := fs.String("baseline", "", "suppress findings recorded in this baseline file")
	writeBaseline := fs.String("write-baseline", "", "record current findings to this baseline file and exit clean")
	verify := fs.Bool("verify", false, "run the melverify decoder-equivalence prover family instead of the lint suite")
	verifyQuick := fs.Bool("verify-quick", false, "with -verify: shrink the enumeration to a smoke pass")
	verifyBudget := fs.Duration("verify-budget", 0, "with -verify: wall-time budget; exceeding it is reported as a finding")
	verifyCorpus := fs.String("verify-corpus", "", "with -verify: write divergence witnesses as fuzz corpus seeds into this directory")
	timings := fs.Bool("timings", false, "embed per-analyzer wall times in -json output and totalTimeMS in SARIF (nondeterministic)")
	timingsFile := fs.String("timings-o", "", "write per-analyzer wall times to this file as a separate artifact")

	all := lint.Analyzers()
	enabled := make(map[string]*bool, len(all))
	for _, a := range all {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mellint [flags] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "mellint: -json and -sarif are mutually exclusive")
		return 2
	}
	if *outFile != "" && !*jsonOut && !*sarifOut {
		// An artifact without a format means the JSON report.
		*jsonOut = true
	}

	var active []*lint.Analyzer
	var stats *lint.VerifyStats
	if *verify {
		stats = &lint.VerifyStats{}
		active = lint.VerifyAnalyzers(lint.VerifyConfig{
			Quick:     *verifyQuick,
			Budget:    *verifyBudget,
			CorpusDir: *verifyCorpus,
			Stats:     stats,
		})
	} else {
		for _, a := range all {
			if *enabled[a.Name] {
				active = append(active, a)
			}
		}
	}
	if len(active) == 0 {
		fmt.Fprintln(stderr, "mellint: all analyzers disabled")
		return 2
	}

	var baseline *lint.Baseline
	if *baselinePath != "" {
		var err error
		baseline, err = lint.ReadBaselineFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "mellint: %v\n", err)
			return 2
		}
	}

	mod, err := lint.Load(*dir, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "mellint: %v\n", err)
		return 2
	}
	start := time.Now()
	diags, analyzerTimes := lint.RunTimed(mod, active)
	elapsed := time.Since(start)

	if *timingsFile != "" {
		tout, err := lint.FormatTimings(analyzerTimes)
		if err == nil {
			err = os.WriteFile(*timingsFile, tout, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mellint: %v\n", err)
			return 2
		}
	}
	var embedTimes []lint.AnalyzerTiming
	if *timings {
		embedTimes = analyzerTimes
	}

	if *writeBaseline != "" {
		content := lint.FormatBaseline(mod.Dir, diags)
		if err := os.WriteFile(*writeBaseline, content, 0o644); err != nil {
			fmt.Fprintf(stderr, "mellint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "mellint: wrote %d finding(s) to %s\n", len(diags), *writeBaseline)
		return 0
	}

	remaining := baseline.Filter(mod.Dir, diags)
	baselined := len(diags) - len(remaining)

	if *sarifFile != "" {
		sarif, err := lint.FormatSARIF(mod, active, remaining, embedTimes)
		if err == nil {
			err = os.WriteFile(*sarifFile, sarif, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mellint: %v\n", err)
			return 2
		}
	}

	var report []byte
	if *jsonOut {
		report, err = lint.FormatJSON(mod, active, remaining, baselined, embedTimes)
	} else if *sarifOut {
		report, err = lint.FormatSARIF(mod, active, remaining, embedTimes)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mellint: %v\n", err)
		return 2
	}

	switch {
	case report != nil && *outFile != "":
		if err := os.WriteFile(*outFile, report, 0o644); err != nil {
			fmt.Fprintf(stderr, "mellint: %v\n", err)
			return 2
		}
		printText(stdout, remaining, baselined)
	case report != nil:
		stdout.Write(report)
	default:
		printText(stdout, remaining, baselined)
	}
	if stats != nil {
		fmt.Fprintf(stdout, "melverify: %d streams, %d record comparisons, %d invariant scans, %d divergence(s) in %s\n",
			stats.Streams, stats.RecordCmps, stats.InvariantScans, stats.Divergences,
			elapsed.Round(time.Millisecond))
		for _, inc := range stats.Incomplete {
			fmt.Fprintf(stdout, "melverify: INCOMPLETE: %s\n", inc)
		}
	}
	if len(remaining) > 0 {
		return 1
	}
	return 0
}

// printText renders the plain diagnostic lines plus a baseline summary
// when anything was suppressed.
func printText(w io.Writer, diags []lint.Diagnostic, baselined int) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
	if baselined > 0 {
		fmt.Fprintf(w, "mellint: %d finding(s) suppressed by baseline\n", baselined)
	}
}
