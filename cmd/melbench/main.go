// Command melbench regenerates every table and figure of the paper's
// evaluation. Run with -exp all (default) for the full report, or pick a
// single experiment:
//
//	melbench -exp fig1n    Figure 1 (left): PMF vs Monte-Carlo, varying n
//	melbench -exp fig1p    Figure 1 (right): PMF vs Monte-Carlo, varying p
//	melbench -exp chisq    Section 3.3 chi-square independence table
//	melbench -exp approx   Section 3.2 threshold approximation check
//	melbench -exp fig2     Figure 2 iso-error line
//	melbench -exp params   Section 5.2 parameter determination
//	melbench -exp fig3     Figure 3 MEL charts + Section 5.3 detection
//	melbench -exp detect   alias of fig3
//	melbench -exp av       Section 5.1 signature-scanner experiment
//	melbench -exp binary   Section 4.1 sled vs register-spring worms
//	melbench -exp ape      Section 6 APE vs DAWN comparison
//	melbench -exp xor      Figure 4 XOR-domain analysis
//	melbench -exp textops  Section 2.1 text-instruction inventory
//	melbench -exp payl     PAYL blending-evasion extension
//	melbench -exp rules    ablation: invalidity rules vs separation
//	melbench -exp alpha    ablation: sensitivity knob (FP/FN across alpha)
//	melbench -exp styles   ablation: decrypter shapes incl. multilevel
//	melbench -exp sizes    ablation: input-size scaling of n and tau
//	melbench -exp exploit  end-to-end exploit chain vs the vulnerable service
//	melbench -exp engine   scan-engine throughput; writes BENCH_engine.json
//	melbench -exp guard    engine+content bench vs committed artifacts; fails on regression
//	melbench -exp content  content pipeline triage/decode bench; writes BENCH_content.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "melbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("melbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (all, fig1n, fig1p, chisq, approx, fig2, params, fig3, detect, av, binary, ape, xor, payl, rules, alpha, styles, sizes, textops)")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "corpus/simulation seed")
	rounds := fs.Int("rounds", 10000, "Monte-Carlo rounds for Figure 1")
	cases := fs.Int("cases", experiments.DefaultCases, "benign cases for detection experiments")
	worms := fs.Int("worms", experiments.DefaultWorms, "text worms for detection experiments")
	benchOut := fs.String("benchout", "BENCH_engine.json", "engine benchmark artifact path (empty to skip the file)")
	guardBase := fs.String("guardbase", "BENCH_engine.json", "committed artifact the guard experiment compares against")
	contentOut := fs.String("contentout", "BENCH_content.json", "content benchmark artifact path (empty to skip the file)")
	guardContent := fs.String("guardcontent", "BENCH_content.json", "committed content artifact the guard compares against (empty to skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runners := map[string]func() error{
		"fig1n": func() error {
			_, err := experiments.Fig1VaryN(w, *rounds, *seed)
			return err
		},
		"fig1p": func() error {
			_, err := experiments.Fig1VaryP(w, *rounds, *seed)
			return err
		},
		"chisq": func() error {
			_, err := experiments.ChiSquare(w, *seed)
			return err
		},
		"approx": func() error {
			_, err := experiments.ApproxCheck(w)
			return err
		},
		"fig2": func() error {
			_, err := experiments.Fig2(w)
			return err
		},
		"params": func() error {
			_, err := experiments.Params(w, *seed)
			return err
		},
		"fig3": func() error {
			_, err := experiments.Fig3Detect(w, *seed, *cases, *worms)
			return err
		},
		"av": func() error {
			_, err := experiments.AVScan(w, *seed)
			return err
		},
		"binary": func() error {
			_, err := experiments.BinaryWorms(w)
			return err
		},
		"ape": func() error {
			_, err := experiments.APEComparison(w, *seed, *cases/4, *worms/4)
			return err
		},
		"xor": func() error {
			_, err := experiments.XORDomain(w)
			return err
		},
		"exploit": func() error {
			_, err := experiments.ExploitChain(w, *seed)
			return err
		},
		"textops": func() error {
			_, err := experiments.TextOps(w)
			return err
		},
		"payl": func() error {
			_, err := experiments.PAYLEvasion(w, *seed)
			return err
		},
		"rules": func() error {
			_, err := experiments.RuleAblation(w, *seed, *cases/4, *worms/4)
			return err
		},
		"alpha": func() error {
			_, err := experiments.AlphaSweep(w, *seed, *cases/4, *worms/4)
			return err
		},
		"styles": func() error {
			_, err := experiments.StyleAblation(w, *seed)
			return err
		},
		"sizes": func() error {
			_, err := experiments.SizeSweep(w, *seed, *cases/5, *worms/5)
			return err
		},
		"engine": func() error {
			_, err := experiments.EngineBench(w, *benchOut, *seed)
			return err
		},
		"guard": func() error {
			if err := experiments.BenchGuard(w, *guardBase, *seed); err != nil {
				return err
			}
			if *guardContent == "" {
				return nil
			}
			return experiments.ContentGuard(w, *guardContent, *seed)
		},
		"content": func() error {
			_, err := experiments.ContentBench(w, *contentOut, *seed)
			return err
		},
	}
	runners["detect"] = runners["fig3"]

	if *exp == "all" {
		order := []string{"fig1n", "fig1p", "chisq", "approx", "fig2", "params",
			"fig3", "av", "binary", "ape", "xor", "payl", "rules", "alpha", "styles", "sizes", "exploit", "engine", "content"}
		for _, id := range order {
			if err := runners[id](); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	runner, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return runner()
}
