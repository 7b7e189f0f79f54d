// Command benchlab is the performance observatory's CLI: it executes the
// paper's benchmark suite across the TRAP/STRAP/LOOPS engines, fuses wall
// clock, execution telemetry, work/span analysis, and cache simulation into
// one schema-versioned JSON report, and gates new reports against a
// recorded baseline with noise-aware thresholds.
//
//	benchlab run  -profile quick -out BENCH_pochoir.json
//	benchlab diff old.json new.json
//	benchlab check -baseline BENCH_baseline.json BENCH_pochoir.json
//
// diff and check exit nonzero when a gated regression is found; check
// -informational reports but always exits zero (for CI jobs that should
// warn, not block, on shared-runner noise).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pochoir/internal/benchlab"
	"pochoir/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:])
	case "diff":
		diffCmd(os.Args[2:])
	case "check":
		checkCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "benchlab: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchlab run   [-profile quick|full] [-bench names] [-engines list] [-skip-slow] [-out file]
  benchlab diff  [-rel 0.10] [-mad 3] [-markdown] old.json new.json
  benchlab check [-baseline file] [-rel 0.10] [-mad 3] [-markdown] [-informational] new.json

run executes the paper suite and writes the fused JSON report.
diff compares two reports; exit 1 when the noise gate flags a regression.
check is diff against a committed baseline (default BENCH_baseline.json).`)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	profile := fs.String("profile", "quick", "workload profile: quick or full")
	benches := fs.String("bench", "", "comma-separated benchmark names (default: the whole suite)")
	engines := fs.String("engines", "", "comma-separated engines among TRAP,STRAP,LOOPS (default: all)")
	skipSlow := fs.Bool("skip-slow", false, "skip the instrumented telemetry repetition and the cache trace")
	out := fs.String("out", "BENCH_pochoir.json", "output report path")
	quiet := fs.Bool("q", false, "suppress per-configuration progress lines")
	_ = fs.Parse(args)

	cfg := benchlab.Config{Profile: *profile, SkipSlowSignals: *skipSlow}
	if *benches != "" {
		cfg.Benchmarks = splitList(*benches)
	}
	if *engines != "" {
		for _, name := range splitList(*engines) {
			alg, ok := core.ParseAlgorithm(strings.ToUpper(name))
			if !ok {
				fatalf("unknown engine %q (want TRAP, STRAP, or LOOPS)", name)
			}
			cfg.Engines = append(cfg.Engines, alg)
		}
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	rep, err := benchlab.Collect(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := rep.WriteFile(*out); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s: %d runs, profile %s, commit %s\n",
		*out, len(rep.Runs), rep.Profile, orDash(rep.Commit))
}

func diffCmd(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	gate, markdown := gateFlags(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fatalf("diff wants exactly two reports, got %d", fs.NArg())
	}
	os.Exit(compare(fs.Arg(0), fs.Arg(1), *gate, *markdown, false))
}

func checkCmd(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_baseline.json", "recorded baseline report")
	informational := fs.Bool("informational", false, "report regressions but exit 0 (warn-only CI mode)")
	gate, markdown := gateFlags(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("check wants exactly one new report, got %d", fs.NArg())
	}
	os.Exit(compare(*baseline, fs.Arg(0), *gate, *markdown, *informational))
}

func gateFlags(fs *flag.FlagSet) (*benchlab.Gate, *bool) {
	g := benchlab.DefaultGate()
	gate := &g
	fs.Float64Var(&gate.RelThreshold, "rel", g.RelThreshold,
		"relative median-shift threshold (0.10 = 10%)")
	fs.Float64Var(&gate.MADFactor, "mad", g.MADFactor,
		"noise factor: a shift must also exceed this many MADs")
	markdown := fs.Bool("markdown", false, "render the comparison as a markdown table")
	return gate, markdown
}

// compare loads both reports, renders the comparison, and returns the
// process exit code.
func compare(oldPath, newPath string, gate benchlab.Gate, markdown, informational bool) int {
	old, err := benchlab.ReadFile(oldPath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := benchlab.ReadFile(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	deltas := benchlab.Compare(old, cur, gate)
	if markdown {
		benchlab.WriteMarkdown(os.Stdout, deltas)
	} else {
		benchlab.WriteText(os.Stdout, deltas)
	}
	regs := benchlab.Regressions(deltas)
	if len(regs) == 0 {
		fmt.Printf("\nno regressions (%d configurations, gate: >%.0f%% and >%.1f MAD)\n",
			len(deltas), 100*gate.RelThreshold, gate.MADFactor)
		return 0
	}
	fmt.Printf("\n%d regression(s) flagged (gate: >%.0f%% and >%.1f MAD)\n",
		len(regs), 100*gate.RelThreshold, gate.MADFactor)
	if informational {
		fmt.Println("informational mode: exiting 0")
		return 0
	}
	return 1
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchlab: "+format+"\n", args...)
	os.Exit(1)
}
