// Command experiments regenerates every table and figure of the paper's
// evaluation on scaled-down workloads:
//
//	-run intro    §1 LOOPS vs Pochoir headline comparison
//	-run fig3     Fig. 3: the ten-benchmark table
//	-run fig5     Fig. 5: 3D 7-point / 27-point throughput
//	-run fig9     Fig. 9: parallelism of TRAP vs STRAP (work/span analysis),
//	              and one instrumented run's achieved parallelism beside the
//	              parallelism predicted for its recursion
//	-run fig10    Fig. 10: cache-miss ratios (ideal-cache simulation)
//	-run fig13    Fig. 13: row-program vs split-macro-shadow interior clone
//	-run mod      §4 modular-indexing ablation (interior clone disabled)
//	-run coarsen  §4 base-case-coarsening ablation
//	-run tune     §4 autotuned coarsening (ISAT substitute)
//	-run all      everything above
//
// Workloads default to roughly 1/8-per-dimension of the paper's sizes so a
// full run finishes in minutes on a laptop; -scale adjusts them, and
// -quick shrinks further for smoke testing. Absolute times differ from the
// paper's 2011 Xeon/icc/Cilk numbers by construction; the quantities to
// compare are the ratios and curve shapes, recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pochoir/internal/sched"
	"pochoir/internal/stencils"
)

var (
	runFlag   = flag.String("run", "all", "experiment to run (intro, fig3, fig5, fig9, fig10, fig13, mod, coarsen, tune, all)")
	quick     = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	benchName = flag.String("bench", "", "restrict fig3 to one benchmark name (e.g. \"Heat 2p\")")
)

func main() {
	flag.Parse()
	fmt.Printf("pochoir experiments — %d cores (GOMAXPROCS), go %s\n\n",
		sched.Workers(), runtime.Version())
	exps := map[string]func(){
		"intro":   runIntro,
		"fig3":    runFig3,
		"fig5":    runFig5,
		"fig9":    runFig9,
		"fig10":   runFig10,
		"fig13":   runFig13,
		"mod":     runMod,
		"coarsen": runCoarsen,
		"tune":    runTune,
	}
	order := []string{"intro", "fig3", "fig5", "fig9", "fig10", "fig13", "mod", "coarsen", "tune"}
	name := strings.ToLower(*runFlag)
	if name == "all" {
		for _, n := range order {
			exps[n]()
		}
		return
	}
	f, ok := exps[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; want one of %v or all\n", name, order)
		os.Exit(2)
	}
	f()
}

func goMaxProcs() int { return sched.Workers() }

// timeJob runs a job, timing only its Compute phase.
func timeJob(j stencils.Job) time.Duration {
	j.Setup()
	start := time.Now()
	j.Compute()
	return time.Since(start)
}

// scaleDown divides every size (and the step count) by f, keeping minima.
func scaleDown(sizes []int, steps, f int) ([]int, int) {
	out := make([]int, len(sizes))
	for i, s := range sizes {
		out[i] = s / f
		if out[i] < 8 {
			out[i] = 8
		}
	}
	steps /= f
	if steps < 4 {
		steps = 4
	}
	return out, steps
}

func header(title string) {
	fmt.Printf("== %s ==\n", title)
}

func footer() { fmt.Println() }

func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
