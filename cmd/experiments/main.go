// Command experiments regenerates every table and figure of the paper's
// evaluation on scaled-down workloads:
//
//	-run intro    §1 LOOPS vs Pochoir headline comparison
//	-run fig3     Fig. 3: the ten-benchmark table
//	-run fig5     Fig. 5: 3D 7-point / 27-point throughput
//	-run fig9     Fig. 9: parallelism of TRAP vs STRAP (work/span analysis)
//	-run fig10    Fig. 10: cache-miss ratios (ideal-cache simulation)
//	-run fig13    Fig. 13: row-program vs split-macro-shadow interior clone
//	-run mod      §4 modular-indexing ablation (interior clone disabled)
//	-run coarsen  §4 base-case-coarsening ablation
//	-run tune     §4 autotuned coarsening (ISAT substitute)
//	-run telemetry  instrumented Heat 2D run: decomposition counters and
//	                achieved-vs-predicted parallelism (Fig. 9 cross-check)
//	-run faults   hardened-execution demo: kernel panic isolation with zoid
//	              attribution, run poisoning, checkpoint/restore retry, and
//	              context-deadline cancellation latency
//	-run resilience  supervised-run measurements: happy-path and segmented
//	              checkpointing overhead, recovery cost of a fault at >90%
//	              progress, the engine degradation ladder, and shadow
//	              verification catching silent corruption
//	-run monitor  live-monitoring smoke test: a supervised run scraped over
//	              HTTP from its own embedded monitor server, with the
//	              exposition validated and the counters checked monotone
//	-run flight   black-box post-mortem check: a run killed by an injected
//	              fault past 90% progress must leave a parseable crash
//	              bundle attributing the failing zoid, with the panic in
//	              its recent-event window (render it with cmd/blackbox)
//	-run durable  durable-checkpoint measurements: the cost of spilling
//	              every segment checkpoint to the crash-safe journal
//	              (acceptance: <=10% over in-memory checkpointing) and a
//	              crash-and-resume cycle restoring a fresh process from
//	              the newest journal entry
//	-run all      everything above
//
// The telemetry experiment additionally honors -stats (print the full
// aggregate report: counters, base-case volume histogram, per-worker busy
// time) and -trace FILE (write a Chrome trace-event JSON of the recursive
// decomposition, one track per worker, loadable in chrome://tracing or
// Perfetto). Giving either flag with another -run value appends the
// telemetry experiment to that run.
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
	runFlag   = flag.String("run", "all", "experiment to run (intro, fig3, fig5, fig9, fig10, fig13, mod, coarsen, tune, telemetry, faults, resilience, monitor, flight, durable, all)")
	quick     = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	benchName = flag.String("bench", "", "restrict fig3 to one benchmark name (e.g. \"Heat 2p\")")
	statsFlag = flag.Bool("stats", false, "print the full telemetry stats report (telemetry experiment)")
	traceFile = flag.String("trace", "", "write a Chrome trace-event JSON of the telemetry run to `FILE`")
)

func main() {
	flag.Parse()
	fmt.Printf("pochoir experiments — %d cores (GOMAXPROCS), go %s\n\n",
		sched.Workers(), runtime.Version())
	exps := map[string]func(){
		"intro":      runIntro,
		"fig3":       runFig3,
		"fig5":       runFig5,
		"fig9":       runFig9,
		"fig10":      runFig10,
		"fig13":      runFig13,
		"mod":        runMod,
		"coarsen":    runCoarsen,
		"tune":       runTune,
		"telemetry":  runTelemetry,
		"faults":     runFaults,
		"resilience": runResilience,
		"monitor":    runMonitor,
		"flight":     runFlight,
		"durable":    runDurable,
	}
	order := []string{"intro", "fig3", "fig5", "fig9", "fig10", "fig13", "mod", "coarsen", "tune", "telemetry", "faults", "resilience", "monitor", "flight", "durable"}
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
	// -stats / -trace always produce telemetry output, whatever -run said.
	if (*statsFlag || *traceFile != "") && name != "telemetry" {
		runTelemetry()
	}
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
