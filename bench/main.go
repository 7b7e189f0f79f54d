// Command bench is the repository's benchmark: five named workloads that
// run the two things users run — the library (stencils jobs over
// pochoir.Stencil, in-process) and a real cmd/pochoird child process over
// HTTP — report end-to-end metrics with tracing off and a per-layer budget
// with tracing on, and check every timed result against an independent
// oracle. BENCHMARK.json at the repository root declares it; README.md in
// this directory says why each workload exists and which layer metric
// should move which end-to-end metric.
//
//	go run ./bench                                   # all workloads, end to end
//	go run ./bench -workload heat4-walker -trace 1   # one workload, layer budget + trace.json
//	go run ./bench -agree                            # two sets, gaps against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricSpec declares one reported metric; BENCHMARK.json repeats the
// table (bench_test.go keeps the two in step).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from the untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"mupdates_per_s", "Mupd/s", "higher", 0.20},
	{"latency_ms_p50", "ms", "lower", 0.20},
	{"loops_mupdates_per_s", "Mupd/s", "higher", 0.20},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. A workload that never enters a layer reports 0 for it.
var perLayer = []metricSpec{
	{Name: "compiler.compile_us", Unit: "us", Better: "lower"},
	{Name: "compiler.tokens", Unit: "count", Better: "lower"},
	{Name: "compiler.source_bytes", Unit: "bytes", Better: "lower"},
	{Name: "compiler.instance_us", Unit: "us", Better: "lower"},
	{Name: "compiler.interp_mupdates_per_s", Unit: "Mupd/s", Better: "higher"},
	{Name: "compiler.interp_allocs_per_update", Unit: "count", Better: "lower"},
	{Name: "compiler.codegen_us", Unit: "us", Better: "lower"},
	{Name: "compiler.codegen_bytes", Unit: "bytes", Better: "lower"},
	{Name: "gateway.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gateway.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gateway.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gateway.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gateway.latency_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "gateway.latency_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gateway.shed_count", Unit: "count", Better: "lower"},
	{Name: "gateway.coalesced_count", Unit: "count", Better: "lower"},
	{Name: "gateway.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "resilience.segments", Unit: "count", Better: "lower"},
	{Name: "resilience.attempts", Unit: "count", Better: "lower"},
	{Name: "resilience.retries", Unit: "count", Better: "lower"},
	{Name: "resilience.supervise_overhead_share", Unit: "share", Better: "lower"},
	{Name: "grid.getset_mops_per_s", Unit: "Mops/s", Better: "higher"},
	{Name: "grid.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.spill_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.spill_share", Unit: "share", Better: "lower"},
	{Name: "core.zoids", Unit: "count", Better: "lower"},
	{Name: "core.bases", Unit: "count", Better: "lower"},
	{Name: "core.interior_base_share", Unit: "share", Better: "higher"},
	{Name: "core.time_cuts", Unit: "count", Better: "lower"},
	{Name: "core.hyper_cuts", Unit: "count", Better: "lower"},
	{Name: "core.circle_cuts", Unit: "count", Better: "lower"},
	{Name: "core.base_vol_p50", Unit: "points", Better: "higher"},
	{Name: "core.walk_only_s", Unit: "s", Better: "lower"},
	{Name: "core.walker_share", Unit: "share", Better: "lower"},
	{Name: "core.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "core.alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "sched.spawns", Unit: "count", Better: "lower"},
	{Name: "sched.inlines", Unit: "count", Better: "lower"},
	{Name: "sched.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "stencils.kernel_s", Unit: "s", Better: "lower"},
	{Name: "stencils.kernel_share", Unit: "share", Better: "higher"},
	{Name: "stencils.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "stencils.computed_bytes_per_update", Unit: "bytes", Better: "lower"},
	{Name: "loops.engine_mupdates_per_s", Unit: "Mupd/s", Better: "higher"},
	{Name: "loops.native_serial_mupdates_per_s", Unit: "Mupd/s", Better: "higher"},
	{Name: "loops.trap_over_loops", Unit: "x", Better: "higher"},
	{Name: "loops.trap_over_native", Unit: "x", Better: "higher"},
	{Name: "cilkview.parallelism", Unit: "x", Better: "higher"},
	{Name: "cilkview.span", Unit: "count", Better: "lower"},
	{Name: "cachesim.miss_ratio_trap", Unit: "share", Better: "lower"},
	{Name: "cachesim.miss_ratio_loops", Unit: "share", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.unattributed_share", Unit: "share", Better: "lower"},
}

// workload is one named set of inputs.
type workload struct {
	Name   string `json:"name"`
	Why    string `json:"why"`
	served bool   // needs the pochoird binary
	run    func(c *runCtx) error
}

var workloads = []workload{
	{"heat2p-big", "Heat 2p specialized clones on 2048x2048x32, far past L2: the interior kernel does ~90% of the work and TRAP beats LOOPS ~7x; kernel and locality changes show here, walker changes must not", false, runHeat2pBig},
	{"heat4-walker", "Heat 4 specialized clones on 32^4x32: walker and boundary clone do most of the work and TRAP loses to LOOPS; walker changes show here and predict no change on heat2p-big", false, runHeat4Walker},
	{"phase1-spill", "closure point kernel through RunSupervised on 512x512x32 with a durable spill per step: grid accessors, supervisor, checkpoint and wire writes; a DSL row executor bypasses it", false, runPhase1Spill},
	{"serve-compute", "pochoird child, 2 closed-loop clients, DSL heat2d 192x192x32 jobs with distinct seeds: the closure interpreter is ~97% of job latency, so a faster served hot path shows here", true, runServeCompute},
	{"serve-small", "pochoird child, 1 closed-loop client, DSL heat1d 32x8 jobs with distinct seeds: JSON, HTTP, admission, compile and queue dominate; a faster interpreter should barely move it", true, runServeSmall},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one workload run's inputs and collects its outputs.
type runCtx struct {
	seed    int64
	seconds float64 // how long the run measures
	trace   bool
	scale   scale
	out     io.Writer // human-readable report
	// pochoird is the daemon binary the served workloads launch.
	pochoird string

	// rec is the span recorder of a traced run, nil otherwise.
	rec *spanRecorder

	vals map[string]sample // metric name → value and the sample count behind it

	mu        sync.Mutex // guards the verdict counts; replays judge concurrently
	attempted int        // timed results the oracle judged
	failed    int        // of which wrong, refused, failed or timed out
}

// budget returns the given share of the measuring time.
func (c *runCtx) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func (c *runCtx) logf(format string, args ...any) { fmt.Fprintf(c.out, format, args...) }

// sample is a metric value and the number of samples it summarizes.
type sample struct {
	v float64
	n int
}

func (c *runCtx) set(name string, v float64, n int) { c.vals[name] = sample{v, n} }

// setEndToEnd reports the four end-to-end metrics of an in-process
// workload from its TRAP and LOOPS-engine repetitions on box b.
func (c *runCtx) setEndToEnd(b box, trap, loops repTimes) {
	setups := append(append([]float64(nil), trap.setup...), loops.setup...)
	c.set("setup_s", median(setups), len(setups))
	c.set("mupdates_per_s", b.mupdates(median(trap.compute)), len(trap.compute))
	c.set("latency_ms_p50", 1e3*median(trap.compute), len(trap.compute))
	c.set("loops_mupdates_per_s", b.mupdates(median(loops.compute)), len(loops.compute))
}

// judge counts one oracle verdict.
func (c *runCtx) judge(ok bool, what string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		c.logf("  ORACLE MISMATCH: %s\n", what)
	}
}

// runWorkload executes w once and returns its result line; a traced run
// also exports its spans to traceOut.
func runWorkload(w workload, seed int64, seconds float64, trace bool, sc scale, pochoird, traceOut string, out io.Writer) (result, error) {
	c := &runCtx{
		seed: seed, seconds: seconds, trace: trace, scale: sc, out: out, pochoird: pochoird,
		vals: make(map[string]sample),
	}
	mode := "end to end, tracing off"
	if trace {
		c.rec = newSpanRecorder()
		mode = "per layer, tracing on"
	}
	c.logf("== %s (%s) seed=%d seconds=%g\n   why: %s\n", w.Name, mode, seed, seconds, w.Why)
	if err := w.run(c); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
		spans := c.rec.snapshot()
		c.printSelfTimes(spans)
		if err := writeChromeTrace(traceOut, spans); err != nil {
			return result{}, fmt.Errorf("%s: write %s: %w", w.Name, traceOut, err)
		}
		c.logf("   %d spans written to %s\n", len(spans), traceOut)
	}
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: make(map[string]metric)}
	for _, s := range specs {
		v, ok := c.vals[s.Name]
		if !ok && !trace {
			return result{}, fmt.Errorf("%s: end-to-end metric %s was not measured", w.Name, s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v.v, Unit: s.Unit}
		if ok {
			c.logf("   %-38s %14.6g %-8s (n=%d)\n", s.Name, v.v, s.Unit, v.n)
		}
	}
	c.logf("   failed_share %d/%d\n", c.failed, c.attempted)
	return res, nil
}

// printSelfTimes prints the per-span-name table of the traced run: calls,
// total time, and self time (span minus what its children cover).
func (c *runCtx) printSelfTimes(spans []span) {
	self := selfTimes(spans)
	total, calls := totalTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	c.logf("   %-30s %7s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		c.logf("   %-30s %7d %12.3f %12.3f\n", n, calls[n],
			float64(total[n])/float64(time.Millisecond), float64(self[n])/float64(time.Millisecond))
	}
}

// printEnvironment records the machine both sizes are judged against.
func printEnvironment(out io.Writer) {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	l2 := "unknown"
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size"); err == nil {
		l2 = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(out, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s L2=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, l2)
}

func lookupWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.Name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run (all = every workload in turn)")
		seed    = flag.Int64("seed", 1, "seed for generated inputs: serve job seeds and their order, the phase1-spill field")
		seconds = flag.Float64("seconds", 15, "how long each workload run measures")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, and the last workload's spans in trace.json; 0 = end-to-end metrics")
		agree   = flag.Bool("agree", false, "run two full sets back to back and fail if any end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *trace != 0, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, trace, agree bool) error {
	ws, err := lookupWorkloads(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", seconds)
	}
	printEnvironment(os.Stdout)
	pochoird := ""
	for _, w := range ws {
		if w.served && pochoird == "" {
			tmp, err := os.MkdirTemp("", "bench-pochoird-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			if pochoird, err = buildDaemon(tmp); err != nil {
				return err
			}
		}
	}
	if agree {
		return runAgree(ws, pochoird, seed, seconds)
	}
	wrong := 0
	var lines []string
	for _, w := range ws {
		res, err := runWorkload(w, seed, seconds, trace, fullScale, pochoird, "trace.json", os.Stdout)
		if err != nil {
			return err
		}
		if !res.Correct {
			wrong++
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		lines = append(lines, string(line))
	}
	// The result lines come last, one per workload, so the final line of
	// a single-workload run is its result object.
	for _, l := range lines {
		fmt.Println(l)
	}
	if wrong > 0 {
		return fmt.Errorf("%d workload(s) had failed or mismatching results", wrong)
	}
	return nil
}

// runAgree runs every workload twice, untraced, and compares the two sets:
// the check that the benchmark's bounds are wider than its own noise.
func runAgree(ws []workload, pochoird string, seed int64, seconds float64) error {
	sets := make([]map[string]result, 2)
	for i := range sets {
		sets[i] = make(map[string]result)
		for _, w := range ws {
			res, err := runWorkload(w, seed, seconds, false, fullScale, pochoird, "", os.Stdout)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: set %d had failed or mismatching results", w.Name, i+1)
			}
			sets[i][w.Name] = res
		}
	}
	fmt.Printf("%-14s %-22s %14s %14s %8s %7s\n", "workload", "metric", "set1", "set2", "gap", "bound")
	over := 0
	for _, w := range ws {
		for _, s := range endToEnd {
			a, b := sets[0][w.Name].Metrics[s.Name].Value, sets[1][w.Name].Metrics[s.Name].Value
			gap := ratio(b-a, a)
			if gap < 0 {
				gap = -gap
			}
			verdict := ""
			if gap > s.Bound {
				verdict = "  OVER"
				over++
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", w.Name, s.Name, a, b, 100*gap, 100*s.Bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric(s) differ between two sets of the same code by more than their bound", over)
	}
	return nil
}
