// Package benchlab is the performance observatory: a harness that executes
// the paper's benchmark suite across the decomposition engines and fuses
// five observability signals per configuration into one structured record —
//
//   - wall clock: a calibrated repetition loop with warm-up, summarized by
//     the robust median and the median absolute deviation (MAD);
//   - execution telemetry: one additional instrumented repetition captures
//     the decomposition's RunStats (zoids, cut kinds, base-case volume
//     percentiles, achieved parallelism);
//   - work/span analysis: the cilkview analyzer replays the decomposition
//     analytically and reports work, span, and parallelism;
//   - cache simulation: the ideal-cache model replays the memory trace of a
//     scaled-down copy of the workload and reports the miss ratio;
//   - CPU attribution: one more repetition runs inside a continuous-profiling
//     capture window, and the decoded profile reports the kernel share and
//     the walker's decomposition overhead — the hot-path shares the
//     regression sentinel (internal/profile) diffs against the baseline.
//
// Reports are schema-versioned JSON with host/commit provenance, so runs
// recorded on different days or machines are comparable, and the diff gate
// (diff.go) can tell a real regression from run-to-run noise.
package benchlab

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pochoir"
	"pochoir/examples/dsl/specs"
	"pochoir/internal/benchdef"
	"pochoir/internal/cachesim"
	"pochoir/internal/cilkview"
	"pochoir/internal/compiler"
	"pochoir/internal/core"
	"pochoir/internal/stencils"
	"pochoir/internal/telemetry"
)

// Schema identifies the report format; Version counts compatible revisions
// of it. A reader must refuse a report whose Schema string differs.
const (
	Schema  = "pochoir-benchlab/v1"
	Version = 1
)

// Suite is the paper benchmark suite the lab executes, in Fig. 3 row order
// (the Fig. 5 Berkeley kernels last). The names key both the stencils
// registry and the benchdef workload tables — all but the two DSL rows.
var Suite = []string{
	"Heat 2", "Heat 2p", "Heat 4", "Life 2p", "Wave 3", "LBM 3",
	"APOP", "3D 7-point", "3D 27-point", DSLBenchmark, DSLServedBenchmark,
}

// DSLBenchmark and DSLServedBenchmark are the rows for what the daemon runs:
// Heat 2p written in the specification language (examples/dsl/specs/
// heat2d.pch) and executed by the compiler's row-program clones, under
// either profile on the box dslBoxes gives, so that they sit beside
// BenchmarkDSLHeat2D. They are measured by wall clock only, under TRAP and
// LOOPS; the decomposition signals are those of the Heat 2p row.
const (
	DSLBenchmark       = "DSL Heat 2p"
	DSLServedBenchmark = "DSL Heat 2p served"
)

// dslBoxes: the ablation box, whose working set overflows L2, and the box a
// served job runs, whose working set fits.
var dslBoxes = map[string]benchdef.Workload{
	DSLBenchmark:       benchdef.AblationHeat2D,
	DSLServedBenchmark: benchdef.ServedHeat2D,
}

// Engines are the decomposition engines every benchmark runs under:
// hyperspace cuts (TRAP, the paper's contribution), serial space cuts
// (STRAP, the Frigo–Strumpen baseline), and the loop-nest sweep (LOOPS).
var Engines = []core.Algorithm{core.TRAP, core.STRAP, core.LOOPS}

// HostInfo records where a report was produced.
type HostInfo struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// Host describes the current machine.
func Host() HostInfo {
	return HostInfo{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// WallStats summarizes the calibrated repetition loop of one configuration.
// Median and MAD are the robust location/scale pair the regression gate
// reasons about; min and max bound the observed spread.
type WallStats struct {
	Reps          int     `json:"reps"`
	MedianSeconds float64 `json:"median_seconds"`
	MADSeconds    float64 `json:"mad_seconds"`
	MinSeconds    float64 `json:"min_seconds"`
	MaxSeconds    float64 `json:"max_seconds"`
	// MedianMpts is the median throughput in millions of point updates per
	// second — the Fig. 5 unit.
	MedianMpts float64 `json:"median_mpts"`
}

// CacheSignal is the ideal-cache simulation signal. The trace replays a
// scaled-down copy of the workload (TracedSizes/TracedSteps) so the
// simulation stays tractable; the cache stats are for that traced box.
type CacheSignal struct {
	cachesim.Stats
	TracedSizes []int `json:"traced_sizes"`
	TracedSteps int   `json:"traced_steps"`
}

// ProfileSignal is the CPU-attribution signal: one repetition runs inside a
// continuous-profiling capture window and the decoded samples report where
// the CPU went. KernelShare/WalkerShare are the hot-path fractions the
// regression sentinel watches; PhaseShares carries the full phase split.
type ProfileSignal struct {
	CPUSeconds  float64            `json:"cpu_seconds"`
	Samples     int64              `json:"samples"`
	KernelShare float64            `json:"kernel_share"`
	WalkerShare float64            `json:"walker_share"`
	PhaseShares map[string]float64 `json:"phase_shares,omitempty"`
}

// Run is the fused record of one benchmark x engine configuration.
type Run struct {
	Benchmark string `json:"benchmark"`
	Engine    string `json:"engine"`
	Sizes     []int  `json:"sizes"`
	Steps     int    `json:"steps"`
	Updates   int64  `json:"updates"`
	// Periodic is the benchmark's boundary wrap per dimension (provenance;
	// the unified decomposition is identical either way). Omitted when
	// nonperiodic everywhere.
	Periodic []bool `json:"periodic,omitempty"`

	Wall      WallStats             `json:"wall"`
	Telemetry *telemetry.Summary    `json:"telemetry,omitempty"`
	Cilkview  *cilkview.MetricsView `json:"cilkview,omitempty"`
	CacheSim  *CacheSignal          `json:"cachesim,omitempty"`
	Profile   *ProfileSignal        `json:"profile,omitempty"`
}

// Key returns the identity a baseline comparison matches runs on.
func (r Run) Key() string { return r.Benchmark + "/" + r.Engine }

// Report is the schema-versioned document a lab session produces.
type Report struct {
	Schema    string   `json:"schema"`
	Version   int      `json:"version"`
	CreatedAt string   `json:"created_at,omitempty"` // RFC 3339
	Host      HostInfo `json:"host"`
	Commit    string   `json:"commit,omitempty"`
	Profile   string   `json:"profile"`
	Runs      []Run    `json:"runs"`
}

// ByKey indexes the report's runs by Run.Key.
func (rep *Report) ByKey() map[string]Run {
	out := make(map[string]Run, len(rep.Runs))
	for _, r := range rep.Runs {
		out[r.Key()] = r
	}
	return out
}

// Config controls a lab session.
type Config struct {
	// Profile selects the workload table: "quick" (smoke-test sizes) or
	// "full" (the go-test bench sizes).
	Profile string
	// Benchmarks restricts the suite to the named benchmarks; nil runs all.
	Benchmarks []string
	// Engines restricts the engine sweep; nil runs all three.
	Engines []core.Algorithm
	// Budget is the target total measuring time per configuration; the
	// calibrator picks the repetition count from it. Zero selects the
	// profile default (300ms quick, 2s full).
	Budget time.Duration
	// MaxReps caps the calibrated repetition count (min is always 3).
	// Zero selects the profile default (8 quick, 20 full).
	MaxReps int
	// SkipSlowSignals drops the instrumented telemetry repetition and the
	// cache-trace simulation, measuring wall clock and cilkview only.
	SkipSlowSignals bool
	// Logf, when non-nil, receives one progress line per configuration.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() error {
	switch c.Profile {
	case "", "quick":
		c.Profile = "quick"
		if c.Budget == 0 {
			c.Budget = 300 * time.Millisecond
		}
		if c.MaxReps == 0 {
			c.MaxReps = 8
		}
	case "full":
		if c.Budget == 0 {
			c.Budget = 2 * time.Second
		}
		if c.MaxReps == 0 {
			c.MaxReps = 20
		}
	default:
		return fmt.Errorf("benchlab: unknown profile %q (want quick or full)", c.Profile)
	}
	if c.Benchmarks == nil {
		c.Benchmarks = Suite
	}
	if c.Engines == nil {
		c.Engines = Engines
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// workload resolves a benchmark's space-time box for the profile.
func (c *Config) workload(name string) (benchdef.Workload, bool) {
	if c.Profile == "full" {
		return benchdef.Bench(name)
	}
	return benchdef.Quick(name)
}

// Collect executes the configured suite and returns the fused report.
func Collect(cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rep := &Report{
		Schema:    Schema,
		Version:   Version,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host:      Host(),
		Commit:    gitCommit(),
		Profile:   cfg.Profile,
	}
	for _, name := range cfg.Benchmarks {
		if w, ok := dslBoxes[name]; ok {
			if err := collectDSL(&cfg, rep, name, w); err != nil {
				return nil, fmt.Errorf("benchlab: %s: %w", name, err)
			}
			continue
		}
		f, ok := stencils.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("benchlab: unknown benchmark %q", name)
		}
		w, ok := cfg.workload(name)
		if !ok {
			return nil, fmt.Errorf("benchlab: no %s workload for %q", cfg.Profile, name)
		}
		for _, alg := range cfg.Engines {
			run, err := collectOne(&cfg, f, w, alg)
			if err != nil {
				return nil, fmt.Errorf("benchlab: %s/%v: %w", name, alg, err)
			}
			rep.Runs = append(rep.Runs, run)
			cfg.Logf("%-12s %-6s median %8.1fms  mad %6.2fms  reps %d",
				name, alg, run.Wall.MedianSeconds*1e3, run.Wall.MADSeconds*1e3, run.Wall.Reps)
		}
	}
	return rep, nil
}

// collectOne measures one benchmark x engine configuration: the calibrated
// wall-clock loop on uninstrumented repetitions, then the three analytical
// and instrumented signals.
func collectOne(cfg *Config, f stencils.Factory, w benchdef.Workload, alg core.Algorithm) (Run, error) {
	job := func() stencils.Job {
		return f.New(w.Sizes, w.Steps).Pochoir(pochoir.Options{Algorithm: alg})
	}
	wall, err := measure(job, cfg.Budget, cfg.MaxReps)
	if err != nil {
		return Run{}, err
	}
	updates := w.Updates()
	if wall.MedianSeconds > 0 {
		wall.MedianMpts = float64(updates) / wall.MedianSeconds / 1e6
	}
	run := Run{
		Benchmark: f.Name,
		Engine:    alg.String(),
		Sizes:     append([]int(nil), w.Sizes...),
		Steps:     w.Steps,
		Updates:   updates,
		Periodic:  append([]bool(nil), f.Periodic...),
		Wall:      wall,
	}
	if !cfg.SkipSlowSignals {
		sum, err := telemetrySignal(f, w, alg)
		if err != nil {
			return Run{}, err
		}
		run.Telemetry = sum
		// The attribution repetition is also separate from the timing loop:
		// the profiler's sampling interrupt must never pollute the medians.
		run.Profile = profileSignal(f, w, alg)
	}
	if f.Shape != nil {
		cv := cilkviewSignal(f, w, alg)
		run.Cilkview = &cv
		if !cfg.SkipSlowSignals {
			cs, err := cacheSignal(f, w, alg)
			if err != nil {
				return Run{}, err
			}
			run.CacheSim = cs
		}
	}
	return run, nil
}

// collectDSL appends the runs of DSL row name, on box w, to rep.
func collectDSL(cfg *Config, rep *Report, name string, w benchdef.Workload) error {
	checked, err := compiler.CompileSource(specs.Heat2D)
	if err != nil {
		return err
	}
	for _, alg := range cfg.Engines {
		if alg == core.STRAP {
			continue
		}
		job := func() stencils.Job {
			var inst *compiler.Instance
			return stencils.Job{
				Setup: func() {
					var err error
					if inst, err = checked.NewInstance(w.Sizes...); err != nil {
						panic(err)
					}
					inst.Arrays["u"].Fill(0, 1)
				},
				Compute: func() {
					if err := inst.Run(w.Steps, pochoir.Options{Algorithm: alg}); err != nil {
						panic(err)
					}
				},
			}
		}
		wall, err := measure(job, cfg.Budget, cfg.MaxReps)
		if err != nil {
			return err
		}
		wall.MedianMpts = float64(w.Updates()) / wall.MedianSeconds / 1e6
		rep.Runs = append(rep.Runs, Run{
			Benchmark: name,
			Engine:    alg.String(),
			Sizes:     append([]int(nil), w.Sizes...),
			Steps:     w.Steps,
			Updates:   w.Updates(),
			Periodic:  []bool{true, true},
			Wall:      wall,
		})
		cfg.Logf("%-12s %-6s median %8.1fms  mad %6.2fms  reps %d",
			name, alg, wall.MedianSeconds*1e3, wall.MADSeconds*1e3, wall.Reps)
	}
	return nil
}

// gitCommit returns the current short commit hash, best-effort: empty when
// not in a git checkout or git is unavailable.
func gitCommit() string {
	out, err := gitRevParse()
	if err != nil {
		return ""
	}
	return out
}

// WriteFile writes the report as indented JSON.
func (rep *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchlab: %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("benchlab: %s: schema %q, this tool reads %q", path, rep.Schema, Schema)
	}
	return &rep, nil
}
