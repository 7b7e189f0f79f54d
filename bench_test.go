package pochoir_test

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation. Workloads are sized so `go test -bench=. -benchmem` finishes
// in minutes; cmd/experiments runs the larger scaled workloads and prints
// paper-style rows. The custom metric Mpts/s is millions of grid-point
// updates per second, the stencil-throughput unit behind the paper's
// GStencil/s numbers.

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/benchdef"
	"pochoir/internal/cachesim"
	"pochoir/internal/cilkview"
	"pochoir/internal/compiler"
	"pochoir/internal/core"
	"pochoir/internal/profile"
	"pochoir/internal/shape"
	"pochoir/internal/stencils"
)

// benchJob times the Compute phase of a stencil job.
func benchJob(b *testing.B, mk func() stencils.Job, updatesPerRun float64) {
	b.Helper()
	b.ReportAllocs()
	jobs := make([]stencils.Job, b.N)
	for i := range jobs {
		jobs[i] = mk()
		jobs[i].Setup()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs[i].Compute()
	}
	b.StopTimer()
	b.ReportMetric(updatesPerRun*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
}

// benchInstance builds instances of a benchmark at its shared bench-profile
// workload (internal/benchdef, the same table cmd/benchlab's full profile
// uses).
func benchInstance(b *testing.B, name string) func() stencils.Instance {
	b.Helper()
	f, ok := stencils.Lookup(name)
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	w, ok := benchdef.Bench(name)
	if !ok {
		b.Fatalf("no bench workload defined for %q", name)
	}
	return func() stencils.Instance { return f.New(w.Sizes, w.Steps) }
}

func updates(inst stencils.Instance) float64 {
	return float64(inst.Points()) * float64(inst.Steps())
}

// BenchmarkIntroHeat reproduces the §1 headline comparison: parallel loops
// against Pochoir, which runs the compiler's clones of specs/heat2p.pch.
func BenchmarkIntroHeat(b *testing.B) {
	mk := benchInstance(b, "Heat 2p")
	up := updates(mk())
	b.Run("Loops", func(b *testing.B) {
		benchJob(b, func() stencils.Job { return mk().LoopsParallel() }, up)
	})
	b.Run("Pochoir", func(b *testing.B) {
		benchJob(b, func() stencils.Job { return mk().Pochoir(pochoir.Options{}) }, up)
	})
}

// BenchmarkHeat2D is the telemetry acceptance benchmark. NoTelemetry runs
// with a nil recorder and must match seed throughput (the disabled path is
// a single pointer comparison per instrumentation point); Telemetry runs
// the same workload with a recorder attached and reports the decomposition
// counters (base cases, zoids, spawns per run) as custom metrics.
func BenchmarkHeat2D(b *testing.B) {
	f := stencils.NewHeat2DFactory(true)
	sizes, steps := benchdef.AblationHeat2D.Sizes, benchdef.AblationHeat2D.Steps
	up := float64(benchdef.AblationHeat2D.Updates())
	b.Run("NoTelemetry", func(b *testing.B) {
		benchJob(b, func() stencils.Job {
			return f.New(sizes, steps).Pochoir(pochoir.Options{})
		}, up)
	})
	b.Run("Telemetry", func(b *testing.B) {
		rec := pochoir.NewRecorder()
		benchJob(b, func() stencils.Job {
			return f.New(sizes, steps).Pochoir(pochoir.Options{Telemetry: rec})
		}, up)
		st := rec.Snapshot()
		n := float64(b.N)
		b.ReportMetric(float64(st.Bases)/n, "bases/op")
		b.ReportMetric(float64(st.Zoids())/n, "zoids/op")
		b.ReportMetric(float64(st.Spawns)/n, "spawns/op")
	})
}

// benchClosure times run on b.N fresh instances of a closure-kernel stencil
// built by mk, which do up point updates each, and reports allocations and
// Mpts/s.
func benchClosure(b *testing.B, up float64, mk func() (*pochoir.Stencil[float64], pochoir.Kernel), run func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error) {
	b.Helper()
	b.ReportAllocs()
	sts := make([]*pochoir.Stencil[float64], b.N)
	kerns := make([]pochoir.Kernel, b.N)
	for i := range sts {
		sts[i], kerns[i] = mk()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(sts[i], kerns[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(up*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
}

// BenchmarkSupervisedHeat2D measures the resilience supervisor's overhead
// on the Heat 2D workload. NoCheckpoint is the happy path — one segment, no
// state copies, supervisor bookkeeping only — and is the 5%-of-Run
// acceptance bench. Segmented adds a checkpoint every 8 steps (4 deep
// copies of the 512x512 grid per run); Spill additionally persists each
// checkpoint to the durable journal (the ≤10%-over-Segmented acceptance
// bench for crash recovery); SpillEveryStep checkpoints and spills after
// every step, the policy, grid and step count of the phase1-spill benchmark
// workload (which has a zero boundary where this one is periodic); Verified
// instead shadow-recomputes a sampled 4x4 box's dependency cone per segment.
func BenchmarkSupervisedHeat2D(b *testing.B) {
	const X, Y, steps, seed = 512, 512, 32, 7
	up := float64(X*Y) * float64(steps)
	benchSup := func(b *testing.B, run func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error) {
		b.Helper()
		benchClosure(b, up, func() (*pochoir.Stencil[float64], pochoir.Kernel) {
			st, _, kern := heatStencil(b, pochoir.Options{}, X, Y, seed)
			return st, kern
		}, run)
	}
	supervised := func(p pochoir.SupervisePolicy) func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error {
		return func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error {
			_, err := st.RunSupervised(context.Background(), steps, kern, p)
			return err
		}
	}
	b.Run("Run", func(b *testing.B) {
		benchSup(b, func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error {
			return st.Run(steps, kern)
		})
	})
	b.Run("SupervisedNoCheckpoint", func(b *testing.B) {
		benchSup(b, supervised(pochoir.SupervisePolicy{NoCheckpoint: true}))
	})
	b.Run("SupervisedSegmented", func(b *testing.B) {
		benchSup(b, supervised(pochoir.SupervisePolicy{SegmentSteps: 8}))
	})
	b.Run("SupervisedSpill", func(b *testing.B) {
		benchSup(b, supervised(pochoir.SupervisePolicy{SegmentSteps: 8, SpillDir: b.TempDir()}))
	})
	b.Run("SupervisedSpillEveryStep", func(b *testing.B) {
		benchSup(b, supervised(pochoir.SupervisePolicy{SegmentSteps: 1, SpillDir: b.TempDir()}))
	})
	b.Run("SupervisedVerified", func(b *testing.B) {
		benchSup(b, supervised(pochoir.SupervisePolicy{
			SegmentSteps: 8,
			Verify:       pochoir.VerifyPolicy{Enabled: true},
		}))
	})
}

// BenchmarkClosureRun is BenchmarkSupervisedHeat2D/Run's rank-1 and rank-3
// siblings: a closure point kernel through Run, periodic, 32 steps, on as
// many points as the 512² grid. Heat1D is the three-point heat kernel on
// 2^18 points, Pt7 the Berkeley 7-point kernel on 64³. Their arrays take the
// grid accessors' general path, which the rank-2 one skips.
func BenchmarkClosureRun(b *testing.B) {
	const steps, seed = 32, 7
	cases := []struct {
		name  string
		sizes []int
		sh    *pochoir.Shape
		kern  func(u *pochoir.Array[float64]) pochoir.Kernel
	}{
		{"Heat1D", []int{1 << 18}, pochoir.MustShape(1, [][]int{{1, 0}, {0, 0}, {0, 1}, {0, -1}}),
			func(u *pochoir.Array[float64]) pochoir.Kernel {
				return pochoir.K1(func(t, x int) {
					u.Set(t+1, 0.25*(u.Get(t, x-1)+2*u.Get(t, x)+u.Get(t, x+1)), x)
				})
			}},
		{"Pt7", []int{64, 64, 64}, pochoir.MustShape(3, [][]int{
			{1, 0, 0, 0}, {0, 0, 0, 0},
			{0, 1, 0, 0}, {0, -1, 0, 0}, {0, 0, 1, 0}, {0, 0, -1, 0}, {0, 0, 0, 1}, {0, 0, 0, -1},
		}),
			func(u *pochoir.Array[float64]) pochoir.Kernel {
				const alpha, beta = 0.4, 0.1
				return pochoir.K3(func(t, x, y, z int) {
					u.Set(t+1, alpha*u.Get(t, x, y, z)+beta*(u.Get(t, x+1, y, z)+u.Get(t, x-1, y, z)+
						u.Get(t, x, y+1, z)+u.Get(t, x, y-1, z)+u.Get(t, x, y, z+1)+u.Get(t, x, y, z-1)), x, y, z)
				})
			}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			points := 1
			for _, n := range c.sizes {
				points *= n
			}
			benchClosure(b, float64(points*steps), func() (*pochoir.Stencil[float64], pochoir.Kernel) {
				st := pochoir.New[float64](c.sh)
				u := pochoir.MustArray[float64](c.sh.Depth(), c.sizes...)
				u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
				st.MustRegisterArray(u)
				if err := u.CopyIn(0, randomGrid(points, seed)); err != nil {
					b.Fatal(err)
				}
				return st, c.kern(u)
			}, func(st *pochoir.Stencil[float64], kern pochoir.Kernel) error {
				return st.Run(steps, kern)
			})
		})
	}
}

// BenchmarkAllSignalsOn is the one observability budget: the served path —
// the heat2d specification's row-program clones through RunSupervised, in
// segments of 8 steps, on the 512² ablation box — with every signal off
// (NoFlightRecorder, no registry, no trace, no profile capture) against every
// signal an operator leaves on at once: the metrics registry and its progress
// estimator, the flight recorder, a causal trace per run, and an armed CPU
// profile window, whose per-base-case phase labels and 100 Hz sampling
// interrupt are its whole cost. Telemetry, a debugging recorder, is off in
// both halves.
//
// Each of the b.N rounds times one job of each half, back to back and in
// alternating order, so drift on a shared machine lands on both, and the
// halves are compared by their fastest job, which a neighbour's burst of
// work does not move. The asserted budget is set from the combined overhead
// EXPERIMENTS.md records ("One overhead budget") and is judged only over 10
// rounds or more.
func BenchmarkAllSignalsOn(b *testing.B) {
	const budget = 12.0 // percent
	src, err := os.ReadFile("examples/dsl/specs/heat2d.pch")
	if err != nil {
		b.Fatal(err)
	}
	checked, err := compiler.CompileSource(string(src))
	if err != nil {
		b.Fatal(err)
	}
	w := benchdef.AblationHeat2D
	policy := pochoir.SupervisePolicy{SegmentSteps: 8}
	job := func(opts pochoir.Options) float64 {
		inst, err := checked.NewInstance(w.Sizes...)
		if err != nil {
			b.Fatal(err)
		}
		inst.Arrays["u"].Fill(0, 1)
		inst.Stencil.SetOptions(opts)
		start := time.Now()
		if _, err := inst.Stencil.RunSupervised(context.Background(), w.Steps, inst.Kernel(), policy); err != nil {
			b.Fatal(err)
		}
		if opts.Trace != nil {
			opts.Trace.End("ok")
		}
		return float64(time.Since(start).Nanoseconds())
	}
	reg := pochoir.NewMetrics()
	tracer := pochoir.NewTracer(pochoir.TracerConfig{Seed: 7})
	allOn := func() float64 {
		p := profile.New(profile.Config{Window: time.Second, Interval: -1, Retain: 1, HeapEvery: -1})
		p.Start()
		defer p.Stop()
		for deadline := time.Now().Add(time.Second); !profile.Armed(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatal("the profile window never armed (is another CPU profile running?)")
			}
		}
		return job(pochoir.Options{Metrics: reg, Trace: tracer.StartTrace("bench", pochoir.TraceContext{})})
	}
	offNs, onNs := math.Inf(1), math.Inf(1)
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			offNs = min(offNs, job(pochoir.Options{NoFlightRecorder: true}))
			onNs = min(onNs, allOn())
		} else {
			onNs = min(onNs, allOn())
			offNs = min(offNs, job(pochoir.Options{NoFlightRecorder: true}))
		}
	}
	overhead := (onNs/offNs - 1) * 100
	b.ReportMetric(float64(w.Updates())/offNs*1e3, "off_Mpts/s")
	b.ReportMetric(float64(w.Updates())/onNs*1e3, "on_Mpts/s")
	b.ReportMetric(overhead, "overhead_%")
	if b.N >= 10 && overhead > budget {
		b.Errorf("all signals on cost %.2f%% over all off, budget is %.0f%%", overhead, budget)
	}
}

// BenchmarkFig3 regenerates the Fig. 3 table: every benchmark under the
// four execution regimes of the paper's columns.
func BenchmarkFig3(b *testing.B) {
	for _, f := range stencils.All() {
		if f.Order > 10 {
			continue
		}
		name := f.Name
		mk := benchInstance(b, name)
		up := updates(mk())
		b.Run(name+"/Pochoir1core", func(b *testing.B) {
			benchJob(b, func() stencils.Job { return mk().Pochoir(pochoir.Options{Serial: true}) }, up)
		})
		b.Run(name+"/PochoirNcore", func(b *testing.B) {
			benchJob(b, func() stencils.Job { return mk().Pochoir(pochoir.Options{}) }, up)
		})
		b.Run(name+"/SerialLoops", func(b *testing.B) {
			benchJob(b, func() stencils.Job { return mk().LoopsSerial() }, up)
		})
		b.Run(name+"/ParallelLoops", func(b *testing.B) {
			benchJob(b, func() stencils.Job { return mk().LoopsParallel() }, up)
		})
	}
}

// BenchmarkFig5 regenerates Fig. 5: the Berkeley 7-point and 27-point
// kernels; Mpts/s here corresponds to the paper's GStencil/s column.
func BenchmarkFig5(b *testing.B) {
	for _, name := range []string{"3D 7-point", "3D 27-point"} {
		mk := benchInstance(b, name)
		up := updates(mk())
		b.Run(name, func(b *testing.B) {
			benchJob(b, func() stencils.Job { return mk().Pochoir(pochoir.Options{}) }, up)
		})
	}
}

// BenchmarkFig9 regenerates Fig. 9: the work/span analysis of TRAP vs
// STRAP (the analyzer itself is what is being timed; its Parallelism
// output is reported as a metric).
func BenchmarkFig9(b *testing.B) {
	for _, c := range benchdef.Fig9Bench {
		for _, alg := range []core.Algorithm{core.TRAP, core.STRAP} {
			c, alg := c, alg
			b.Run(c.Name+"/"+alg.String(), func(b *testing.B) {
				var par float64
				for i := 0; i < b.N; i++ {
					a := cilkview.New(cilkview.Config(c.Dims, c.N, 1, false, alg), cilkview.DefaultCosts())
					par = a.Analyze(1, 1+c.Steps).Parallelism()
				}
				b.ReportMetric(par, "parallelism")
			})
		}
	}
}

// BenchmarkFig10 regenerates Fig. 10: cache-trace simulation of the three
// execution orders; the miss ratio is reported as a metric.
func BenchmarkFig10(b *testing.B) {
	heat := shape.MustNew(2, [][]int{
		{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
	})
	const n, steps = 128, 32
	const m, bl = benchdef.Fig10CacheM, benchdef.Fig10CacheB
	b.Run("TRAP", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			w := cilkview.Config(2, n, 1, false, core.TRAP)
			tr := cachesim.NewTracer(cachesim.New(m, bl), heat, []int{n, n})
			r, err := cachesim.TraceWalker(w, tr, steps)
			if err != nil {
				b.Fatal(err)
			}
			ratio = r
		}
		b.ReportMetric(ratio, "miss-ratio")
	})
	b.Run("STRAP", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			w := cilkview.Config(2, n, 1, false, core.STRAP)
			tr := cachesim.NewTracer(cachesim.New(m, bl), heat, []int{n, n})
			r, err := cachesim.TraceWalker(w, tr, steps)
			if err != nil {
				b.Fatal(err)
			}
			ratio = r
		}
		b.ReportMetric(ratio, "miss-ratio")
	})
	b.Run("Loops", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			tr := cachesim.NewTracer(cachesim.New(m, bl), heat, []int{n, n})
			ratio = cachesim.TraceLoops(tr, steps)
		}
		b.ReportMetric(ratio, "miss-ratio")
	})
}

// ablationInstance narrows a Heat 2p instance to its §4 and Fig. 13
// ablations.
type ablationInstance interface {
	stencils.Instance
	PochoirMacroShadow(pochoir.Options) stencils.Job
	PochoirNoInterior(pochoir.Options) stencils.Job
}

// benchAblation times the compiled clones (Pochoir) beside one ablation of
// them on the ablation box, and holds each sub-benchmark's last result bit
// for bit against the serial loops. Both run in the §4 cut-rows geometry
// (DefaultCoarsening): under the clones' default whole rows no zoid is
// interior, and the two would run the same code.
func benchAblation(b *testing.B, cloned, ablated string, job func(ablationInstance, pochoir.Options) stencils.Job) {
	f := stencils.NewHeat2DFactory(true)
	w := benchdef.AblationHeat2D
	mk := func() ablationInstance { return f.New(w.Sizes, w.Steps).(ablationInstance) }
	up := updates(mk())
	ref := mk().LoopsSerial().Run()
	_, space := pochoir.DefaultCoarsening(2)
	cutRows := pochoir.Options{SpaceCutoff: space}
	for _, c := range []struct {
		name string
		job  func(ablationInstance, pochoir.Options) stencils.Job
	}{
		{cloned, ablationInstance.Pochoir},
		{ablated, job},
	} {
		b.Run(c.name, func(b *testing.B) {
			var last stencils.Job
			benchJob(b, func() stencils.Job { last = c.job(mk(), cutRows); return last }, up)
			if got := last.Result(); !slices.Equal(got, ref) {
				b.Fatalf("%s differs from the serial loops", c.name)
			}
		})
	}
}

// BenchmarkFig13 regenerates Fig. 13: the compiler's row-program interior
// clone beside the split-macro-shadow one of Fig. 12(b), both with the
// compiled boundary clone.
func BenchmarkFig13(b *testing.B) {
	benchAblation(b, "RowProgram", "SplitMacroShadow", ablationInstance.PochoirMacroShadow)
}

// BenchmarkModuloIndexing regenerates the §4 modular-indexing ablation: the
// compiled boundary clone alone, on every zoid.
func BenchmarkModuloIndexing(b *testing.B) {
	benchAblation(b, "CodeCloning", "ModEverywhere", ablationInstance.PochoirNoInterior)
}

// BenchmarkCoarsening regenerates the §4 base-case-coarsening ablation.
func BenchmarkCoarsening(b *testing.B) {
	f := stencils.NewHeat2DFactory(true)
	w := benchdef.AblationHeat2DSmall
	up := float64(w.Updates())
	for _, c := range benchdef.CoarseningAblation {
		opts := pochoir.Options{TimeCutoff: c.TimeCutoff, SpaceCutoff: c.SpaceCutoff, Grain: c.Grain}
		b.Run(c.Name, func(b *testing.B) {
			benchJob(b, func() stencils.Job {
				return f.New(w.Sizes, w.Steps).Pochoir(opts)
			}, up)
		})
	}
}

// BenchmarkWalkOnly times the decomposition alone: the two library boxes of
// the repository benchmark (Heat 4 on 32^4 x 32, where the walker is the
// profile, and Heat 2p on 2048^2 x 32, where it must stay invisible) through
// RunSpecialized at default options with clones that do nothing. What it
// reports — ns, allocations and spawns per walk — is the walker's whole
// cost; ROADMAP item 4 wants the serial rows at zero allocations and the
// parallel rows no slower than the serial ones.
func BenchmarkWalkOnly(b *testing.B) {
	for _, c := range []struct {
		name, bench string
		w           benchdef.Workload
	}{
		{"Heat4", "Heat 4", benchdef.Workload{Sizes: []int{32, 32, 32, 32}, Steps: 32}},
		{"Heat2p", "Heat 2p", benchdef.Workload{Sizes: []int{2048, 2048}, Steps: 32}},
	} {
		for _, mode := range []string{"serial", "parallel"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				f, ok := stencils.Lookup(c.bench)
				if !ok {
					b.Fatalf("unknown benchmark %q", c.bench)
				}
				sh := f.Shape()
				u, err := pochoir.NewArray[float64](sh.Depth(), c.w.Sizes...)
				if err != nil {
					b.Fatal(err)
				}
				u.RegisterBoundary(pochoir.ZeroBoundary[float64]())
				noop := func(pochoir.Zoid) {}
				walk := func(opts pochoir.Options) {
					opts.Serial = mode == "serial"
					st := pochoir.NewWithOptions[float64](sh, opts)
					if err := st.RegisterArray(u); err != nil {
						b.Fatal(err)
					}
					if err := st.RunSpecialized(c.w.Steps, pochoir.BaseKernels{Interior: noop, Boundary: noop}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					walk(pochoir.Options{})
				}
				b.StopTimer()
				// One more walk, untimed, with a recorder armed: the spawn
				// count is a decision, the same on every walk.
				rec := pochoir.NewRecorder()
				walk(pochoir.Options{Telemetry: rec})
				b.ReportMetric(float64(rec.Snapshot().Spawns), "spawns/op")
			})
		}
	}
}

// BenchmarkAblationHyperspaceVsSpaceCuts measures the wall-clock effect of
// the hyperspace-cut strategy itself (TRAP vs STRAP execution) — the
// design choice Fig. 9 analyzes — on a real kernel.
func BenchmarkAblationHyperspaceVsSpaceCuts(b *testing.B) {
	f := stencils.NewHeat2DFactory(true)
	w := benchdef.AblationHeat2D
	up := float64(w.Updates())
	b.Run("TRAP", func(b *testing.B) {
		benchJob(b, func() stencils.Job {
			return f.New(w.Sizes, w.Steps).Pochoir(pochoir.Options{})
		}, up)
	})
	b.Run("STRAP", func(b *testing.B) {
		benchJob(b, func() stencils.Job {
			return f.New(w.Sizes, w.Steps).Pochoir(pochoir.Options{Algorithm: core.STRAP})
		}, up)
	})
}

// BenchmarkPhase1VsPhase2 measures the template-library (interpreted)
// path against the compiled path — the cost of the Pochoir Guarantee's
// comfortable debugging mode.
func BenchmarkPhase1VsPhase2(b *testing.B) {
	f := stencils.NewHeat2DFactory(true)
	w := benchdef.AblationHeat2DSmall
	up := float64(w.Updates())
	b.Run("Phase1Generic", func(b *testing.B) {
		benchJob(b, func() stencils.Job {
			return f.New(w.Sizes, w.Steps).PochoirGeneric(pochoir.Options{})
		}, up)
	})
	b.Run("Phase2Specialized", func(b *testing.B) {
		benchJob(b, func() stencils.Job {
			return f.New(w.Sizes, w.Steps).Pochoir(pochoir.Options{})
		}, up)
	})
}

// BenchmarkDSLHeat2D puts the served path beside loops-native on one box:
// DSL Heat 2p through Instance.Run (the row-program clones every pochoird
// job runs, and stencils' Heat 2p Pochoir path) against the parallel
// modular-indexing loop nest (stencils' Heat 2p LoopsParallel), on the
// ablation box (512², whose working set overflows a 2 MiB L2) and on the
// served one (192², which fits). benchlab's "DSL Heat 2p" and "DSL Heat 2p
// served" rows record the same row-program jobs in BENCH_baseline.json.
func BenchmarkDSLHeat2D(b *testing.B) {
	// The Fig. 6 program in the specification language: the same update as
	// stencils' Heat 2p.
	src, err := os.ReadFile("examples/dsl/specs/heat2d.pch")
	if err != nil {
		b.Fatal(err)
	}
	checked, err := compiler.CompileSource(string(src))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []benchdef.Workload{benchdef.AblationHeat2D, benchdef.ServedHeat2D} {
		up := float64(w.Updates())
		size := fmt.Sprintf("%dx%d", w.Sizes[0], w.Sizes[1])
		b.Run(size+"/DSLRowProgram", func(b *testing.B) {
			b.ReportAllocs()
			insts := make([]*compiler.Instance, b.N)
			for i := range insts {
				if insts[i], err = checked.NewInstance(w.Sizes...); err != nil {
					b.Fatal(err)
				}
				insts[i].Arrays["u"].Fill(0, 1)
			}
			b.ResetTimer()
			for _, inst := range insts {
				if err := inst.Run(w.Steps, pochoir.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(up*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
		})
		b.Run(size+"/LoopsNative", func(b *testing.B) {
			f := stencils.NewHeat2DFactory(true)
			benchJob(b, func() stencils.Job { return f.New(w.Sizes, w.Steps).LoopsParallel() }, up)
		})
	}
}
