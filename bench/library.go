package main

import (
	"fmt"
	"runtime"
	"time"

	"pochoir"
	"pochoir/internal/benchdef"
	"pochoir/internal/cachesim"
	"pochoir/internal/cilkview"
	"pochoir/internal/core"
	"pochoir/internal/stencils"
)

// box is a space-time box: spatial extents and time steps.
type box struct {
	sizes []int
	steps int
}

func (b box) points() int64 {
	p := int64(1)
	for _, s := range b.sizes {
		p *= int64(s)
	}
	return p
}

// updates is the number of space-time point updates one run performs.
func (b box) updates() int64 { return b.points() * int64(b.steps) }

// mupdates converts a run time to 10^6 point updates per second.
func (b box) mupdates(seconds float64) float64 {
	return ratio(float64(b.updates())/1e6, seconds)
}

// scale sizes every workload. fullScale is what BENCHMARK.json measures;
// the smoke test substitutes toy boxes so `go test` exercises the same code
// in seconds.
type scale struct {
	heat2p, heat4, phase1    box
	serveCompute, serveSmall box
	serveWarmup              int // untimed jobs before the serve-small window
}

var fullScale = scale{
	heat2p:       box{[]int{2048, 2048}, 32},
	heat4:        box{[]int{32, 32, 32, 32}, 32},
	phase1:       box{[]int{512, 512}, 32},
	serveCompute: box{[]int{192, 192}, 32},
	serveSmall:   box{[]int{32}, 8},
	serveWarmup:  1000,
}

const (
	// minReps is the number of timed repetitions a time budget may not go
	// below; probeReps is how often the traced run repeats a layer probe.
	minReps   = 3
	probeReps = 3
)

func runHeat2pBig(c *runCtx) error {
	return runLibrary(c, "Heat 2p", c.scale.heat2p, 0.45)
}

func runHeat4Walker(c *runCtx) error {
	return runLibrary(c, "Heat 4", c.scale.heat4, 0.65)
}

// repTimes are the per-repetition set-up and compute times, in seconds.
type repTimes struct{ setup, compute []float64 }

// libRep runs one stencils job once: Factory.New + Job.Setup timed as
// set-up, Job.Compute timed as the run, then Job.Result judged by the
// oracle outside both. It returns the two times in seconds.
func (c *runCtx) libRep(f stencils.Factory, b box, job func(stencils.Instance) stencils.Job,
	ref reference, rec *spanRecorder, runSpan string, id int) (setup, compute float64) {
	rep := rec.start(id, -1, "rep")
	var j stencils.Job
	setupD := rec.time(id, rep, "stencils.setup", func() {
		j = job(f.New(b.sizes, b.steps))
		j.Setup()
	})
	// The previous rep's garbage is not this rep's cost. (Collecting before
	// set-up as well, as phase1-spill does, halves set-up time here but
	// doubles its spread: grids this large are partly returned to the OS
	// between reps, so set-up would time a mix of reused and fresh pages.)
	runtime.GC()
	computeD := rec.time(id, rep, runSpan, j.Compute)
	var got []float64
	rec.time(id, rep, "stencils.result", func() { got = j.Result() })
	rec.time(id, rep, "oracle.compare", func() {
		c.judge(ref.matches(got), fmt.Sprintf("%s %s rep %d differs from LoopsSerial", f.Name, runSpan, id))
	})
	rec.end(rep)
	return setupD.Seconds(), computeD.Seconds()
}

// libReps repeats libRep for the budget, and at least minReps times.
func (c *runCtx) libReps(f stencils.Factory, b box, job func(stencils.Instance) stencils.Job,
	ref reference, budget time.Duration, runSpan string, firstID int) repTimes {
	var rt repTimes
	deadline := time.Now().Add(budget)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		rt.add(c.libRep(f, b, job, ref, c.rec, runSpan, firstID+i))
	}
	return rt
}

func (rt *repTimes) add(setup, compute float64) {
	rt.setup = append(rt.setup, setup)
	rt.compute = append(rt.compute, compute)
}

// interleave alternates a and b for the budget, giving a about shareA of
// the time and each at least minReps turns. Both series of samples then
// span the whole window, so a disturbance of this shared box that lasts
// less than half the window moves neither median.
func interleave(budget time.Duration, shareA float64, a, b func() error) error {
	var spentA, spentB time.Duration
	var nA, nB int
	deadline := time.Now().Add(budget)
	for {
		late := !time.Now().Before(deadline)
		if late && nA >= minReps && nB >= minReps {
			return nil
		}
		pickA := float64(spentA)*(1-shareA) <= float64(spentB)*shareA
		if late {
			pickA = nA < minReps
		}
		t0 := time.Now()
		if pickA {
			if err := a(); err != nil {
				return err
			}
			spentA += time.Since(t0)
			nA++
		} else {
			if err := b(); err != nil {
				return err
			}
			spentB += time.Since(t0)
			nB++
		}
	}
}

// runLibrary is the library workload: the named stencils benchmark on box
// b, specialized clones, through the TRAP engine (parallel, default
// options) for trapShare of the time and through the core.LOOPS engine for
// the rest, turn and turn about, every result compared with the plain
// serial loop nest.
func runLibrary(c *runCtx, name string, b box, trapShare float64) error {
	f, ok := stencils.Lookup(name)
	if !ok {
		return fmt.Errorf("stencils has no benchmark %q", name)
	}
	gridBytes := 2 * b.points() * 8
	c.logf("   %s %v x %d steps: %.1f M updates, grid %.1f MiB (two time slots of float64)\n",
		name, b.sizes, b.steps, float64(b.updates())/1e6, float64(gridBytes)/(1<<20))

	// The reference: one plain single-threaded loop nest, outside every
	// timed section. Its own time is the native-serial baseline.
	refJob := f.New(b.sizes, b.steps).LoopsSerial()
	refJob.Setup()
	native := c.rec.time(0, -1, "loops.native_serial", refJob.Compute)
	ref := newReference(refJob.Result())

	trapJob := func(in stencils.Instance) stencils.Job { return in.Pochoir(pochoir.Options{}) }
	loopsJob := func(in stencils.Instance) stencils.Job {
		return in.Pochoir(pochoir.Options{Algorithm: core.LOOPS})
	}

	if !c.trace {
		var trap, loops repTimes
		err := interleave(c.budget(1), trapShare,
			func() error { trap.add(c.libRep(f, b, trapJob, ref, nil, "core.run", 0)); return nil },
			func() error { loops.add(c.libRep(f, b, loopsJob, ref, nil, "loops.engine_run", 0)); return nil })
		if err != nil {
			return err
		}
		c.setEndToEnd(b, trap, loops)
		return nil
	}

	// Traced run: the same reps with spans around each call, alternating
	// with unrecorded reps so the recorder's own cost is on record, then
	// one probe per layer.
	var traced, plain []float64
	deadline := time.Now().Add(c.budget(0.4))
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		_, t := c.libRep(f, b, trapJob, ref, c.rec, "core.run", 1+i)
		_, p := c.libRep(f, b, trapJob, ref, nil, "core.run", 0)
		traced, plain = append(traced, t), append(plain, p)
	}
	full := median(traced)
	c.set("bench.trace_overhead_share", ratio(full-median(plain), median(plain)), len(traced))

	loopsRT := c.libReps(f, b, loopsJob, ref, c.budget(0.25), "loops.engine_run", 1000)
	loopsS := median(loopsRT.compute)
	c.set("loops.engine_mupdates_per_s", b.mupdates(loopsS), len(loopsRT.compute))
	c.set("loops.native_serial_mupdates_per_s", b.mupdates(native.Seconds()), 1)
	c.set("loops.trap_over_loops", ratio(loopsS, full), len(loopsRT.compute))
	c.set("loops.trap_over_native", ratio(native.Seconds(), full), 1)

	// core: the walker alone — same shape, sizes, steps and options through
	// RunSpecialized with clones that do nothing.
	var walk []float64
	for i := 0; i < probeReps; i++ {
		d, err := c.walkOnly(f, b, 2000+i)
		if err != nil {
			return err
		}
		walk = append(walk, d.Seconds())
	}
	walkS := median(walk)
	c.set("core.walk_only_s", walkS, len(walk))
	c.set("core.walker_share", ratio(walkS, full), len(walk))
	c.set("stencils.kernel_s", full-walkS, len(traced))
	c.set("stencils.kernel_share", ratio(full-walkS, full), len(traced))
	c.set("stencils.gflops", f.New(b.sizes, b.steps).FlopsPerPoint()*b.mupdates(full)/1e3, len(traced))
	// One float64 read and one written per update if every other access
	// hits cache: computed from the array sizes, not measured.
	c.set("stencils.computed_bytes_per_update", 16, 0)

	// sched: the same decomposition on one strand.
	var serial []float64
	for i := 0; i < probeReps; i++ {
		j := f.New(b.sizes, b.steps).Pochoir(pochoir.Options{Serial: true})
		j.Setup()
		serial = append(serial, c.rec.time(3000+i, -1, "sched.serial_run", j.Compute).Seconds())
		c.judge(ref.matches(j.Result()), name+" serial TRAP differs from LoopsSerial")
	}
	c.set("sched.parallel_speedup", ratio(median(serial), full), len(serial))

	// core/sched counts: one rep with a telemetry recorder armed.
	tel := pochoir.NewRecorder()
	j := f.New(b.sizes, b.steps).Pochoir(pochoir.Options{Telemetry: tel})
	j.Setup()
	pre := tel.Snapshot()
	j.Compute()
	st := tel.Snapshot().Delta(pre)
	c.set("core.zoids", float64(st.Zoids()), 1)
	c.set("core.bases", float64(st.Bases), 1)
	c.set("core.interior_base_share", ratio(float64(st.InteriorBases), float64(st.Bases)), 1)
	c.set("core.time_cuts", float64(st.TimeCuts), 1)
	c.set("core.hyper_cuts", float64(st.HyperCuts), 1)
	c.set("core.circle_cuts", float64(st.CircleCuts), 1)
	c.set("core.base_vol_p50", st.BaseVolumePercentile(0.5), 1)
	c.set("sched.spawns", float64(st.Spawns), 1)
	c.set("sched.inlines", float64(st.Inlines), 1)
	if st.BasePoints != b.updates() {
		c.judge(false, fmt.Sprintf("%s decomposition covered %d points, box has %d", name, st.BasePoints, b.updates()))
	}

	// core allocations: heap traffic of one untraced Compute.
	j = f.New(b.sizes, b.steps).Pochoir(pochoir.Options{})
	j.Setup()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	j.Compute()
	runtime.ReadMemStats(&m1)
	c.set("core.allocs_per_run", float64(m1.Mallocs-m0.Mallocs), 1)
	c.set("core.alloc_mb_per_run", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, 1)

	// cilkview: work/span of the engine's decomposition of this box.
	wk := engineWalker(f.Shape(), b.sizes, core.TRAP)
	cv := cilkview.New(wk, cilkview.DefaultCosts()).Analyze(1, 1+b.steps)
	c.set("cilkview.parallelism", cv.Parallelism(), 1)
	c.set("cilkview.span", float64(cv.Span), 1)

	// cachesim: a scaled copy of the box replayed through the ideal-cache
	// model at benchdef's Fig. 10 geometry, in TRAP order and in LOOPS
	// order. The model costs a map operation per access, so the replay is
	// scaled down; the extents stay large against the model cache.
	sizes, steps := cacheReplayBox(b)
	m := benchdef.Fig10CacheM
	if len(sizes) >= 3 {
		m = benchdef.Fig10CacheM3D
	}
	trapCache := cachesim.New(m, benchdef.Fig10CacheB)
	if _, err := cachesim.TraceWalker(engineWalker(f.Shape(), sizes, core.TRAP),
		cachesim.NewTracer(trapCache, f.Shape(), sizes), steps); err != nil {
		return fmt.Errorf("cachesim TRAP replay: %w", err)
	}
	loopsCache := cachesim.New(m, benchdef.Fig10CacheB)
	cachesim.TraceLoops(cachesim.NewTracer(loopsCache, f.Shape(), sizes), steps)
	c.set("cachesim.miss_ratio_trap", trapCache.Ratio(), int(trapCache.Accesses()))
	c.set("cachesim.miss_ratio_loops", loopsCache.Ratio(), int(loopsCache.Accesses()))
	return nil
}

// cacheReplayBox scales a box down to a few million accesses per replay,
// keeping it larger than both the model cache and the coarsened base case.
func cacheReplayBox(b box) ([]int, int) {
	side, steps := 256, 16
	if len(b.sizes) >= 3 {
		side, steps = 16, 4
	}
	sizes := make([]int, len(b.sizes))
	for i, s := range b.sizes {
		sizes[i] = min(s, side)
	}
	return sizes, min(b.steps, steps)
}

// walkOnly times the decomposition alone: the benchmark's shape, extents
// and steps through RunSpecialized with no-op clones.
func (c *runCtx) walkOnly(f stencils.Factory, b box, id int) (time.Duration, error) {
	sh := f.Shape()
	st := pochoir.New[float64](sh)
	u, err := pochoir.NewArray[float64](sh.Depth(), b.sizes...)
	if err != nil {
		return 0, err
	}
	u.RegisterBoundary(pochoir.ZeroBoundary[float64]())
	if err := st.RegisterArray(u); err != nil {
		return 0, err
	}
	noop := func(pochoir.Zoid) {}
	var runErr error
	d := c.rec.time(id, -1, "core.walk_only", func() {
		runErr = st.RunSpecialized(b.steps, pochoir.BaseKernels{Interior: noop, Boundary: noop})
	})
	return d, runErr
}

// engineWalker builds the walker geometry the engine itself uses for a
// shape on the given extents — same slopes, the unified periodic scheme,
// the paper's coarsening — for the analytical replays.
func engineWalker(sh *pochoir.Shape, sizes []int, alg core.Algorithm) *core.Walker {
	d := len(sizes)
	w := &core.Walker{NDims: d, Algorithm: alg}
	for i := 0; i < d; i++ {
		w.Sizes[i] = sizes[i]
		w.Slopes[i] = sh.Slope(i)
		w.Reach[i] = sh.Reach(i)
		w.Periodic[i] = true
	}
	tc, sc := pochoir.DefaultCoarsening(d)
	w.TimeCutoff = tc
	copy(w.SpaceCutoff[:], sc)
	return w
}
