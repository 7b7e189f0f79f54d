package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/telemetry"
)

// phase1Shape is the five-point 2D heat shape of the paper's Fig. 6.
func phase1Shape() *pochoir.Shape {
	return pochoir.MustShape(2, [][]int{
		{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
	})
}

// phase1Job is one run of the hand-written closure kernel: a stencil, its
// array, and the Phase-1 point kernel over the checked accessors.
type phase1Job struct {
	st   *pochoir.Stencil[float64]
	u    *pochoir.Array[float64]
	kern pochoir.Kernel
}

// phase1Field is the seeded initial condition: values in [0,1).
func phase1Field(b box, seed int64) []float64 {
	init := make([]float64, b.points())
	rng := rand.New(rand.NewSource(seed))
	for i := range init {
		init[i] = rng.Float64()
	}
	return init
}

// newPhase1Job allocates the array, generates and copies in the seeded
// field, and registers — the work set-up time measures, as stencils'
// Job.Setup does for the library workloads.
func newPhase1Job(b box, seed int64, opts pochoir.Options) (*phase1Job, error) {
	sh := phase1Shape()
	u, err := pochoir.NewArray[float64](sh.Depth(), b.sizes...)
	if err != nil {
		return nil, err
	}
	u.RegisterBoundary(pochoir.ZeroBoundary[float64]())
	st := pochoir.NewWithOptions[float64](sh, opts)
	if err := st.RegisterArray(u); err != nil {
		return nil, err
	}
	if err := u.CopyIn(0, phase1Field(b, seed)); err != nil {
		return nil, err
	}
	const cx, cy = 0.125, 0.125
	kern := pochoir.K2(func(t, x, y int) {
		c := u.Get(t, x, y)
		u.Set(t+1, c+
			cx*(u.Get(t, x+1, y)-2*c+u.Get(t, x-1, y))+
			cy*(u.Get(t, x, y+1)-2*c+u.Get(t, x, y-1)), x, y)
	})
	return &phase1Job{st: st, u: u, kern: kern}, nil
}

func (j *phase1Job) result(b box) ([]float64, error) {
	out := make([]float64, b.points())
	return out, j.u.CopyOut(b.steps, out)
}

// segmentSpans returns a SupervisePolicy.OnEvent hook that turns the
// supervisor's decision stream into spans under parent: one
// resilience.segment per segment, split at the checkpoint and spill events
// into grid.checkpoint, wire.spill and core.run.
func segmentSpans(rec *spanRecorder, trace, parent int) func(pochoir.SupervisorEvent) {
	if rec == nil {
		return nil
	}
	var seg int
	var mark time.Duration
	return func(ev pochoir.SupervisorEvent) {
		now := time.Since(rec.epoch)
		switch ev.Kind {
		case telemetry.SupSegmentStart:
			seg = rec.start(trace, parent, "resilience.segment")
		case telemetry.SupCheckpoint:
			rec.add(trace, seg, "grid.checkpoint", mark, now)
		case telemetry.SupSpill:
			rec.add(trace, seg, "wire.spill", mark, now)
		case telemetry.SupSegmentDone:
			rec.add(trace, seg, "core.run", mark, now)
			rec.end(seg)
		}
		mark = now
	}
}

// phase1Result is what one supervised rep reports: set-up and run time in
// seconds, the supervisor's report, and what the spill journal held on disk
// when the run ended (the journal keeps its newest entries only).
type phase1Result struct {
	setup, run  float64
	report      *pochoir.RunReport
	onDiskBytes int64
	onDiskFiles int
}

// phase1Rep runs the closure kernel once under the supervisor, one segment
// per step, spilling to a fresh directory when spill is set, judges the
// result, and removes the directory.
func (c *runCtx) phase1Rep(b box, ref reference, opts pochoir.Options, spill bool,
	rec *spanRecorder, id int) (res phase1Result, err error) {
	root := rec.start(id, -1, "rep")
	defer rec.end(root)
	// Both timed parts start from a collected heap: the previous rep's
	// garbage is not this rep's cost, and whether the allocator finds free
	// spans or faults fresh pages in is not left to GC timing.
	runtime.GC()
	t0 := time.Now()
	sp := rec.start(id, root, "grid.init")
	j, err := newPhase1Job(b, c.seed, opts)
	dir := ""
	if err == nil && spill {
		dir, err = os.MkdirTemp("", "bench-spill-")
	}
	rec.end(sp)
	res.setup = time.Since(t0).Seconds()
	if err != nil {
		return res, err
	}
	if spill {
		defer func() {
			if rmErr := os.RemoveAll(dir); err == nil {
				err = rmErr
			}
		}()
	}
	runtime.GC()
	sup := rec.start(id, root, "resilience.supervised_run")
	policy := pochoir.SupervisePolicy{SegmentSteps: 1, SpillDir: dir, OnEvent: segmentSpans(rec, id, sup)}
	t0 = time.Now()
	res.report, err = j.st.RunSupervised(context.Background(), b.steps, j.kern, policy)
	res.run = time.Since(t0).Seconds()
	rec.end(sup)
	if err != nil {
		return res, fmt.Errorf("RunSupervised: %w", err)
	}
	got, err := j.result(b)
	if err != nil {
		return res, err
	}
	wantSpills := 0
	if spill {
		wantSpills = b.steps
		ents, err := pochoir.ListSpillJournal(dir)
		if err != nil {
			return res, err
		}
		res.onDiskFiles = len(ents)
		for _, e := range ents {
			res.onDiskBytes += e.Bytes
		}
	}
	ok := ref.matches(got) && res.report.Spills == wantSpills && res.report.SpillErrors == 0
	c.judge(ok, fmt.Sprintf("phase1 rep %d: result or spill count (%d of %d, %d errors) is wrong",
		id, res.report.Spills, wantSpills, res.report.SpillErrors))
	return res, nil
}

// runPhase1Spill is the Phase-1 template-library path under the supervisor
// with a durable spill per step.
func runPhase1Spill(c *runCtx) error {
	b := c.scale.phase1
	c.logf("   closure heat2d %v x %d steps: %.1f M updates, grid %.1f MiB, SegmentSteps 1, one spill per step\n",
		b.sizes, b.steps, float64(b.updates())/1e6, float64(2*b.points()*8)/(1<<20))
	ref := newReference(refHeat2DZero(phase1Field(b, c.seed), b.sizes[0], b.sizes[1], b.steps))
	trapOpts := pochoir.Options{}
	loopsOpts := pochoir.Options{Algorithm: core.LOOPS}

	if !c.trace {
		var trap, loops repTimes
		err := interleave(c.budget(1), 0.5,
			func() error {
				r, err := c.phase1Rep(b, ref, trapOpts, true, nil, 0)
				trap.add(r.setup, r.run)
				return err
			},
			func() error {
				r, err := c.phase1Rep(b, ref, loopsOpts, true, nil, 0)
				loops.add(r.setup, r.run)
				return err
			})
		if err != nil {
			return err
		}
		c.setEndToEnd(b, trap, loops)
		return nil
	}

	// Traced run: spilled reps with spans, alternating with unrecorded
	// ones; then the same run with the spill, and then the supervisor,
	// taken away; then one probe per layer underneath.
	var traced, plain []float64
	var last phase1Result
	deadline := time.Now().Add(c.budget(0.3))
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		r, err := c.phase1Rep(b, ref, trapOpts, true, c.rec, 1+i)
		if err != nil {
			return err
		}
		traced, last = append(traced, r.run), r
		if r, err = c.phase1Rep(b, ref, trapOpts, true, nil, 0); err != nil {
			return err
		}
		plain = append(plain, r.run)
	}
	rep := last.report
	c.set("wire.spill_bytes", float64(last.onDiskBytes), last.onDiskFiles)
	spilled := median(traced)
	c.set("bench.trace_overhead_share", ratio(spilled-median(plain), median(plain)), len(traced))
	c.set("resilience.segments", float64(len(rep.Segments)), 1)
	c.set("resilience.attempts", float64(rep.Attempts), 1)
	c.set("resilience.retries", float64(rep.Retries), 1)

	var inMem, bare []float64
	for i := 0; i < probeReps; i++ {
		r, err := c.phase1Rep(b, ref, trapOpts, false, nil, 0)
		if err != nil {
			return err
		}
		inMem = append(inMem, r.run)
		j, err := newPhase1Job(b, c.seed, trapOpts)
		if err != nil {
			return err
		}
		var runErr error
		d := c.rec.time(1000+i, -1, "core.run_unsupervised", func() { runErr = j.st.Run(b.steps, j.kern) })
		if runErr != nil {
			return runErr
		}
		got, err := j.result(b)
		if err != nil {
			return err
		}
		c.judge(ref.matches(got), "phase1 unsupervised Run differs from the loop nest")
		bare = append(bare, d.Seconds())
	}
	c.set("wire.spill_share", ratio(spilled-median(inMem), spilled), len(inMem))
	c.set("resilience.supervise_overhead_share", ratio(median(inMem)-median(bare), median(bare)), len(bare))

	return c.gridWireProbes(b)
}

// gridWireProbes times the grid accessors, the in-memory checkpoint and
// restore, and the wire codec on the workload's own array.
func (c *runCtx) gridWireProbes(b box) error {
	j, err := newPhase1Job(b, c.seed, pochoir.Options{})
	if err != nil {
		return err
	}
	var getset, cpMS, rsMS, enc, dec []float64
	for i := 0; i < probeReps; i++ {
		getset = append(getset, getsetMops(c.rec, j.u))

		var cp *pochoir.Checkpoint[float64]
		var err error
		cpMS = append(cpMS, 1e3*c.rec.time(2000+i, -1, "grid.checkpoint", func() { cp, err = j.st.Checkpoint() }).Seconds())
		if err != nil {
			return err
		}
		rsMS = append(rsMS, 1e3*c.rec.time(2000+i, -1, "grid.restore", func() { err = j.st.Restore(cp) }).Seconds())
		if err != nil {
			return err
		}

		var buf bytes.Buffer
		d := c.rec.time(2000+i, -1, "wire.encode", func() { err = pochoir.EncodeCheckpoint(&buf, cp) })
		if err != nil {
			return err
		}
		mb := float64(buf.Len()) / 1e6
		enc = append(enc, ratio(mb, d.Seconds()))
		var back *pochoir.Checkpoint[float64]
		d = c.rec.time(2000+i, -1, "wire.decode", func() { back, err = pochoir.DecodeCheckpoint[float64](&buf) })
		if err != nil {
			return err
		}
		dec = append(dec, ratio(mb, d.Seconds()))
		if back.StepsRun() != cp.StepsRun() {
			c.judge(false, "decoded checkpoint has a different resume cursor")
		}
	}
	c.set("grid.getset_mops_per_s", median(getset), len(getset))
	c.set("grid.checkpoint_ms", median(cpMS), len(cpMS))
	c.set("grid.restore_ms", median(rsMS), len(rsMS))
	c.set("wire.encode_mb_per_s", median(enc), len(enc))
	c.set("wire.decode_mb_per_s", median(dec), len(dec))
	return nil
}
