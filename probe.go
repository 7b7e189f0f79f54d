package pochoir

import (
	"context"
	"errors"
	"runtime/pprof"

	"pochoir/internal/core"
	"pochoir/internal/faultpoint"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/profile"
	"pochoir/internal/sched"
	"pochoir/internal/telemetry"
	"pochoir/internal/zoid"
)

func init() {
	// Faultpoint trips and panics first caught at a scheduler sync point
	// reach the process-wide flight recorder through hooks, not a run's
	// probe. Both are no-ops when POCHOIR_FLIGHT=off.
	faultpoint.SetObserver(func(site faultpoint.Site, depth int) {
		flight.Default().Record(flight.EvFault, b2i(site == faultpoint.SiteBase), int64(depth), 0)
	})
	sched.SetPanicHook(func(pe *sched.PanicError) {
		if _, ok := pe.Value.(*KernelPanicError); !ok { // a kernel's is its run's to record
			flight.Default().Record(flight.EvPanic, 0, 0, flight.PanicSched)
		}
	})
}

// runProbe is the core.Probe of one run: it hands each walker event to the
// sinks the stencil's Options arm — telemetry shards, the live metrics and
// progress estimator, the flight recorder, any of them nil — and keeps the
// run's pprof labels. A spawned task gets a copy with its own shard.
type runProbe struct {
	tel  *telemetry.Recorder
	met  *metrics.RunMetrics
	prog *metrics.Progress
	fr   *flight.Recorder

	sh        *telemetry.Shard // this goroutine's, while tel is set
	eng       *metrics.Counter // met.EnginePoints of the run's engine
	ctx, lctx context.Context  // the caller's, and it plus phase=walk
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (p *runProbe) RunStart(ctx context.Context, alg core.Algorithm, t0, t1 int) {
	p.fr.Record(flight.EvRunStart, int64(alg), int64(t0), int64(t1))
	if m := p.met; m != nil {
		m.RunsStarted.Inc()
		m.RunsActive.Inc()
		if alg >= 0 && int(alg) < len(m.EnginePoints) {
			p.eng = m.EnginePoints[alg]
		}
	}
	// Label the run goroutine phase=walk, merged with the caller's labels
	// (the gateway's tenant/job/priority, the supervisor's engine), before
	// any worker spawns: workers inherit the set, so every CPU sample of the
	// run self-attributes.
	p.ctx, p.lctx = ctx, pprof.WithLabels(ctx, profile.LabelsWalk)
	pprof.SetGoroutineLabels(p.lctx)
	if p.tel != nil {
		p.tel.RunStarted()
		p.sh = p.tel.Acquire()
	}
}

func (p *runProbe) RunEnd(err error) {
	if p.tel != nil {
		p.tel.Release(p.sh) // closes what a panic left open
		p.tel.RunFinished()
	}
	pprof.SetGoroutineLabels(p.ctx)
	if m := p.met; m != nil {
		m.RunsActive.Dec()
	}
	outcome := b2i(err != nil)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		outcome = 2
	}
	p.fr.Record(flight.EvRunEnd, outcome, 0, 0)
}

// A span token is the telemetry span index shifted left by one, its low bit
// set when Base relabeled the goroutine and End must restore the run's
// labels; with neither to undo it is -1, and End is not called.
func (p *runProbe) Cut(kind core.CutKind, arg, fanout int) int {
	p.fr.Record(flight.EvCut, int64(kind), int64(arg), int64(fanout))
	if m := p.met; m != nil {
		m.Zoids.Inc()
		m.Cuts[kind].Inc()
	}
	switch {
	case p.sh == nil:
		return -1
	case kind == core.CutHyper:
		return p.sh.HyperCut(arg, fanout, arg+1) << 1
	case kind == core.CutTime:
		return p.sh.TimeCut(arg) << 1
	}
	return p.sh.SpaceCut(arg, kind == core.CutCircle) << 1
}

func (p *runProbe) Base(t0, t1, lo0, hi0 int, interior bool, vol int64) int {
	p.fr.Record(flight.EvBase, flight.PackPair(t0, t1), flight.PackPair(lo0, hi0), vol<<1|b2i(interior))
	if m := p.met; m != nil {
		m.Zoids.Inc()
		if interior {
			m.BaseInterior.Inc()
		} else {
			m.BaseBoundary.Inc()
		}
		m.BasePoints.Add(vol)
		m.BaseVolume.Observe(vol)
		if p.eng != nil {
			p.eng.Add(vol)
		}
	}
	if p.prog != nil {
		p.prog.Add(vol)
	}
	span := -1
	// While a continuous-profiling capture window is armed, the kernel runs
	// labelled phase=base/boundary, so CPU samples attribute to it rather
	// than to the walk. Disarmed, this is one atomic load.
	if profile.Armed() {
		ls := profile.LabelsBoundary
		if interior {
			ls = profile.LabelsBase
		}
		pprof.SetGoroutineLabels(pprof.WithLabels(p.lctx, ls))
		span = 1
	}
	if p.sh != nil {
		span = p.sh.Base(vol, interior, t1-t0)<<1 | max(span, 0)
	}
	return span
}

func (p *runProbe) End(span int) {
	if p.sh != nil {
		p.sh.End(span >> 1)
	}
	if span&1 != 0 {
		pprof.SetGoroutineLabels(p.lctx)
	}
}

func (p *runProbe) Spawned(depth int) {
	if p.sh != nil {
		p.sh.Spawned(1)
	}
	if m := p.met; m != nil {
		m.Spawns.Inc()
		m.ForkDepth.Observe(int64(depth))
	}
}

func (p *runProbe) Inlined(n int) {
	if p.sh != nil {
		p.sh.Inlined(n)
	}
	if m := p.met; m != nil {
		m.Inlines.Add(int64(n))
	}
}

// Task gives a spawned goroutine its own telemetry shard, so recording stays
// contention-free and the trace gets one track per worker.
func (p *runProbe) Task() core.Probe {
	if m := p.met; m != nil {
		m.ActiveWorkers.Inc()
	}
	if p.tel == nil {
		return p
	}
	q := *p
	q.sh = p.tel.Acquire()
	return &q
}

func (p *runProbe) Release() {
	if p.sh != nil {
		p.tel.Release(p.sh)
	}
	if m := p.met; m != nil {
		m.ActiveWorkers.Dec()
	}
}

func (p *runProbe) Cancelled() { p.fr.Record(flight.EvCancel, 0, 0, 0) }

func (p *runProbe) Panicked(z *zoid.Zoid) {
	if z == nil {
		p.fr.Record(flight.EvPanic, 0, 0, flight.PanicSched)
	} else {
		p.fr.Record(flight.EvPanic, flight.PackPair(z.T0, z.T1), flight.PackPair(z.Lo[0], z.Hi[0]), flight.PanicBase)
	}
}
