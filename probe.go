package pochoir

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"pochoir/internal/core"
	"pochoir/internal/faultpoint"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/profile"
	"pochoir/internal/sched"
	"pochoir/internal/telemetry"
	"pochoir/internal/trace"
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
// sinks the stencil's Options arm — the walk's counters, the live metrics'
// gauges and progress estimator, the flight recorder, the trace, any of them
// nil — and keeps the run's pprof labels. The trace is the one sink that
// keeps spans: a "walk" span, and under it every cut and base case. A
// spawned task gets a copy with its own shard, lane and span stack.
type runProbe struct {
	counts *telemetry.Walk // nil unless Telemetry or Metrics is armed
	met    *metrics.RunMetrics
	prog   *metrics.Progress
	fr     *flight.Recorder
	walk   *walkTrace // nil when the run has no trace

	sh        *telemetry.Shard // this goroutine's, while counts is set
	ctx, lctx context.Context  // the caller's, and it plus phase=walk

	lane int // this goroutine's track in the trace
	// open is this goroutine's span stack: at the bottom the span its walk
	// hangs under (the walk span, or the cut that spawned the task), above
	// it the decomposition spans it has open.
	open []trace.SpanID
}

// walkTrace is what the probes of one run share of its trace: the walk
// span, the spans past trace.MaxWalkSpans it counted rather than stored, and
// the lanes of tasks in flight — a lane freed by a finished task is reused,
// so lanes number the concurrently live workers.
type walkTrace struct {
	tr      *trace.Active
	span    trace.SpanID
	dropped atomic.Int64
	full    atomic.Bool // the trace stopped storing: count, do not format

	mu    sync.Mutex
	free  []int
	lanes int
}

func (w *walkTrace) acquireLane() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.free); n > 0 {
		l := w.free[n-1]
		w.free = w.free[:n-1]
		return l
	}
	w.lanes++
	return w.lanes
}

func (w *walkTrace) releaseLane(l int) {
	w.mu.Lock()
	w.free = append(w.free, l)
	w.mu.Unlock()
}

// recording reports whether the run's trace still stores decomposition
// spans; once it does not, it counts the span the caller would have opened.
func (p *runProbe) recording() bool {
	w := p.walk
	if w == nil {
		return false
	}
	if w.full.Load() {
		w.dropped.Add(1)
		return false
	}
	return true
}

// start opens a decomposition span on top of this goroutine's stack and
// returns its token: its depth in the stack shifted left once, or -1 when
// the trace stores no more.
func (p *runProbe) start(name string, attrs ...trace.Attr) int {
	id := p.walk.tr.StartWalkSpan(p.lane, name, p.open[len(p.open)-1], attrs...)
	if id.IsZero() {
		p.walk.full.Store(true)
		p.walk.dropped.Add(1)
		return -1
	}
	p.open = append(p.open, id)
	return (len(p.open) - 1) << 1
}

// finish closes this goroutine's open spans from depth d up, newest first:
// one span on the ordinary path, every span a panic left open otherwise.
func (p *runProbe) finish(d int, status string) {
	for n := len(p.open) - 1; n >= d; n-- {
		p.walk.tr.EndSpan(p.open[n], status)
		p.open = p.open[:n]
	}
}

func attr(k string, v int64) trace.Attr { return trace.Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

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
	}
	// Label the run goroutine phase=walk, merged with the caller's labels
	// (the gateway's tenant/job/priority, the supervisor's engine), before
	// any worker spawns: workers inherit the set, so every CPU sample of the
	// run self-attributes.
	p.ctx, p.lctx = ctx, pprof.WithLabels(ctx, profile.LabelsWalk)
	pprof.SetGoroutineLabels(p.lctx)
	if p.counts != nil {
		p.sh = p.counts.Acquire()
	}
	if w := p.walk; w != nil {
		w.span = w.tr.StartSpan("walk", p.open[0],
			trace.Attr{Key: "engine", Value: alg.String()}, attr("steps", int64(t1-t0)))
		p.open[0] = w.span
	}
}

func (p *runProbe) RunEnd(err error) {
	if p.counts != nil {
		p.counts.Release(p.sh) // charges a base case a panic left open
	}
	if w := p.walk; w != nil {
		status := trace.StatusOK
		if err != nil {
			status = trace.StatusError
		}
		p.finish(1, status) // what a panic left open on the run's goroutine
		w.tr.EndSpan(w.span, status, attr("dropped_spans", w.dropped.Load()))
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

// A span token is the depth of the trace span the call opened on this
// goroutine's stack (0: none stored) shifted left by one, its low bit set
// when Base relabeled the goroutine and End must restore the run's labels;
// with nothing to undo — no span, no labels, no counted base case — it is
// -1, and End is not called.
func (p *runProbe) Cut(kind core.CutKind, arg, fanout int) int {
	p.fr.Record(flight.EvCut, int64(kind), int64(arg), int64(fanout))
	if sh := p.sh; sh != nil {
		switch kind {
		case core.CutHyper:
			sh.HyperCut(arg, fanout, arg+1)
		case core.CutTime:
			sh.TimeCut()
		default:
			sh.SpaceCut(kind == core.CutCircle)
		}
	}
	if !p.recording() {
		return -1
	}
	switch kind {
	case core.CutHyper:
		return p.start("hyperspace-cut", attr("dims_cut", int64(arg)), attr("fanout", int64(fanout)), attr("levels", int64(arg+1)))
	case core.CutTime:
		return p.start("time-cut", attr("height", int64(arg)))
	case core.CutSpace:
		return p.start("space-cut", attr("dim", int64(arg)))
	}
	return p.start("circle-cut", attr("dim", int64(arg)))
}

func (p *runProbe) Base(t0, t1, lo0, hi0 int, interior bool, vol int64) int {
	p.fr.Record(flight.EvBase, flight.PackPair(t0, t1), flight.PackPair(lo0, hi0), vol<<1|b2i(interior))
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
		p.sh.Base(vol, interior)
		span = max(span, 0)
	}
	if p.recording() {
		clone := "boundary"
		if interior {
			clone = "interior"
		}
		if t := p.start("base", attr("volume", vol), trace.Attr{Key: "clone", Value: clone}, attr("height", int64(t1-t0))); t > 0 {
			span = t | max(span, 0)
		}
	}
	return span
}

func (p *runProbe) End(span int) {
	if p.sh != nil {
		p.sh.End()
	}
	if span&1 != 0 {
		pprof.SetGoroutineLabels(p.lctx)
	}
	if d := span >> 1; d > 0 {
		p.finish(d, trace.StatusOK)
	}
}

// Spawned counts the fork in the shard and its depth in the registry.
func (p *runProbe) Spawned(depth int) {
	if p.sh != nil {
		p.sh.Spawned(1)
	}
	if m := p.met; m != nil {
		m.ForkDepth.Observe(int64(depth))
	}
}

func (p *runProbe) Inlined(n int) {
	if p.sh != nil {
		p.sh.Inlined(n)
	}
}

// Task gives a spawned goroutine its own counter shard, so recording stays
// contention-free, and its own trace lane and span stack, rooted at the cut
// that spawns it: Task runs on the spawning goroutine, where that cut is the
// open span on top.
func (p *runProbe) Task() core.Probe {
	if m := p.met; m != nil {
		m.ActiveWorkers.Inc()
	}
	if p.counts == nil && p.walk == nil {
		return p
	}
	q := *p
	if p.counts != nil {
		q.sh = p.counts.Acquire()
	}
	if w := p.walk; w != nil {
		q.lane, q.open = w.acquireLane(), []trace.SpanID{p.open[len(p.open)-1]}
	}
	return &q
}

func (p *runProbe) Release() {
	if p.sh != nil {
		p.counts.Release(p.sh)
	}
	if w := p.walk; w != nil {
		p.finish(1, trace.StatusError) // what a panic left open on this task
		w.releaseLane(p.lane)
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
