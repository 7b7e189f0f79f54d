package pochoir

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"pochoir/internal/core"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/resilience"
	"pochoir/internal/telemetry"
	"pochoir/internal/trace"
	"pochoir/internal/wire"
	"pochoir/internal/zoid"
)

// SupervisePolicy configures a supervised run; see RunSupervised and
// internal/resilience for the knobs (segment size, retry budget, backoff,
// degradation ladder, watchdog, shadow verification). The zero value is a
// usable default: one segment, 3 attempts, jittered 10ms–1s exponential
// backoff.
type SupervisePolicy = resilience.Policy

// VerifyPolicy configures shadow verification of a supervised run's
// segments; see SupervisePolicy.Verify.
type VerifyPolicy = resilience.VerifyPolicy

// RunReport summarizes a supervised run: steps completed, per-segment
// attempts and failures, retries, degradations, backoff spent, shadow
// verifications, and the full ordered supervisor decision log (Events,
// the one log of them; a resumed run's starts with its resume decision).
type RunReport = resilience.Report

// SegmentReport describes one segment of a supervised run.
type SegmentReport = resilience.SegmentReport

// VerifyError reports a shadow-verification mismatch in a supervised run.
type VerifyError = resilience.VerifyError

// SupervisorEvent is one typed supervisor decision; RunReport.Events holds
// them in order, and SupervisePolicy.OnEvent receives each as it happens.
type SupervisorEvent = telemetry.SupEvent

// SupervisorEngine names a rung of the degradation ladder.
type SupervisorEngine = resilience.Engine

// The degradation ladder rungs, in default order: the configured recursive
// engine, the serial-space-cut decomposition, and the time-serial checked
// loop engine of last resort.
const (
	EngineFull  = resilience.EngineFull
	EngineSTRAP = resilience.EngineSTRAP
	EngineLoops = resilience.EngineLoops
)

// RunSupervised executes steps time steps of the Phase-1 point kernel under
// the resilience supervisor: the run is split into time segments with a
// checkpoint before each; a segment that fails — kernel panic, engine
// panic, injected fault, cancellation, or watchdog deadline — is restored
// from its checkpoint and retried under jittered exponential backoff, and
// repeated failures walk the engine degradation ladder (TRAP → STRAP →
// serial checked loops). With p.Verify.Enabled, a sampled sub-box of each
// completed segment is re-executed from the segment's checkpoint with the
// generic checked executor and compared within the tolerance; a mismatch is
// treated as a segment failure.
//
// A stencil that carries compiled clones (AttachBaseKernels) runs its
// segments on them, on every rung of the ladder; kern is then what shadow
// verification re-executes per point.
//
// The returned RunReport is non-nil in all cases and records every
// supervisor decision. Each decision also goes, in order, to the flight
// recorder, the Options.Metrics counters, the Options.Trace spans and
// p.OnEvent. On success the stencil has advanced by steps, exactly as after
// Run. On failure the error is also recorded in the report and the stencil
// is left poisoned at the failed segment's start (restored state), except
// with p.NoCheckpoint where the torn state stays.
func (s *Stencil[T]) RunSupervised(ctx context.Context, steps int, kern Kernel, p SupervisePolicy) (*RunReport, error) {
	return s.runSupervised(ctx, steps, kern, p, nil)
}

// supervisorSink composes the observers of a supervised run's decisions
// from the stencil's Options: the flight record, the live metrics, the
// trace's segment and attempt spans under runSpan — keeping s.walkParent at
// the open attempt, for the segment's walk — then the caller's hook.
func (s *Stencil[T]) supervisorSink(runSpan trace.SpanID, onEvent func(SupervisorEvent)) func(SupervisorEvent) {
	fr := s.flightRecorder()
	var sm *metrics.SupervisorMetrics
	if reg := s.opts.Metrics; reg != nil {
		sm = metrics.NewSupervisorMetrics(reg)
	}
	spans := trace.SupervisorSpans(s.opts.Trace, runSpan, &s.walkParent)
	return func(ev SupervisorEvent) {
		fr.Record(flight.EvSup, int64(ev.Kind), int64(ev.Segment), int64(ev.Attempt))
		sm.Observe(ev)
		spans(ev)
		if onEvent != nil {
			onEvent(ev)
		}
	}
}

// runSupervised is RunSupervised with, for ResumeSupervised, the resume
// decision: it goes through the run's sink once the run's span is open, and
// leads the report's events.
func (s *Stencil[T]) runSupervised(ctx context.Context, steps int, kern Kernel, p SupervisePolicy, resume *SupervisorEvent) (rep *RunReport, err error) {
	if steps < 0 {
		return nil, fmt.Errorf("pochoir: negative step count %d", steps)
	}
	if len(s.arrays) == 0 {
		return nil, fmt.Errorf("pochoir: no arrays registered")
	}
	if reg := s.opts.Metrics; reg != nil {
		// One progress estimator spans the whole supervised run: segments
		// feed it through runWalker, retries of a restored segment re-add
		// their points (the counter is cumulative, so the published percent
		// stays monotone), and shadow verification bypasses the walker
		// entirely so verification work never inflates it.
		prog := reg.StartProgress(s.progressLabel("supervised"), int64(steps)*s.gridVolume())
		s.activeProg = prog
		defer func() {
			s.activeProg = nil
			prog.Finish(err == nil)
		}()
	}
	// Resolve the policy defaults here, not just inside Supervise: the verify
	// closure below reads the effective BoxSide/Every/Tolerance and Rand.
	p = p.WithDefaults()
	var runSpan trace.SpanID
	if tr := s.opts.Trace; tr != nil {
		// The supervised run gets its own span, and the supervisor's
		// decision stream grows segment/attempt spans under it live — so a
		// post-mortem snapshot of a run that dies mid-segment still shows
		// the attempt it died in.
		runSpan = tr.StartSpan("supervised-run", trace.SpanID{},
			trace.Attr{Key: "steps", Value: strconv.Itoa(steps)},
			trace.Attr{Key: "algorithm", Value: s.opts.Algorithm.String()})
		defer func() {
			status := trace.StatusOK
			switch {
			case err == nil:
			case errors.Is(err, context.DeadlineExceeded):
				status = trace.StatusDeadline
			default:
				status = trace.StatusError
			}
			attrs := []trace.Attr(nil)
			if rep != nil {
				attrs = append(attrs,
					trace.Attr{Key: "attempts", Value: strconv.Itoa(rep.Attempts)},
					trace.Attr{Key: "engine", Value: rep.FinalEngine.String()})
			}
			tr.EndSpan(runSpan, status, attrs...)
		}()
	}
	p.OnEvent = s.supervisorSink(runSpan, p.OnEvent)
	// Segments run the attached compiled clones when the stencil carries
	// them (AttachBaseKernels); shadow verification always re-executes the
	// point kernel.
	exec := s.pointExecutor(kern)
	clones := s.compiled
	if clones.Boundary == nil {
		clones = pointClones(exec)
	}
	// The run owns its checkpoint memory: cpStart, the current segment's
	// start state, and cpEnd, shadow verification's copy of its result.
	// Each is allocated once, overwritten every segment, and released to
	// the grid free list when the run ends.
	var cpStart, cpEnd *Checkpoint[T]
	d := resilience.Driver{
		Steps: steps,
		Run: func(ctx context.Context, eng resilience.Engine, fromStep, n int) error {
			return s.runSegment(ctx, eng, clones, n)
		},
		Checkpoint: func() error {
			cp, err := s.checkpointInto(cpStart)
			if err != nil {
				return err
			}
			cpStart = cp
			return nil
		},
		Restore: func() error { return s.Restore(cpStart) },
	}
	if p.SpillDir != "" {
		// Durable spilling: every segment checkpoint also goes to the
		// crash-safe journal, so a killed process resumes from the newest
		// good entry via ResumeSupervised. Opening the journal is the only
		// fatal step — durability was explicitly requested, so an unusable
		// directory is a configuration error; individual spill failures
		// later are recorded by the supervisor and never fail the run.
		jour, jerr := wire.OpenJournal(p.SpillDir, p.SpillKeep)
		if jerr != nil {
			return nil, fmt.Errorf("pochoir: open spill journal: %w", jerr)
		}
		d.Spill = func(segment, fromStep int) (string, int64, error) {
			wcp, werr := wireCheckpoint(cpStart)
			if werr != nil {
				return "", 0, werr
			}
			ent, aerr := jour.Append(wcp)
			if aerr != nil {
				return "", 0, aerr
			}
			return ent.Path, ent.Bytes, nil
		}
	}
	if p.Verify.Enabled {
		vp := p.Verify
		d.Verify = func(ctx context.Context, segIdx, fromStep, n int) error {
			return s.shadowVerify(ctx, exec, vp, p.Rand, cpStart, &cpEnd, segIdx, n)
		}
	}
	// Per-attempt failures are the supervisor's to retry, so runWalker must
	// not bundle them; only the supervisor's terminal error — give-up,
	// cancellation, a failed checkpoint/restore — freezes the black box and
	// writes the post-mortem bundle, supervisor decision log included.
	s.inSupervise = true
	defer func() { s.inSupervise, s.walkParent = false, trace.SpanID{} }()
	if resume != nil {
		p.OnEvent(*resume)
	}
	rep, err = resilience.Supervise(ctx, d, p)
	if resume != nil {
		rep.Events = append([]SupervisorEvent{*resume}, rep.Events...)
	}
	if err != nil {
		s.writePostmortem(err, rep)
	}
	// The supervisor, the journal and the post-mortem are done with the
	// run's checkpoints.
	cpStart.release()
	cpEnd.release()
	return rep, err
}

// runSegment executes n time steps with the engine the supervisor selected.
// EngineFull keeps the stencil's configured options; the lower rungs
// override the decomposition — and for LOOPS also force serial execution,
// so the last rung shares nothing with the failure modes above it.
func (s *Stencil[T]) runSegment(ctx context.Context, eng resilience.Engine, b BaseKernels, n int) error {
	w, err := s.newWalker(b.WholeRows)
	if err != nil {
		return err
	}
	switch eng {
	case resilience.EngineSTRAP:
		w.Algorithm = core.STRAP
	case resilience.EngineLoops:
		w.Algorithm = core.LOOPS
		w.Serial = true
	}
	w.Boundary = b.Boundary
	w.Interior = b.Interior
	return s.runWalker(ctx, w, n)
}

// shadowVerify re-executes the dependency cone of a sampled sub-box of the
// just-completed segment from the segment's checkpoint, serially through the
// generic checked executor, and compares the box's final-state values with
// what the segment produced. The cone is an inverted trapezoid: at the
// segment's first step it is the box widened by reach*(n-1) per side, and it
// narrows by the stencil's reach each step so exactly the box remains at the
// final step. When the cone's base would exceed a dimension's extent the
// whole extent is swept at every step instead (slopes 0), which subsumes the
// cone. On success the segment-end state, saved in *cpEnd, is restored and
// the run resumes.
func (s *Stencil[T]) shadowVerify(ctx context.Context, exec BaseFunc, vp VerifyPolicy, rnd func() float64, cpStart *Checkpoint[T], cpEnd **Checkpoint[T], segIdx, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cpStart == nil {
		return fmt.Errorf("pochoir: shadow verify without a segment checkpoint")
	}
	d := s.shape.NDims
	depth := s.shape.Depth()
	tFinal := s.stepsRun + depth - 1 // newest computed state

	// Place the sampled box. The jitter source doubles as the sampler so a
	// fixed Policy.Rand makes placement deterministic under test.
	var bLo, bHi [MaxDims]int
	for i := 0; i < d; i++ {
		side := vp.BoxSide
		if side > s.sizes[i] {
			side = s.sizes[i]
		}
		off := 0
		if span := s.sizes[i] - side; span > 0 && rnd != nil {
			off = int(rnd() * float64(span+1))
			if off > span {
				off = span
			}
		}
		bLo[i], bHi[i] = off, off+side
	}

	// The segment's answer for the box, captured before rewinding.
	idx := make([]int, d)
	var got []T
	forBox := func(visit func(idx []int)) {
		for i := 0; i < d; i++ {
			idx[i] = bLo[i]
		}
		for {
			visit(idx)
			i := d - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < bHi[i] {
					break
				}
				idx[i] = bLo[i]
			}
			if i < 0 {
				return
			}
		}
	}
	a0 := s.arrays[0]
	forBox(func(idx []int) { got = append(got, a0.Get(tFinal, idx...)) })

	// Rewind to the segment start, recompute the cone, compare, and put the
	// segment-end state back whatever the verdict.
	end, err := s.checkpointInto(*cpEnd)
	if err != nil {
		return fmt.Errorf("pochoir: shadow verify checkpoint: %w", err)
	}
	*cpEnd = end
	if err := s.Restore(cpStart); err != nil {
		return fmt.Errorf("pochoir: shadow verify restore: %w", err)
	}
	z := zoid.Zoid{N: d, T0: depth + s.stepsRun, T1: depth + s.stepsRun + n}
	for i := 0; i < d; i++ {
		reach := s.shape.Reach(i)
		base := (bHi[i] - bLo[i]) + 2*reach*(n-1)
		if base >= s.sizes[i] {
			// Cone base exceeds the extent: sweep the whole dimension at
			// every step. Clamping the trapezoid instead would starve the
			// box of wrapped dependencies.
			z.Lo[i], z.Hi[i] = 0, s.sizes[i]
			continue
		}
		z.Lo[i], z.Hi[i] = bLo[i]-reach*(n-1), bHi[i]+reach*(n-1)
		z.DLo[i], z.DHi[i] = reach, -reach
	}
	exec(z)

	var verr error
	pos := 0
	forBox(func(idx []int) {
		want := a0.Get(tFinal, idx...)
		if verr == nil {
			if diff, ok := valueDiff(got[pos], want); !ok || diff > 0 && !withinTolerance(diff, got[pos], want, vp.Tolerance) {
				verr = &VerifyError{
					Segment: segIdx,
					Step:    s.stepsRun + n,
					Index:   append([]int(nil), idx...),
					Diff:    diff,
					Detail:  fmt.Sprintf("got %v, want %v", got[pos], want),
				}
			}
		}
		pos++
	})
	if err := s.Restore(end); err != nil {
		return fmt.Errorf("pochoir: shadow verify resume: %w", err)
	}
	if verr != nil {
		// The run is rolled back to the segment's start so the supervisor's
		// retry recomputes the corrupted segment.
		s.poisoned = true
	}
	return verr
}

// valueDiff returns the absolute difference of two element values when they
// are a known numeric type. A NaN on both sides is a match and a NaN on one
// side a mismatch (ok=false), whatever the tolerance: NaN compares false
// against every threshold. For non-numeric element types it falls back to
// deep equality, reporting 0 for equal and ok=false for different.
func valueDiff[T any](got, want T) (diff float64, ok bool) {
	g, gok := toFloat(got)
	w, wok := toFloat(want)
	if gok && wok {
		if g == w || math.IsNaN(g) && math.IsNaN(w) {
			return 0, true
		}
		if math.IsNaN(g) || math.IsNaN(w) {
			return math.NaN(), false
		}
		return math.Abs(g - w), true
	}
	if reflect.DeepEqual(got, want) {
		return 0, true
	}
	return math.NaN(), false
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int8:
		return float64(x), true
	case int16:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint8:
		return float64(x), true
	case uint16:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint64:
		return float64(x), true
	}
	return 0, false
}

// withinTolerance applies the verify tolerance both absolutely and relative
// to the larger magnitude; zero tolerance demands exact equality (already
// handled by the diff==0 fast path). An infinite difference — an infinity
// against a finite value — is outside every tolerance, though relative to
// the infinity it would pass.
func withinTolerance[T any](diff float64, got, want T, tol float64) bool {
	if tol <= 0 || math.IsInf(diff, 0) {
		return false
	}
	if diff <= tol {
		return true
	}
	g, _ := toFloat(got)
	w, _ := toFloat(want)
	return diff <= tol*math.Max(math.Abs(g), math.Abs(w))
}
