package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"

	"pochoir/internal/core"
	"pochoir/internal/profile"
	"pochoir/internal/telemetry"
)

// engineLabels are the per-engine pprof label sets applied around segment
// attempts, precomputed so the supervisor loop allocates none. A CPU
// sample taken mid-attempt then attributes to the engine that executed it
// — including attempts re-run on a lower rung of the degradation ladder.
var engineLabels = func() (ls [core.NumAlgorithms]pprof.LabelSet) {
	for e := range ls {
		ls[e] = pprof.Labels("engine", Engine(e).String())
	}
	return ls
}()

func engineLabelSet(e Engine) pprof.LabelSet {
	if int(e) >= 0 && int(e) < len(engineLabels) {
		return engineLabels[e]
	}
	return pprof.Labels("engine", e.String())
}

// Driver is the set of operations the supervisor orchestrates. The stencil
// layer (pochoir.Stencil.RunSupervised) supplies closures over a concrete
// run; tests supply stubs. All callbacks are invoked from the supervising
// goroutine, never concurrently.
type Driver struct {
	// Steps is the total number of time steps to complete.
	Steps int
	// Run executes steps time steps starting at absolute step fromStep
	// with the given engine, honouring ctx. It must leave the computation
	// either advanced by steps (nil return) or in a state Restore can roll
	// back (error return).
	Run func(ctx context.Context, eng Engine, fromStep, steps int) error
	// Checkpoint snapshots the state at a segment boundary; Restore rolls
	// back to the most recent snapshot. Only called when checkpointing is
	// enabled.
	Checkpoint func() error
	Restore    func() error
	// Spill, when non-nil (the stencil layer supplies it iff
	// Policy.SpillDir is set), durably persists the checkpoint just taken
	// and returns the journal path and bytes written. A spill failure is
	// not a segment failure: the supervisor records it and continues.
	Spill func(segment, fromStep int) (path string, bytes int64, err error)
	// Verify, when non-nil and enabled by Policy.Verify, shadow-checks the
	// just-completed segment; a non-nil return (typically a *VerifyError)
	// is treated as a segment failure.
	Verify func(ctx context.Context, segment, fromStep, steps int) error
}

// Supervise runs d.Steps time steps under policy p: segment by segment,
// checkpointing at each boundary, retrying failed segments from their
// checkpoint under jittered exponential backoff, and degrading down the
// engine ladder when a segment keeps failing. It returns a Report in all
// cases; the error is non-nil when the run could not be completed (attempt
// budget exhausted, checkpointing disabled, parent context cancelled, or a
// checkpoint/restore operation itself failed).
func Supervise(ctx context.Context, d Driver, p Policy) (*Report, error) {
	p = p.WithDefaults()
	if p.Verify.Enabled {
		// Shadow verification recomputes from the segment-start snapshot,
		// so it needs the checkpoints NoCheckpoint would skip.
		p.NoCheckpoint = false
	}
	if p.SpillDir != "" {
		// Durable spilling persists the segment checkpoints, so it needs
		// them taken.
		p.NoCheckpoint = false
	}
	segSteps := p.SegmentSteps
	if segSteps <= 0 || segSteps > d.Steps {
		segSteps = d.Steps
	}
	rung := 0
	rep := &Report{Steps: d.Steps, FinalEngine: p.Ladder[0]}
	start := p.Clock.Now()
	emit := func(ev telemetry.SupEvent) {
		ev.TS = p.Clock.Now().Sub(start).Nanoseconds()
		rep.Events = append(rep.Events, ev)
		if p.OnEvent != nil {
			p.OnEvent(ev)
		}
	}
	fail := func(seg SegmentReport, err error) (*Report, error) {
		rep.Segments = append(rep.Segments, seg)
		rep.FinalEngine = p.Ladder[rung]
		rep.Err = err
		emit(telemetry.SupEvent{Kind: telemetry.SupGiveUp, Segment: seg.Index,
			Attempt: seg.Attempts, Engine: p.Ladder[rung].String(), Err: err.Error()})
		return rep, err
	}

	for from := 0; from < d.Steps; {
		steps := segSteps
		if from+steps > d.Steps {
			steps = d.Steps - from
		}
		seg := SegmentReport{Index: len(rep.Segments), FromStep: from, Steps: steps, Engine: p.Ladder[rung]}
		emit(telemetry.SupEvent{Kind: telemetry.SupSegmentStart, Segment: seg.Index,
			Engine: p.Ladder[rung].String()})

		if !p.NoCheckpoint {
			// phase=checkpoint covers the snapshot and its durable spill, so
			// attribution separates checkpoint overhead from kernel time.
			var cperr error
			pprof.Do(ctx, profile.LabelsCheckpoint, func(context.Context) {
				cperr = d.Checkpoint()
			})
			if cperr != nil {
				return fail(seg, fmt.Errorf("resilience: checkpoint before segment %d: %w", seg.Index, cperr))
			}
			rep.Checkpoints++
			emit(telemetry.SupEvent{Kind: telemetry.SupCheckpoint, Segment: seg.Index})

			if d.Spill != nil {
				spillStart := p.Clock.Now()
				var path string
				var bytes int64
				var serr error
				pprof.Do(ctx, profile.LabelsCheckpoint, func(context.Context) {
					path, bytes, serr = d.Spill(seg.Index, from)
				})
				ev := telemetry.SupEvent{Kind: telemetry.SupSpill, Segment: seg.Index,
					Delay: p.Clock.Now().Sub(spillStart)}
				if serr != nil {
					// Durability degraded, run intact: record and move on.
					rep.SpillErrors++
					ev.Err = serr.Error()
				} else {
					rep.Spills++
					rep.SpillBytes += bytes
					rep.LastSpillPath = path
					rep.LastSpillStep = from
					ev.Count = bytes
				}
				emit(ev)
			}
		}

		var segErr error
		failures := 0
		for attempt := 1; ; attempt++ {
			rep.Attempts++
			if attempt > 1 {
				rep.Retries++
			}
			seg.Attempts = attempt
			eng := p.Ladder[rung]
			seg.Engine = eng

			runCtx := ctx
			var cancel context.CancelFunc
			if p.SegmentTimeout > 0 {
				runCtx, cancel = p.Clock.WithTimeout(ctx, p.SegmentTimeout)
			}
			// The attempt runs under its engine label; the walker adds
			// phase=walk (and, armed, base/boundary) beneath it, and any
			// labels on the parent context (tenant/job/priority from the
			// gateway) ride along.
			var err error
			pprof.Do(runCtx, engineLabelSet(eng), func(rc context.Context) {
				err = d.Run(rc, eng, from, steps)
			})
			if cancel != nil {
				cancel()
			}

			if err == nil && p.Verify.Enabled && d.Verify != nil && seg.Index%p.Verify.Every == 0 {
				var verr error
				pprof.Do(ctx, profile.LabelsVerify, func(vc context.Context) {
					verr = d.Verify(vc, seg.Index, from, steps)
				})
				if verr != nil {
					rep.VerifyMismatches++
					seg.VerifyMismatch = true
					emit(telemetry.SupEvent{Kind: telemetry.SupVerifyMismatch, Segment: seg.Index,
						Attempt: attempt, Engine: eng.String(), Err: verr.Error()})
					err = verr
				} else {
					rep.Verified++
					seg.Verified = true
					emit(telemetry.SupEvent{Kind: telemetry.SupVerifyOK, Segment: seg.Index,
						Attempt: attempt, Engine: eng.String()})
				}
			}

			if err == nil {
				segErr = nil
				break
			}
			segErr = err
			failures++
			seg.Failures = append(seg.Failures, err.Error())
			fev := telemetry.SupEvent{Kind: telemetry.SupSegmentFail, Segment: seg.Index,
				Attempt: attempt, Engine: eng.String(), Err: err.Error()}
			if p.SegmentTimeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				// A deadline error with the parent still live means the
				// per-attempt watchdog fired, not an outside cancellation.
				fev.Delay = p.SegmentTimeout
			}
			emit(fev)

			if ctx.Err() != nil {
				// The parent gave up; retrying would spin on a dead context.
				break
			}
			if p.NoCheckpoint {
				// Nothing to restore to: the first failure is terminal and
				// the underlying state stays poisoned.
				break
			}
			if attempt >= p.MaxAttempts {
				break
			}

			var rerr error
			pprof.Do(ctx, profile.LabelsCheckpoint, func(context.Context) {
				rerr = d.Restore()
			})
			if rerr != nil {
				segErr = fmt.Errorf("resilience: restore for segment %d retry: %w", seg.Index, rerr)
				break
			}
			rep.Restores++
			emit(telemetry.SupEvent{Kind: telemetry.SupRestore, Segment: seg.Index, Attempt: attempt})

			if failures%p.DegradeAfter == 0 && rung < len(p.Ladder)-1 {
				rung++
				rep.Degradations++
				emit(telemetry.SupEvent{Kind: telemetry.SupDegrade, Segment: seg.Index,
					Attempt: attempt, Engine: p.Ladder[rung].String()})
			}

			delay := p.backoffDelay(failures)
			rep.BackoffTotal += delay
			seg.Backoff += delay
			emit(telemetry.SupEvent{Kind: telemetry.SupBackoff, Segment: seg.Index,
				Attempt: attempt, Delay: delay})
			if serr := p.Clock.Sleep(ctx, delay); serr != nil {
				break // parent cancelled mid-backoff; segErr keeps the run error
			}
		}

		if segErr != nil {
			return fail(seg, segErr)
		}
		rep.FinalEngine = p.Ladder[rung]
		rep.Segments = append(rep.Segments, seg)
		rep.StepsDone = from + steps
		emit(telemetry.SupEvent{Kind: telemetry.SupSegmentDone, Segment: seg.Index,
			Attempt: seg.Attempts, Engine: seg.Engine.String()})
		from += steps
	}
	return rep, nil
}
