package trace

import (
	"fmt"

	"pochoir/internal/telemetry"
)

// SupervisorSpans adapts the supervisor's decision stream (emitted through
// resilience.Policy.OnEvent) into live spans on a trace: one span per time
// segment, one child span per attempt, and zero-duration markers for
// checkpoints, spills, restores, degradations, backoffs, and shadow
// verification — each failure carrying its cause as an attribute. The
// returned callback is driven synchronously from the supervising goroutine,
// so it needs no locking of its own.
//
// Span shape per segment:
//
//	segment-N [engine=TRAP]
//	  checkpoint |            (marker)
//	  spill |                 (marker; error status + cause when the spill failed)
//	  attempt-1 ======        (status=error, cause=... on failure)
//	    shadow-verify |       (marker, ok or error)
//	  restore |               (marker)
//	  attempt-2 ======        (opens at restore; includes its backoff wait)
//	    degrade |             (marker, engine=STRAP — the rung this attempt runs on)
//	    retry-backoff |       (marker, delay=...)
//
// The first attempt's span opens at segment start, so it also covers the
// segment's checkpoint + spill preamble; attempt k>1 opens at the restore
// that precedes it. The attempt's walk records under it (see
// StartWalkSpan): *attempt holds the open attempt span, zero between
// attempts.
func SupervisorSpans(a *Active, parent SpanID, attempt *SpanID) func(telemetry.SupEvent) {
	if a == nil {
		return func(telemetry.SupEvent) {}
	}
	var segSpan SpanID
	return func(ev telemetry.SupEvent) {
		switch ev.Kind {
		case telemetry.SupSegmentStart:
			segSpan = a.StartSpan(fmt.Sprintf("segment-%d", ev.Segment), parent,
				Attr{Key: "engine", Value: ev.Engine})
			*attempt = a.StartSpan("attempt-1", segSpan)

		case telemetry.SupCheckpoint:
			a.Mark("checkpoint", segSpan, StatusOK)

		case telemetry.SupSpill:
			if ev.Err != "" {
				a.Mark("spill", segSpan, StatusError, Attr{Key: "cause", Value: ev.Err})
			} else {
				a.Mark("spill", segSpan, StatusOK)
			}

		case telemetry.SupVerifyOK:
			a.Mark("shadow-verify", *attempt, StatusOK)

		case telemetry.SupVerifyMismatch:
			a.Mark("shadow-verify", *attempt, StatusError,
				Attr{Key: "cause", Value: ev.Err})

		case telemetry.SupSegmentFail:
			a.EndSpan(*attempt, StatusError,
				Attr{Key: "cause", Value: ev.Err},
				Attr{Key: "engine", Value: ev.Engine})
			*attempt = SpanID{}

		case telemetry.SupRestore:
			a.Mark("restore", segSpan, StatusOK)
			*attempt = a.StartSpan(fmt.Sprintf("attempt-%d", ev.Attempt+1), segSpan)

		case telemetry.SupDegrade:
			a.Mark("degrade", *attempt, StatusOK,
				Attr{Key: "engine", Value: ev.Engine})

		case telemetry.SupBackoff:
			a.Mark("retry-backoff", *attempt, StatusOK,
				Attr{Key: "delay", Value: ev.Delay.String()})

		case telemetry.SupSegmentDone:
			a.EndSpan(*attempt, StatusOK)
			a.EndSpan(segSpan, StatusOK,
				Attr{Key: "attempts", Value: fmt.Sprintf("%d", ev.Attempt)})
			segSpan, *attempt = SpanID{}, SpanID{}

		case telemetry.SupGiveUp:
			a.EndSpan(*attempt, StatusError)
			a.EndSpan(segSpan, StatusError,
				Attr{Key: "cause", Value: ev.Err},
				Attr{Key: "attempts", Value: fmt.Sprintf("%d", ev.Attempt)})
			segSpan, *attempt = SpanID{}, SpanID{}

		case telemetry.SupResume:
			if ev.Err != "" {
				a.Mark("resume", parent, StatusError, Attr{Key: "cause", Value: ev.Err})
			} else {
				a.Mark("resume", parent, StatusOK,
					Attr{Key: "cursor", Value: fmt.Sprintf("%d", ev.Attempt)})
			}
		}
	}
}
