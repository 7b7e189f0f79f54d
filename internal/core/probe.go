package core

import (
	"context"

	"pochoir/internal/zoid"
)

// Probe is the walker's one instrumentation seam: everything a run reports
// about itself goes through it, and what becomes of an event — a telemetry
// span, a metric, a flight-record entry, a profiler label — is the business
// of whoever composed the probe, outside this package. A nil Walker.Probe is
// an uninstrumented run, at the cost of one pointer test per zoid.
//
// The run's goroutine reports through Walker.Probe; a spawned task reports
// through the probe Task returned on its own goroutine. RunStart, RunEnd and
// Cancelled go to Walker.Probe only.
type Probe interface {
	// RunStart opens a run of alg over home times [t0, t1) on the run's
	// goroutine, before any worker spawns; ctx is the run's context.
	RunStart(ctx context.Context, alg Algorithm, t0, t1 int)
	// RunEnd closes the run with the error RunContext returns, after
	// cancellation is promoted to ctx.Err() and a panic converted.
	RunEnd(err error)

	// Cut opens the span of one cut: arg is the number of dimensions cut
	// (CutHyper, into fanout subzoids), the dimension cut (CutSpace,
	// CutCircle) or the height of the zoid (CutTime). It returns the token
	// End takes back.
	Cut(kind CutKind, arg, fanout int) int
	// Base opens the span of one base case about to run on the interior
	// clone or the boundary one: a zoid of vol points over home times
	// [t0, t1), dimension 0 starting as [lo0, hi0) — what sinks record of
	// it, by value so the walker's zoids stay on its stack. It returns the
	// token End takes back.
	Base(t0, t1, lo0, hi0 int, interior bool, vol int64) int
	// End closes the span whose token Cut or Base returned, unless the
	// token is negative: that one had nothing to close. A panic skips End;
	// Release and RunEnd close whatever a panic left open.
	End(span int)

	// Spawned reports a subzoid handed to a fresh goroutine at depth.
	Spawned(depth int)
	// Inlined reports n subzoids run on the goroutine that cut them out.
	Inlined(n int)
	// Task is called on the spawning goroutine, just after Spawned, and
	// returns the probe the spawned goroutine reports through; Release,
	// deferred on that goroutine, returns it even when the subwalk panics.
	Task() Probe
	Release()

	// Cancelled reports the run's cancellation latching. It is called on a
	// watcher goroutine.
	Cancelled()
	// Panicked reports a panic in the base case of z or, with z nil, one on
	// the run's goroutine outside any base case. A panic first caught at a
	// scheduler sync point is not reported here.
	Panicked(z *zoid.Zoid)
}

// CutKind classifies a cut reported to a Probe.
type CutKind int

const (
	CutHyper  CutKind = iota // TRAP's hyperspace cut
	CutSpace                 // STRAP's trisection of one dimension
	CutCircle                // STRAP's circle cut of a whole periodic dimension
	CutTime                  // a cut of the time dimension
)
