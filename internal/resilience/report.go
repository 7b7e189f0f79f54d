package resilience

import (
	"fmt"
	"time"

	"pochoir/internal/telemetry"
)

// Report summarizes one supervised run: what completed, what it cost in
// attempts and backoff, how far the engine ladder degraded, and the full
// ordered decision log. Returned by Supervise even on failure, alongside
// the error.
type Report struct {
	// Steps is the requested number of time steps; StepsDone is how many
	// completed (a multiple of the segment size unless the run succeeded).
	Steps     int
	StepsDone int
	// Segments holds one entry per segment in execution order, including
	// the failed final segment of an unsuccessful run.
	Segments []SegmentReport
	// Attempts counts segment executions (first tries included); Retries
	// counts only the re-executions after a failure.
	Attempts int
	Retries  int
	// Degradations counts ladder steps taken; FinalEngine is the sticky
	// rung the run ended on.
	Degradations int
	FinalEngine  Engine
	// Checkpoints and Restores count state snapshots taken and rolled
	// back to.
	Checkpoints int
	Restores    int
	// BackoffTotal is the summed backoff delay (as chosen; under a fake
	// clock no real time passes).
	BackoffTotal time.Duration
	// Verified counts shadow verifications that passed; VerifyMismatches
	// counts the ones that failed (each also counts as a segment failure).
	Verified         int
	VerifyMismatches int
	// Spills counts segment checkpoints persisted to the durable journal
	// (Policy.SpillDir); SpillErrors counts persists that failed (the run
	// continues with durability degraded); SpillBytes is the total bytes
	// written.
	Spills      int
	SpillErrors int
	SpillBytes  int64
	// LastSpillPath is the newest durably spilled checkpoint's journal
	// file and LastSpillStep its resume cursor — the "resume from here"
	// pointer the post-mortem bundle carries for a crashed run.
	LastSpillPath string
	LastSpillStep int
	// Events is the ordered supervisor decision log, the same records
	// handed to Policy.OnEvent.
	Events []telemetry.SupEvent
	// Err is the terminal error of an unsuccessful run (also returned by
	// Supervise).
	Err error
}

// SegmentReport describes one segment's execution.
type SegmentReport struct {
	// Index is the segment's position (0-based); it covers time steps
	// [FromStep, FromStep+Steps).
	Index    int
	FromStep int
	Steps    int
	// Attempts is how many times the segment was executed; Engine is the
	// rung that finally ran it (or the last one tried on failure).
	Attempts int
	Engine   Engine
	// Failures holds the error string of every failed attempt in order.
	Failures []string
	// Verified reports a passed shadow verification of this segment;
	// VerifyMismatch reports that at least one attempt failed verification.
	Verified       bool
	VerifyMismatch bool
	// Backoff is the summed backoff delay spent on this segment.
	Backoff time.Duration
}

// VerifyError reports a shadow-verification mismatch: the re-executed
// reference value at a grid point disagreed with the segment's result
// beyond the tolerance.
type VerifyError struct {
	// Segment is the segment index; Step is the absolute time step whose
	// state was compared.
	Segment int
	Step    int
	// Index is the grid point (one coordinate per dimension).
	Index []int
	// Diff is the absolute difference observed.
	Diff float64
	// Detail carries the got/want values formatted by the comparer.
	Detail string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("resilience: shadow verification mismatch in segment %d at step %d, point %v: |diff|=%.6g (%s)",
		e.Segment, e.Step, e.Index, e.Diff, e.Detail)
}
