// Package resilience is the supervision layer over the hardened execution
// primitives of PR 2: it turns one long stencil run into a sequence of
// checkpointed time segments, each executed under a per-segment watchdog
// deadline and retried — after restoring the segment's checkpoint — under a
// jittered exponential-backoff policy with a bounded attempt budget. A
// fault at step 9,900 of 10,000 then costs one segment, not the run.
//
// Repeated failures of the same segment walk a degradation ladder of
// execution engines, by default
//
//	TRAP (hyperspace cuts)  →  STRAP (serial space cuts)  →  LOOPS
//	(time-serial checked sweeps)
//
// so a bug in the recursive decomposition degrades service instead of
// denying it: the LOOPS rung never decomposes and never spawns. An optional
// shadow-verification mode re-executes a sampled sub-box of each completed
// segment with the reference executor and compares the results within a
// tolerance, catching silent corruption that panics never surface; a
// mismatch is treated exactly like a segment failure (restore, back off,
// retry, degrade).
//
// The supervisor is generic: it drives a Driver of closures (run a segment
// with a given engine, checkpoint, restore, verify) supplied by
// pochoir.Stencil.RunSupervised. Each decision becomes one typed
// telemetry.SupEvent, stamped, appended to the Report and handed to
// Policy.OnEvent, and that is all the supervisor does with it: the package
// knows no sink, and the caller composes metrics, the flight record and
// trace spans behind the hook. Time is abstracted behind Clock so the
// backoff and watchdog logic is testable with a fake clock and zero real
// sleeps.
package resilience

import (
	"context"
	"math/rand"
	"time"

	"pochoir/internal/core"
	"pochoir/internal/telemetry"
)

// Engine names a rung of the degradation ladder. The supervisor itself
// attaches no semantics to the values beyond their order in Policy.Ladder;
// the Driver maps them onto real execution engines. Each rung is named after
// the core engine it shares its value with.
type Engine int

const (
	// EngineFull is the configured recursive engine (TRAP with hyperspace
	// cuts by default).
	EngineFull = Engine(core.TRAP)
	// EngineSTRAP is the serial-space-cut decomposition — still recursive,
	// but a different cut strategy, so it sidesteps hyperspace-cut bugs.
	EngineSTRAP = Engine(core.STRAP)
	// EngineLoops is the time-serial checked loop engine of last resort:
	// no decomposition, no parallelism, every access checked.
	EngineLoops = Engine(core.LOOPS)
)

func (e Engine) String() string {
	if e >= 0 && int(e) < core.NumAlgorithms {
		return core.Algorithm(e).String()
	}
	return "Engine(?)"
}

// Clock abstracts time for the supervisor so the backoff and watchdog
// logic runs deterministically under test with no real sleeps.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case and nil otherwise.
	Sleep(ctx context.Context, d time.Duration) error
	// WithTimeout derives the per-attempt watchdog context.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// SystemClock is the real-time Clock used when Policy.Clock is nil.
var SystemClock Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (systemClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// VerifyPolicy configures shadow verification of completed segments.
type VerifyPolicy struct {
	// Enabled turns shadow verification on.
	Enabled bool
	// Every verifies one segment in Every (1 = every segment, the
	// default).
	Every int
	// BoxSide is the per-dimension side of the sampled sub-box compared
	// at the segment's final state; the re-executed dependency cone widens
	// from it by the stencil's reach per time step. Default 4.
	BoxSide int
	// Tolerance is the comparison tolerance, applied both absolutely and
	// relative to the larger magnitude. Zero — the default — demands
	// bit-identical values.
	Tolerance float64
}

// Policy configures the supervisor. The zero value is usable: one segment
// covering the whole run, 3 attempts with ~10ms–1s jittered exponential
// backoff, degradation after every 2 failures, no watchdog, no shadow
// verification, real clock.
type Policy struct {
	// SegmentSteps is the number of time steps per segment; <= 0 runs the
	// whole computation as a single segment.
	SegmentSteps int
	// MaxAttempts bounds the attempts per segment (first try included);
	// <= 0 means 3.
	MaxAttempts int
	// DegradeAfter steps down the engine ladder after every DegradeAfter
	// consecutive failures of the current segment; <= 0 means 2.
	// Degradation is sticky for the remainder of the run: an engine that
	// broke once is not trusted with later segments.
	DegradeAfter int
	// SegmentTimeout is the per-attempt watchdog deadline; 0 disables it.
	SegmentTimeout time.Duration
	// BaseDelay is the backoff before the first retry; <= 0 means 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (before jitter); <= 0 means 1s.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor; values <= 1 mean 2.
	Multiplier float64
	// Jitter spreads each delay uniformly over [d*(1-J), d*(1+J)]. Zero
	// selects the default 0.2; negative disables jitter.
	Jitter float64
	// NoCheckpoint skips the inter-segment checkpoints — the minimal-
	// overhead happy path. Failures are then unrecoverable: the first
	// failed attempt ends the run (the stencil stays poisoned).
	NoCheckpoint bool
	// SpillDir, when non-empty, makes every segment checkpoint durable:
	// the driver persists it to the crash-safe spill journal in this
	// directory (versioned wire format, atomic temp-file+rename writes,
	// newest SpillKeep entries retained), so a kill -9, OOM, or host
	// reboot costs at most one segment — a fresh process resumes from the
	// newest good entry (pochoir.Stencil.ResumeSupervised). Implies
	// checkpointing: SpillDir overrides NoCheckpoint. A failed spill never
	// fails the run; it is reported (SupSpill event with Err, spill-error
	// counter) and the run continues with durability degraded.
	SpillDir string
	// SpillKeep bounds the journal's retained entries; <= 0 means 3.
	SpillKeep int
	// Ladder overrides the degradation ladder; empty means
	// [EngineFull, EngineSTRAP, EngineLoops].
	Ladder []Engine
	// Verify configures shadow verification of completed segments.
	Verify VerifyPolicy
	// Clock overrides the time source (tests); nil means SystemClock.
	Clock Clock
	// Rand overrides the jitter source with a func returning [0,1);
	// nil means math/rand.
	Rand func() float64
	// OnEvent, when non-nil, receives every supervisor decision
	// synchronously from the supervising goroutine, after its report
	// timestamp is stamped. It is the supervisor's only observer: pochoir
	// hangs the flight record, the live metrics and the causal tracer's
	// spans off it (before any hook of the caller's), and the Report keeps
	// the same events. It must not block.
	OnEvent func(telemetry.SupEvent)
}

// WithDefaults returns p with every unset knob replaced by its default.
// It is idempotent (Supervise applies it internally; callers that need the
// effective values — e.g. to share them with their own closures — may apply
// it first). A negative Jitter stays negative: that is the "disabled"
// encoding, distinguishable from the unset zero.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.DegradeAfter <= 0 {
		p.DegradeAfter = 2
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	switch {
	case p.Jitter == 0:
		p.Jitter = 0.2
	case p.Jitter > 1:
		p.Jitter = 1
	}
	if len(p.Ladder) == 0 {
		p.Ladder = []Engine{EngineFull, EngineSTRAP, EngineLoops}
	}
	if p.Clock == nil {
		p.Clock = SystemClock
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	if p.Verify.Every <= 0 {
		p.Verify.Every = 1
	}
	if p.Verify.BoxSide <= 0 {
		p.Verify.BoxSide = 4
	}
	if p.Verify.Tolerance < 0 {
		p.Verify.Tolerance = 0
	}
	return p
}
