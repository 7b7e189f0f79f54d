// Package pochoir is a Go implementation of the Pochoir stencil compiler
// and runtime system (Tang, Chowdhury, Kuszmaul, Luk, Leiserson,
// "The Pochoir Stencil Compiler", SPAA 2011).
//
// A stencil computation repeatedly updates every point of a d-dimensional
// grid as a function of itself and its near neighbors. Pochoir executes such
// computations with TRAP, a parallel cache-oblivious algorithm based on
// trapezoidal decompositions extended with hyperspace cuts, which yields
// asymptotically more parallelism than earlier decompositions at the same
// cache complexity.
//
// The package mirrors the paper's two-phase methodology:
//
//   - Phase 1 ("template library"): declare a Shape, allocate Arrays,
//     register a Boundary function, write the kernel as an ordinary Go
//     function, and call Run. The kernel executes through checked
//     accessors; RunChecked additionally enforces the Pochoir Guarantee
//     (every access must lie within the declared shape).
//
//   - Phase 2 ("compiled"): obtain specialized base-case kernels — either
//     hand-written or emitted by the stencil compiler in internal/compiler
//     (driver: cmd/pochoirgen) — and call RunSpecialized. The engine,
//     decomposition, and scheduling are identical; only the base case is
//     faster, exactly as in the paper.
//
// A minimal 2D heat equation (the paper's Fig. 6 program):
//
//	sh := pochoir.MustShape(2, [][]int{{1, 0, 0}, {0, 0, 0},
//	        {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1}})
//	heat := pochoir.New[float64](sh)
//	u := pochoir.MustArray[float64](sh.Depth(), X, Y)
//	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
//	heat.RegisterArray(u)
//	kern := pochoir.K2(func(t, x, y int) {
//	        u.Set(t+1, u.Get(t, x, y)+
//	                cx*(u.Get(t, x+1, y)-2*u.Get(t, x, y)+u.Get(t, x-1, y))+
//	                cy*(u.Get(t, x, y+1)-2*u.Get(t, x, y)+u.Get(t, x, y-1)), x, y)
//	})
//	if err := heat.Run(T, kern); err != nil { ... }
//	// results are read from u at time T+sh.Depth()-1
package pochoir

import (
	"context"
	"errors"
	"fmt"

	"pochoir/internal/core"
	"pochoir/internal/grid"
	"pochoir/internal/metrics"
	"pochoir/internal/sched"
	"pochoir/internal/shape"
	"pochoir/internal/telemetry"
	"pochoir/internal/zoid"
)

// ErrPoisoned is returned by Run (and variants) after a previous run failed
// or was cancelled: the registered arrays are partially updated, so running
// further steps would compute on inconsistent state. Reset restarts from
// scratch (after the caller re-initializes the arrays); Restore rewinds to
// a Checkpoint and resumes from there.
var ErrPoisoned = errors.New("pochoir: stencil poisoned by a failed or cancelled run; Reset or Restore before running again")

// KernelPanicError is returned by Run (and variants) when a user kernel
// panics mid-run: the panic value, the panicking goroutine's stack, and the
// space-time zoid whose base case was executing. The engine converts the
// panic into this error instead of crashing the process — sibling tasks
// drain cleanly at their fork-join sync points first — and the stencil is
// left poisoned (see ErrPoisoned).
type KernelPanicError = core.KernelPanicError

// EnginePanicError is returned by Run (and variants) for a panic recovered
// outside a base-case kernel (including fault-injected engine panics): the
// panic value and the panicking goroutine's stack.
type EnginePanicError = sched.PanicError

// MaxDims is the maximum number of spatial dimensions supported.
const MaxDims = zoid.MaxDims

// Zoid is the space-time hypertrapezoid handed to base-case kernels: its
// spatial bounds at time t are Lo[i]+DLo[i]*(t-T0) <= x < Hi[i]+DHi[i]*(t-T0).
// Specialized (Phase-2) base kernels receive zoids and must walk their time
// steps in order, advancing the bounds by the slopes after each step.
type Zoid = zoid.Zoid

// BaseFunc executes the base case of the recursion over one zoid.
type BaseFunc = core.BaseFunc

// Shape describes a stencil's memory footprint (Pochoir_Shape_dimD).
type Shape = shape.Shape

// Array is a Pochoir array (Pochoir_Array_dimD): a d-dimensional spatial
// grid with a circular temporal buffer.
type Array[T any] = grid.Array[T]

// Boundary supplies values for off-domain accesses (Pochoir_Boundary_dimD).
type Boundary[T any] = grid.Boundary[T]

// Recorder is the execution-telemetry recorder: pass one via
// Options.Telemetry to capture every decomposition decision of a run —
// cut kinds, hyperspace-cut fanout and dependency levels, base-case
// volumes and clone dispatch, spawn decisions, and per-worker busy time.
// Export with Recorder.WriteChromeTrace (a chrome://tracing / Perfetto
// loadable span tree, one track per worker) or aggregate with
// Recorder.Snapshot; Stencil.LastRunStats summarizes the most recent Run.
type Recorder = telemetry.Recorder

// RunStats is the aggregate telemetry of a run; see Recorder.
type RunStats = telemetry.Stats

// NewRecorder creates an empty telemetry recorder.
func NewRecorder() *Recorder { return telemetry.New() }

// NewShape validates and builds a stencil shape from its cells, each cell a
// time offset followed by ndims spatial offsets. The first cell is the home
// cell (the point written).
func NewShape(ndims int, cells [][]int) (*Shape, error) { return shape.New(ndims, cells) }

// MustShape is NewShape, panicking on error.
func MustShape(ndims int, cells [][]int) *Shape { return shape.MustNew(ndims, cells) }

// NewArray allocates a Pochoir array with depth+1 time slots and the given
// spatial sizes (slowest-varying dimension first, unit-stride last).
func NewArray[T any](depth int, sizes ...int) (*Array[T], error) {
	return grid.NewArray[T](depth, sizes...)
}

// MustArray is NewArray, panicking on error.
func MustArray[T any](depth int, sizes ...int) *Array[T] {
	return grid.MustNewArray[T](depth, sizes...)
}

// Stencil holds the static information about a stencil computation
// (Pochoir_dimD): the shape, the registered arrays, and execution options.
type Stencil[T any] struct {
	shape  *Shape
	arrays []*Array[T]
	sizes  []int

	opts      Options
	stepsRun  int
	lastStats *RunStats
	// compiled holds the base-case clones attached with AttachBaseKernels;
	// the zero value means none.
	compiled BaseKernels
	// metSet is the walker instrument set resolved against metReg; both
	// are managed by runMetrics (see monitor.go). activeProg, when
	// non-nil, is a run-spanning progress estimator (set by RunSupervised
	// around its segments) that per-segment runs feed instead of starting
	// their own.
	metReg     *MetricsRegistry
	metSet     *metrics.RunMetrics
	activeProg *metrics.Progress
	// inSupervise suppresses per-attempt post-mortem bundles inside
	// RunSupervised, which bundles once on the terminal error instead.
	inSupervise bool
	// poisoned latches after a failed or cancelled run: the arrays hold a
	// partially updated state, so further runs are refused with
	// ErrPoisoned until Reset or Restore re-establishes consistency.
	poisoned bool
}

// Options control how the engine decomposes and schedules the computation.
// The zero value requests the paper's defaults: the TRAP algorithm with
// hyperspace cuts, parallel execution, and the §4 coarsening heuristic.
type Options struct {
	// Algorithm selects TRAP (default), STRAP, or the LOOPS sweep, which
	// runs every time step as SpaceCutoff[0]-wide chunks along dimension 0.
	Algorithm core.Algorithm
	// Serial disables parallel execution (Pochoir on 1 core).
	Serial bool
	// TimeCutoff and SpaceCutoff override base-case coarsening. A zero
	// TimeCutoff and a nil SpaceCutoff select the paper's heuristic (§4,
	// DefaultCoarsening): width 1000 with 100 time steps for 1D, 100x100
	// with 5 time steps for 2D, and 3x...x3 with 3 time steps for 3D and
	// above, never cutting the unit-stride dimension. A zero SpaceCutoff
	// entry leaves that dimension uncoarsened: cut as far as the slopes allow.
	// Base-case clones that declare BaseKernels.WholeRows extend the
	// never-cut rule to 2D under a nil SpaceCutoff; an explicit
	// SpaceCutoff always wins.
	TimeCutoff  int
	SpaceCutoff []int
	// Grain is the minimum approximate subzoid volume processed on a
	// fresh goroutine; zero selects core.DefaultGrain.
	Grain int64
	// NoUnifiedPeriodic disables the §4 virtual-coordinate circle cuts
	// and decomposes the grid as a plain box. This is only valid for
	// stencils with no wraparound dependencies (nonperiodic boundary
	// functions); it exists for the ablation experiments.
	NoUnifiedPeriodic bool
	// Telemetry, when non-nil, records the run's decomposition decisions
	// into the recorder (see Recorder).
	Telemetry *Recorder
	// Metrics, when non-nil, arms the live metrics registry: zoid, cut,
	// and base-case counters, point throughput, worker activity, and a
	// run-progress estimator, all scrapeable mid-run through ServeMonitor.
	Metrics *MetricsRegistry
	// ProgressLabel overrides the label under which this stencil's runs
	// appear in the registry's /progressz snapshot (default "run", or
	// "supervised" for RunSupervised). A service executing many stencils
	// against one shared registry labels each run with its job id so a
	// per-job progress view can find it.
	ProgressLabel string
	// NoFlightRecorder disables black-box recording and automatic
	// post-mortem bundles for this stencil only. Otherwise every run appends
	// its recent events to the process-wide flight recorder, which needs no
	// arming (POCHOIR_FLIGHT=off disables it, POCHOIR_FLIGHT_RING resizes
	// it), and any terminal failure freezes the rings and writes a
	// pochoir-postmortem/v1 bundle (see PostmortemBundle).
	NoFlightRecorder bool
	// Trace, when non-nil, is the causal trace this stencil's supervised
	// runs record into: RunSupervised opens a "supervised-run" span and
	// grows a child span per segment attempt (with retry, degradation,
	// spill, and verify causes) as the supervisor decides. The serving
	// gateway threads each job's ActiveTrace through here; library users
	// may pass their own (see NewTracer). Nil — the default — keeps runs
	// untraced at the cost of one pointer check.
	Trace *ActiveTrace
	// TraceParent, when Trace is set, parents the supervised-run span
	// under an enclosing span (the gateway's per-job root); zero attaches
	// to the trace's root span.
	TraceParent TraceSpanID
}

// New creates a stencil object for the given shape.
func New[T any](sh *Shape) *Stencil[T] {
	return &Stencil[T]{shape: sh}
}

// NewWithOptions creates a stencil object with explicit execution options.
func NewWithOptions[T any](sh *Shape, opts Options) *Stencil[T] {
	return &Stencil[T]{shape: sh, opts: opts}
}

// SetOptions replaces the execution options.
func (s *Stencil[T]) SetOptions(opts Options) { s.opts = opts }

// Shape returns the stencil's shape.
func (s *Stencil[T]) Shape() *Shape { return s.shape }

// RegisterArray informs the stencil that the array participates in its
// computation (§2, Register_Array). All registered arrays must share the
// stencil's dimensionality, the same spatial extents, and a temporal depth
// matching the shape's; registering the same array twice is rejected.
func (s *Stencil[T]) RegisterArray(a *Array[T]) error {
	if a.NDims() != s.shape.NDims {
		return fmt.Errorf("pochoir: array has %d dimensions, stencil shape has %d", a.NDims(), s.shape.NDims)
	}
	if got, want := a.Slots()-1, s.shape.Depth(); got != want {
		return fmt.Errorf("pochoir: array has temporal depth %d, stencil shape has depth %d", got, want)
	}
	for _, prev := range s.arrays {
		if prev == a {
			return fmt.Errorf("pochoir: array already registered")
		}
	}
	if s.sizes == nil {
		s.sizes = a.Sizes()
	} else {
		for i, n := range a.Sizes() {
			if n != s.sizes[i] {
				return fmt.Errorf("pochoir: array size %v differs from previously registered %v", a.Sizes(), s.sizes)
			}
		}
	}
	s.arrays = append(s.arrays, a)
	return nil
}

// MustRegisterArray is RegisterArray, panicking on error.
func (s *Stencil[T]) MustRegisterArray(a *Array[T]) {
	if err := s.RegisterArray(a); err != nil {
		panic(err)
	}
}

// Arrays returns the registered arrays.
func (s *Stencil[T]) Arrays() []*Array[T] { return s.arrays }

// Sizes returns the spatial extents of the computing domain.
func (s *Stencil[T]) Sizes() []int { return append([]int(nil), s.sizes...) }

// newWalker assembles the decomposition engine for this stencil, after
// validating the execution options; wholeRows is the WholeRows declaration
// of the clones the walker will run.
func (s *Stencil[T]) newWalker(wholeRows bool) (*core.Walker, error) {
	if len(s.arrays) == 0 {
		return nil, fmt.Errorf("pochoir: no arrays registered")
	}
	d := s.shape.NDims
	if s.opts.TimeCutoff < 0 {
		return nil, fmt.Errorf("pochoir: negative TimeCutoff %d", s.opts.TimeCutoff)
	}
	if s.opts.Grain < 0 {
		return nil, fmt.Errorf("pochoir: negative Grain %d", s.opts.Grain)
	}
	if s.opts.SpaceCutoff != nil && len(s.opts.SpaceCutoff) != d {
		return nil, fmt.Errorf("pochoir: SpaceCutoff has %d entries, stencil has %d dimensions",
			len(s.opts.SpaceCutoff), d)
	}
	for i, c := range s.opts.SpaceCutoff {
		if c < 0 {
			return nil, fmt.Errorf("pochoir: negative SpaceCutoff[%d] = %d", i, c)
		}
	}
	w := &core.Walker{
		NDims:     d,
		Serial:    s.opts.Serial,
		Algorithm: s.opts.Algorithm,
		Grain:     s.opts.Grain,
	}
	for i := 0; i < d; i++ {
		w.Slopes[i] = s.shape.Slope(i)
		w.Reach[i] = s.shape.Reach(i)
		w.Sizes[i] = s.sizes[i]
		// The unified scheme (§4) treats every dimension as periodic;
		// nonperiodic behaviour comes from the boundary function.
		w.Periodic[i] = !s.opts.NoUnifiedPeriodic
	}
	timeCut, spaceCut := s.coarsening(wholeRows)
	w.TimeCutoff = timeCut
	copy(w.SpaceCutoff[:], spaceCut)
	return w, nil
}

// coarsening returns the effective (time, per-dim space) base-case cutoffs:
// the user's overrides when set, otherwise the paper's §4 heuristic, with
// the unit-stride dimension never cut for clones that run whole rows.
func (s *Stencil[T]) coarsening(wholeRows bool) (timeCut int, spaceCut []int) {
	d := s.shape.NDims
	defTime, defSpace := DefaultCoarsening(d)
	spaceCut = defSpace
	switch {
	case s.opts.SpaceCutoff != nil:
		copy(spaceCut, s.opts.SpaceCutoff)
	case wholeRows && d > 1:
		spaceCut[d-1] = neverCut
	}
	timeCut = s.opts.TimeCutoff
	if timeCut == 0 {
		timeCut = defTime
	}
	return timeCut, spaceCut
}

// neverCut is a space cutoff no dimension reaches: the walker never cuts a
// dimension that carries it.
const neverCut = 1 << 30

// DefaultCoarsening returns the paper's §4 base-case coarsening heuristic
// for a d-dimensional stencil: the time cutoff and per-dimension space
// cutoffs a zero-valued Options selects (for clones that do not declare
// BaseKernels.WholeRows). Exported so analytical replays of
// the decomposition (the work/span analyzer, the cache-trace simulator, the
// benchmark lab) can build walker geometries identical to the engine's.
func DefaultCoarsening(d int) (timeCut int, spaceCut []int) {
	spaceCut = make([]int, d)
	switch {
	case d == 1:
		spaceCut[0] = 1000
	case d == 2:
		spaceCut[0], spaceCut[1] = 100, 100
	default:
		// Never cut the unit-stride dimension; keep the rest small
		// hypercubes ("1000x3x3 with 3 time steps").
		for i := 0; i < d-1; i++ {
			spaceCut[i] = 3
		}
		spaceCut[d-1] = neverCut
	}
	switch {
	case d == 1:
		timeCut = 100
	case d == 2:
		timeCut = 5
	default:
		timeCut = 3
	}
	return timeCut, spaceCut
}

// Run executes the stencil computation for steps time steps using the
// point kernel kern — the Phase-1 "template library" path: correct for any
// Pochoir-compliant kernel, with accesses routed through the checked Array
// API. Results are read from the registered arrays at time steps
// steps .. steps+depth-1 (the last computed states).
//
// Run may be called again to resume the computation for additional steps
// (§2, name.Run).
func (s *Stencil[T]) Run(steps int, kern Kernel) error {
	return s.RunContext(context.Background(), steps, kern)
}

// RunContext is Run under a context: the walker checks cancellation
// cooperatively once per zoid (never inside a base case, so the fast path
// stays one atomic load amortized over a whole zoid) and returns ctx.Err()
// promptly — within about one base-case duration — on cancel or deadline.
// A cancelled run leaves the arrays partially updated and the stencil
// poisoned; see ErrPoisoned.
func (s *Stencil[T]) RunContext(ctx context.Context, steps int, kern Kernel) error {
	w, err := s.newWalker(false)
	if err != nil {
		return err
	}
	exec := s.pointExecutor(kern)
	w.Boundary = exec
	// The generic point executor always reduces coordinates and goes
	// through checked accessors, so it is safe to use for interior zoids
	// too; a specialized interior clone is what Phase 2 adds.
	w.Interior = exec
	return s.runWalker(ctx, w, steps)
}

// RunChecked is Run with the Pochoir Guarantee enforced: every access the
// kernel makes is verified against the declared shape, and the first
// violation is returned as a *grid.ShapeError. This is the Phase-1
// compliance check; it is substantially slower and intended for debugging.
func (s *Stencil[T]) RunChecked(steps int, kern Kernel) error {
	return s.RunCheckedContext(context.Background(), steps, kern)
}

// RunCheckedContext is RunChecked under a context; see RunContext.
func (s *Stencil[T]) RunCheckedContext(ctx context.Context, steps int, kern Kernel) error {
	for _, a := range s.arrays {
		a.EnableShapeCheck(s.shape)
	}
	defer func() {
		for _, a := range s.arrays {
			a.DisableShapeCheck()
		}
	}()
	w, err := s.newWalker(false)
	if err != nil {
		return err
	}
	// Shape checking mutates per-array state (the home point), so force
	// serial execution.
	w.Serial = true
	exec := s.checkedPointExecutor(kern)
	w.Boundary = exec
	w.Interior = exec
	if err := s.runWalker(ctx, w, steps); err != nil {
		return err
	}
	for _, a := range s.arrays {
		if err := a.CheckErr(); err != nil {
			return err
		}
	}
	return nil
}

// BaseKernels carries the specialized base-case clones of a compiled
// stencil: the fast interior clone and the checked boundary clone
// (§4, code cloning). Either may be produced by hand or by the Phase-2
// stencil compiler. A nil Interior routes every zoid through the boundary
// clone (useful for the paper's modular-indexing ablation).
type BaseKernels struct {
	Interior BaseFunc
	Boundary BaseFunc
	// WholeRows declares that Boundary runs a row reaching the domain edge
	// at near-interior speed, so base cases should sweep whole rows: under
	// a nil Options.SpaceCutoff the walker then never cuts the unit-stride
	// dimension, in 2D as the §4 heuristic already does in 3D and above.
	// The compiler's row-program clones set it.
	WholeRows bool
}

// GenericBase wraps the point kernel in the generic checked base-case
// executor: virtual coordinates are reduced modulo the grid extents and all
// accesses go through the boundary-aware Array API. It is the natural
// boundary clone to pair with a hand- or compiler-specialized interior
// clone in RunSpecialized.
func (s *Stencil[T]) GenericBase(kern Kernel) BaseFunc {
	return s.pointExecutor(kern)
}

// AttachBaseKernels makes the stencil carry compiled base-case clones of its
// point kernel: from then on the segments of RunSupervised and
// ResumeSupervised execute b, on every rung of the degradation ladder, in
// place of the generic executor over the kernel they are handed. That kernel
// must be the clones' point form — it remains what shadow verification
// re-executes, which makes VerifyPolicy a live cross-check of the clones
// against Phase 1. Run and RunChecked are unaffected. b.Boundary is required.
func (s *Stencil[T]) AttachBaseKernels(b BaseKernels) { s.compiled = b }

// RunSpecialized executes the stencil for steps time steps using compiled
// base-case kernels — the Phase-2 path.
func (s *Stencil[T]) RunSpecialized(steps int, b BaseKernels) error {
	return s.RunSpecializedContext(context.Background(), steps, b)
}

// RunSpecializedContext is RunSpecialized under a context; see RunContext.
func (s *Stencil[T]) RunSpecializedContext(ctx context.Context, steps int, b BaseKernels) error {
	if b.Boundary == nil {
		return fmt.Errorf("pochoir: RunSpecialized requires a boundary clone")
	}
	w, err := s.newWalker(b.WholeRows)
	if err != nil {
		return err
	}
	w.Interior = b.Interior
	w.Boundary = b.Boundary
	return s.runWalker(ctx, w, steps)
}

// cursor tracks how many steps have been run so resumed Runs continue
// where the previous call stopped. A run that fails — kernel panic,
// engine panic, cancellation, deadline — poisons the stencil: the arrays
// are partially updated, so further runs are refused until Reset or
// Restore. Telemetry stays consistent either way: a failed run still
// closes its spans and publishes its (partial) stats to LastRunStats.
func (s *Stencil[T]) runWalker(ctx context.Context, w *core.Walker, steps int) error {
	if s.poisoned {
		return ErrPoisoned
	}
	if steps < 0 {
		return fmt.Errorf("pochoir: negative step count %d", steps)
	}
	// A context that is dead on arrival has not touched the arrays, so it
	// does not poison.
	if err := ctx.Err(); err != nil {
		return err
	}
	depth := s.shape.Depth()
	t0 := depth + s.stepsRun
	t1 := t0 + steps

	// Compose the run's probe from the sinks the options arm. A supervised
	// run spans many walker invocations, so RunSupervised pre-installs a
	// run-wide progress estimator in activeProg; a plain Run owns its own,
	// finished (success raises done to the predicted total) when the walk
	// returns.
	met := s.runMetrics()
	prog := s.activeProg
	ownProg := met != nil && prog == nil
	if ownProg {
		prog = s.opts.Metrics.StartProgress(s.progressLabel("run"), int64(steps)*s.gridVolume())
	}
	w.Probe = &runProbe{tel: s.opts.Telemetry, met: met, prog: prog, fr: s.flightRecorder()}

	var pre RunStats
	if s.opts.Telemetry != nil {
		pre = s.opts.Telemetry.Snapshot()
	}
	err := w.RunContext(ctx, t0, t1)
	if s.opts.Telemetry != nil {
		st := s.opts.Telemetry.Snapshot().Delta(pre)
		s.lastStats = &st
		if met != nil {
			// Bridge the aggregate run stats — only computable from the
			// quiescent telemetry shards — into scrapeable gauges at the
			// run/segment boundary.
			met.LastParallelism.Set(st.AchievedParallelism())
			met.LastWallSeconds.Set(st.Wall.Seconds())
			met.LastWorkers.Set(float64(st.Workers))
		}
	}
	if ownProg {
		prog.Finish(err == nil)
	}
	if err != nil {
		s.poisoned = true
		// Terminal for an unsupervised run: freeze the black box and write
		// the post-mortem bundle. Under RunSupervised a failed segment is
		// not terminal — the supervisor retries — so bundling waits for the
		// supervisor's own give-up.
		if !s.inSupervise {
			s.writePostmortem(err, nil)
		}
		return err
	}
	s.stepsRun += steps
	return nil
}

// LastRunStats returns the telemetry summary of the most recent successful
// Run/RunChecked/RunSpecialized call — only that call's activity, even when
// the recorder is shared across resumed runs or stencils. It returns nil
// when Options.Telemetry was not set.
func (s *Stencil[T]) LastRunStats() *RunStats { return s.lastStats }

// StepsRun returns the total number of time steps executed so far.
func (s *Stencil[T]) StepsRun() int { return s.stepsRun }

// Reset clears the resume cursor so the next Run starts from time 0 again
// (after the caller re-initializes the arrays). It also clears the
// poisoned state left by a failed or cancelled run and drops the previous
// run's telemetry summary.
func (s *Stencil[T]) Reset() {
	s.stepsRun = 0
	s.lastStats = nil
	s.poisoned = false
}

// Poisoned reports whether a failed or cancelled run has left the stencil
// refusing further runs (see ErrPoisoned).
func (s *Stencil[T]) Poisoned() bool { return s.poisoned }

// ArrayCheckpoint is a deep copy of one array's temporal buffer; see
// Stencil.Checkpoint and Array.Checkpoint.
type ArrayCheckpoint[T any] = grid.ArrayCheckpoint[T]

// Checkpoint captures the live state of the computation — a deep copy of
// every registered array's time slots plus the resume cursor — so a later
// failure can be rolled back with Restore instead of restarting from
// scratch. Checkpointing a poisoned stencil is refused: its arrays hold a
// torn state not worth preserving.
type Checkpoint[T any] struct {
	stepsRun int
	arrays   []*ArrayCheckpoint[T]
}

// StepsRun returns the resume cursor the checkpoint was taken at.
func (cp *Checkpoint[T]) StepsRun() int { return cp.stepsRun }

// Checkpoint deep-copies the stencil's live state; see the Checkpoint type.
func (s *Stencil[T]) Checkpoint() (*Checkpoint[T], error) {
	if s.poisoned {
		return nil, ErrPoisoned
	}
	cp := &Checkpoint[T]{stepsRun: s.stepsRun}
	for _, a := range s.arrays {
		cp.arrays = append(cp.arrays, a.Checkpoint())
	}
	return cp, nil
}

// Restore rewinds the stencil to a checkpoint: every registered array's
// temporal buffer is overwritten with the checkpoint's copy, the resume
// cursor rewinds to the checkpointed step count, and the poisoned state is
// cleared — the retry-after-failure path. The stencil must have the same
// registered arrays (count and geometry) as when the checkpoint was taken.
func (s *Stencil[T]) Restore(cp *Checkpoint[T]) error {
	if cp == nil {
		return fmt.Errorf("pochoir: Restore of a nil checkpoint")
	}
	if len(cp.arrays) != len(s.arrays) {
		return fmt.Errorf("pochoir: checkpoint holds %d arrays, stencil has %d registered",
			len(cp.arrays), len(s.arrays))
	}
	// Validate geometry for every array before mutating any, so a failed
	// Restore never leaves a half-restored state.
	for i, a := range s.arrays {
		got, want := a.Sizes(), cp.arrays[i].Sizes()
		if len(got) != len(want) {
			return fmt.Errorf("pochoir: checkpoint array %d has %d dimensions, registered array has %d",
				i, len(want), len(got))
		}
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("pochoir: checkpoint array %d sizes %v differ from registered %v",
					i, want, got)
			}
		}
		if a.Slots() != cp.arrays[i].Slots() {
			return fmt.Errorf("pochoir: checkpoint array %d has %d time slots, registered array has %d",
				i, cp.arrays[i].Slots(), a.Slots())
		}
	}
	for i, a := range s.arrays {
		if err := a.Restore(cp.arrays[i]); err != nil {
			return err
		}
	}
	s.stepsRun = cp.stepsRun
	s.lastStats = nil
	s.poisoned = false
	return nil
}
