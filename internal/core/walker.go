// Package core implements the paper's primary contribution: the TRAP
// cache-oblivious parallel stencil algorithm with hyperspace cuts (§3),
// together with the STRAP baseline (Frigo–Strumpen-style serial space cuts)
// used for the Fig. 9/10 comparisons, base-case coarsening (§4), the
// interior/boundary code-clone dispatch (§4), and the unified
// periodic/nonperiodic scheme via virtual coordinates (§4).
//
// The engine is purely geometric: it decomposes space-time into zoids and
// invokes user-supplied base-case functions on them. The stencil-specific
// work — both the generic checked Phase-1 executor and the specialized
// Phase-2 kernels — lives behind the BaseFunc interface, so the same engine
// runs every stencil, every dimensionality, and every boundary regime. It is
// as ignorant of what observes it: a run reports through one Probe, composed
// outside this package.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"sync/atomic"

	"pochoir/internal/faultpoint"
	"pochoir/internal/sched"
	"pochoir/internal/zoid"
)

// KernelPanicError reports a panic recovered from a base-case kernel. The
// walker converts it (and any other panic reaching Run) into an ordinary
// error return: sibling tasks drain at their fork-join sync points
// (see sched.PanicError) and the process never dies. Value is the original
// panic value, Stack the panicking goroutine's stack, and Zoid the space-time
// trapezoid whose base case was executing — enough to reproduce the failing
// kernel application.
type KernelPanicError struct {
	Value any       // the value passed to panic
	Stack []byte    // stack of the panicking goroutine
	Zoid  zoid.Zoid // the base-case zoid being executed
}

func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("core: kernel panic: %v (zoid t=[%d,%d) lo=%v hi=%v)",
		e.Value, e.Zoid.T0, e.Zoid.T1, e.Zoid.Lo[:e.Zoid.N], e.Zoid.Hi[:e.Zoid.N])
}

// Unwrap exposes a panic value that was itself an error to errors.Is/As.
func (e *KernelPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// BaseFunc executes the base case of the recursion over zoid z: it must
// apply the stencil kernel to every space-time point of z, walking time
// steps in order and letting the spatial bounds advance by the zoid's
// slopes after each step (Fig. 2, lines 20–28).
//
// The interior clone receives only zoids whose kernel applications never
// touch an off-domain or wrapped grid point, so it may use unchecked
// accesses; the boundary clone receives everything else and must reduce
// virtual coordinates modulo the grid size and route off-domain accesses
// through the boundary function.
type BaseFunc func(z zoid.Zoid)

// Algorithm selects the decomposition strategy.
type Algorithm int

const (
	// TRAP cuts as many dimensions as possible simultaneously
	// (hyperspace cuts), processing the 3^k subzoids in k+1 parallel
	// steps (Lemma 1).
	TRAP Algorithm = iota
	// STRAP applies parallel space cuts one dimension at a time, as in
	// Frigo and Strumpen's parallel algorithm, incurring 2 parallel
	// steps per cut dimension.
	STRAP
	// LOOPS executes the computation as a time-serial sequence of
	// chunked full-grid sweeps through the base-case clones — no
	// recursive decomposition and no parallelism. It is the engine of
	// last resort on the resilience degradation ladder: a bug in the
	// recursive decomposition cannot reach it, cancellation is honored
	// between chunks, and kernel panics carry zoid attribution exactly as
	// in the recursive engines.
	LOOPS
)

// algorithmNames is the one spelling of the engines' names: every label,
// exposition, JSON field and flag that names an engine maps through String
// and ParseAlgorithm.
var algorithmNames = [...]string{TRAP: "TRAP", STRAP: "STRAP", LOOPS: "LOOPS"}

// NumAlgorithms is the number of engines: Algorithm values run from 0 to
// NumAlgorithms-1.
const NumAlgorithms = len(algorithmNames)

func (a Algorithm) String() string {
	if a >= 0 && int(a) < NumAlgorithms {
		return algorithmNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm returns the engine whose String is name.
func ParseAlgorithm(name string) (Algorithm, bool) {
	for a, n := range algorithmNames {
		if n == name {
			return Algorithm(a), true
		}
	}
	return 0, false
}

// Walker runs a trapezoidal-decomposition stencil computation.
type Walker struct {
	NDims    int
	Slopes   [zoid.MaxDims]int  // stencil slopes sigma_i
	Reach    [zoid.MaxDims]int  // max |spatial offset| per dim (interior test)
	Sizes    [zoid.MaxDims]int  // spatial grid extents
	Periodic [zoid.MaxDims]bool // dims wrapped on a torus

	Interior BaseFunc // fast clone; nil falls back to Boundary
	Boundary BaseFunc // checked clone; required

	// Coarsening (§4). A zero TimeCutoff means 1 (recurse to single time
	// steps); zero SpaceCutoff entries mean uncoarsened space cuts.
	TimeCutoff  int
	SpaceCutoff [zoid.MaxDims]int

	// Grain is the minimum approximate volume (height x product of mean
	// widths) a subzoid must have to be processed on a fresh goroutine;
	// smaller ones run inline on the goroutine that cut them out. Zero
	// means DefaultGrain. Serial disables parallelism entirely.
	Grain  int64
	Serial bool

	Algorithm Algorithm

	// Probe, when non-nil, hears the run's events (see Probe). Nil — an
	// uninstrumented run — costs one pointer test per zoid.
	Probe Probe

	// cancelled is the per-run cooperative cancellation flag, set by a
	// watcher goroutine when the RunContext context fires. It is nil for
	// non-cancellable runs, so the uncancellable fast path pays one
	// pointer comparison per zoid; cancellable runs pay one atomic load
	// per zoid, amortized over the zoid's whole point set — the walker
	// never checks inside a base case.
	cancelled *atomic.Bool
}

// DefaultGrain is the spawn threshold used when Walker.Grain is zero.
// Subproblems smaller than this run serially on the current goroutine;
// at ~10^4 points the per-spawn overhead (~1–2 microseconds for a goroutine
// plus WaitGroup) is well under 1% of the base-case work.
const DefaultGrain = 1 << 14

// Validate checks the configuration for obvious errors.
func (w *Walker) Validate() error {
	if w.NDims < 1 || w.NDims > zoid.MaxDims {
		return fmt.Errorf("core: NDims=%d out of range [1,%d]", w.NDims, zoid.MaxDims)
	}
	if w.Boundary == nil {
		return fmt.Errorf("core: Boundary base function is required")
	}
	for i := 0; i < w.NDims; i++ {
		if w.Sizes[i] <= 0 {
			return fmt.Errorf("core: size of dimension %d is %d", i, w.Sizes[i])
		}
		if w.Slopes[i] < 0 {
			return fmt.Errorf("core: negative slope in dimension %d", i)
		}
		if w.Reach[i] < w.Slopes[i] {
			// Reach defaults to slope when unset; a reach below the
			// slope is impossible for a valid shape.
			w.Reach[i] = w.Slopes[i]
		}
	}
	return nil
}

// Run executes the stencil for home times t in [t0, t1) over the full
// spatial grid, decomposing with the configured algorithm. It is
// RunContext with a background context: uncancellable, but still immune to
// kernel panics.
func (w *Walker) Run(t0, t1 int) error {
	return w.RunContext(context.Background(), t0, t1)
}

// RunContext is Run with cooperative cancellation and panic isolation.
//
// Cancellation: when ctx can be cancelled, a watcher goroutine latches an
// atomic flag on ctx.Done() and the recursion checks it once per zoid —
// at cut granularity, never inside a base case — so a cancelled or
// deadlined run returns ctx.Err() within about one base-case duration
// while the fast path stays one atomic load amortized over a whole zoid.
//
// Panic isolation: a panic in a base-case kernel is captured with its
// stack and zoid coordinates and returned as a *KernelPanicError; panics
// elsewhere in the engine return as *sched.PanicError. In both cases
// in-flight sibling tasks drain at their sync points and no goroutine is
// left running when RunContext returns.
//
// Either way the grid is left partially updated; callers that resume must
// restore a consistent state first (pochoir.Stencil does this with
// run-state poisoning and Checkpoint/Restore).
func (w *Walker) RunContext(ctx context.Context, t0, t1 int) (err error) {
	if err := w.Validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if t1 <= t0 {
		return nil
	}
	z := zoid.Box(t0, t1, w.Sizes[:w.NDims])

	p := w.Probe
	if p != nil {
		// Registered before every other defer so it runs last (LIFO) and
		// sees the final error — after the watcher promoted cancellation
		// and the recover below converted a panic.
		p.RunStart(ctx, w.Algorithm, t0, t1)
		defer func() { p.RunEnd(err) }()
	}

	if done := ctx.Done(); done != nil {
		var flag atomic.Bool
		w.cancelled = &flag
		stop := make(chan struct{})
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-done:
				flag.Store(true)
				if p != nil {
					p.Cancelled()
				}
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			<-watcher
			w.cancelled = nil
			// A cancelled walk returns without its own error; report
			// the context's. A panic error takes precedence: it names
			// the root cause.
			if err == nil && flag.Load() {
				err = ctx.Err()
			}
		}()
	}

	// Registered after the watcher defer, so a panic is converted before
	// the watcher shuts down.
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case *KernelPanicError, *sched.PanicError: // reported where located or caught
			default:
				if p != nil {
					p.Panicked(nil)
				}
			}
			err = PanicToError(r)
		}
	}()

	if w.Algorithm == LOOPS {
		w.runLoops(&z, p)
	} else {
		w.walk(&z, p, 0, true)
	}
	return nil
}

// runLoops is the LOOPS engine: every time step is swept as height-1 zoids
// chunked along dimension 0, each executed through base() — so interior/
// boundary dispatch, panic attribution, instrumentation, and the base-site
// faultpoint behave exactly as in the recursive engines. Chunks of one time
// step only read older time slots, so sweeping them in order is correct;
// cancellation is checked once per chunk.
func (w *Walker) runLoops(z *zoid.Zoid, p Probe) {
	chunk := w.SpaceCutoff[0]
	if chunk < 1 {
		chunk = z.Hi[0] - z.Lo[0]
	}
	step := *z
	for t := z.T0; t < z.T1; t++ {
		for lo := z.Lo[0]; lo < z.Hi[0]; lo += chunk {
			if c := w.cancelled; c != nil && c.Load() {
				return
			}
			step.T0, step.T1 = t, t+1
			step.Lo[0], step.Hi[0] = lo, min(lo+chunk, z.Hi[0])
			w.base(&step, p, 0)
		}
	}
}

// PanicToError converts a panic recovered at the top of a run into the
// structured error the hardened contract promises, unwrapping scheduler
// wrapping so a kernel panic that crossed fork-join sync points still
// surfaces as *KernelPanicError; anything else becomes a *sched.PanicError.
// It is exported so other engines (the LOOPS baseline driver) convert
// identically.
func PanicToError(r any) error {
	switch pe := r.(type) {
	case *KernelPanicError:
		return pe
	case *sched.PanicError:
		if kp, ok := pe.Value.(*KernelPanicError); ok {
			return kp
		}
		return pe
	}
	return &sched.PanicError{Value: r, Stack: debug.Stack()}
}

// CutSet collects into buf the hyperspace-cut candidates for z: every
// dimension along which a parallel space cut (or, for a still-complete
// periodic dimension, a circle cut) is allowed. It is exported so analytical
// replays of the decomposition (internal/cilkview) make exactly the decisions
// the execution engine makes.
func (w *Walker) CutSet(z *zoid.Zoid, buf []zoid.Cut) []zoid.Cut {
	buf = buf[:0]
	for i := 0; i < w.NDims; i++ {
		s := w.Slopes[i]
		if w.Periodic[i] && z.IsFullCircle(i, w.Sizes[i]) {
			if z.CanCircleCut(i, s, w.Sizes[i], w.SpaceCutoff[i]) {
				buf = append(buf, zoid.Cut{Dim: i, Slope: s, Kind: zoid.CutCircle, Size: w.Sizes[i]})
			}
			continue
		}
		if z.CanSpaceCut(i, s, w.SpaceCutoff[i]) {
			buf = append(buf, zoid.Cut{Dim: i, Slope: s, Kind: zoid.CutTrisect})
		}
	}
	return buf
}

// TimeCutoffEffective returns the base-case height threshold in effect.
func (w *Walker) TimeCutoffEffective() int { return max(w.TimeCutoff, 1) }

// approxVolume returns a cheap estimate of the zoid's point count, used only
// for the spawn-grain decision: height times the mean of the two bases along
// every dimension. (The longer base instead over-counts a zoid that is
// minimal in k dimensions 2^k-fold and more — on Heat 4 it passed 5 k-point
// slivers off as 65 k-point tasks.) It saturates at math.MaxInt64: a wrapped
// product would read as a tiny or negative volume and silently flip the
// decision on exactly the zoids most worth spawning.
func (w *Walker) approxVolume(z *zoid.Zoid) int64 {
	v := uint64(max(z.Height(), 0))
	for i := 0; i < w.NDims && v > 0; i++ {
		mean := (z.BottomBase(i) + z.TopBase(i) + 1) / 2
		hi, lo := bits.Mul64(v, uint64(max(mean, 0)))
		if hi != 0 || lo > math.MaxInt64 {
			return math.MaxInt64
		}
		v = lo
	}
	return int64(v)
}

func (w *Walker) grain() int64 {
	if w.Grain > 0 {
		return w.Grain
	}
	return DefaultGrain
}

// walk recursively decomposes and executes z (Fig. 2), which it only reads.
// p is the probe of the current goroutine, nil for an uninstrumented run;
// depth is the decomposition depth (root zoid at 0), consumed by the
// cancellation-latency bound and the fault-injection sites; top says that no
// cut above z has forked — this strand is still the whole walk (see
// forkLevel).
//
// Zoids travel through the recursion by pointer — the struct is 280 bytes —
// and every level keeps what it makes (the two halves of a time cut, the one
// subzoid a space cut enumerates into) in its own frame, so the serial walk
// allocates nothing. Only a base case, whose BaseFunc takes the zoid by
// value, and a spawned subwalk, which must outlive the enumeration, copy.
func (w *Walker) walk(z *zoid.Zoid, p Probe, depth int, top bool) {
	// Cooperative cancellation, checked at cut granularity: once per zoid,
	// never inside a base case. Abandoning the zoid here is safe — the
	// run's results are discarded wholesale on cancellation.
	if c := w.cancelled; c != nil && c.Load() {
		return
	}
	var cutBuf [zoid.MaxDims]zoid.Cut
	if cuts := w.CutSet(z, cutBuf[:0]); len(cuts) > 0 {
		if faultpoint.Armed() {
			faultpoint.Visit(faultpoint.SiteCut, depth)
		}
		if w.Algorithm == STRAP {
			// Cut one dimension only and let the recursion discover the
			// rest one at a time: 2 parallel steps per cut dimension
			// (Fig. 7) against the k+1 of TRAP's hyperspace cut.
			cuts = cuts[:1]
		}
		w.spaceCut(z, cuts, p, depth, top)
		return
	}
	if h := z.Height(); h > w.TimeCutoffEffective() {
		if faultpoint.Armed() {
			faultpoint.Visit(faultpoint.SiteCut, depth)
		}
		lower, upper := z.TimeCut()
		span := -1
		if p != nil {
			span = p.Cut(CutTime, h, 0)
		}
		w.walk(&lower, p, depth+1, top)
		w.walk(&upper, p, depth+1, top)
		if span >= 0 {
			p.End(span)
		}
		return
	}
	w.base(z, p, depth)
}

// spaceCut cuts z along every dimension in cuts at once and processes the
// subzoids dependency level by dependency level (Fig. 2, lines 11–15): all
// of cuts for TRAP's hyperspace cut, a single one for STRAP. The subzoids
// are enumerated one at a time into sub, never materialised.
func (w *Walker) spaceCut(z *zoid.Zoid, cuts []zoid.Cut, p Probe, depth int, top bool) {
	var hc zoid.HyperCut
	hc.Init(z, cuts)
	span := -1
	if p != nil {
		switch {
		case w.Algorithm != STRAP:
			span = p.Cut(CutHyper, hc.NumCut, hc.Total())
		case cuts[0].Kind == zoid.CutCircle:
			span = p.Cut(CutCircle, cuts[0].Dim, 0)
		default:
			span = p.Cut(CutSpace, cuts[0].Dim, 0)
		}
	}
	// A subzoid is never larger than the zoid it was cut from, so below
	// the grain no level can spawn and none opens a fork-join region.
	fork := !w.Serial && w.approxVolume(z) >= w.grain()
	if !fork && p != nil {
		p.Inlined(hc.Total())
	}
	sub := *z
	for l := 0; l <= hc.NumCut; l++ {
		hc.Start(l)
		if fork {
			w.forkLevel(&hc, &sub, p, depth+1, top)
			continue
		}
		for hc.Next(&sub) {
			w.walk(&sub, p, depth+1, false) // under the grain: nothing below forks
		}
	}
	if span >= 0 {
		p.End(span)
	}
}

// forkLevel processes the mutually independent subzoids of hc's current
// level as one fork-join region. A subzoid gets a goroutine only if its own
// approximate volume reaches the grain — spawning by the parent's volume
// hands 3^k-1 goroutines a sliver each — and the level's last subzoid stays
// on the caller, which would otherwise only wait. Everything else runs
// inline, in enumeration order, with no closure and no scheduler call.
//
// The exception is a top cut: with no forking cut above it, its strand is
// all that is running, and a box too small to yield grain-sized subzoids
// (LBM 3 on 16x16x20: 82 k points, 14 ms of work) would otherwise never
// leave one core. There every subzoid but the last is spawned.
func (w *Walker) forkLevel(hc *zoid.HyperCut, sub *zoid.Zoid, p Probe, depth int, top bool) {
	var rg sched.Region
	defer rg.Wait()
	grain, inline := w.grain(), 0
	for hc.Next(sub) {
		if hc.Left() > 0 && (top || w.approxVolume(sub) >= grain) {
			if p != nil {
				p.Spawned(depth)
			}
			rg.Go(w.task(*sub, p, depth))
			continue
		}
		inline++
		w.walk(sub, p, depth, false)
	}
	if p != nil {
		p.Inlined(inline)
	}
}

// task wraps a subwalk for a fresh goroutine, which owns its copy of the
// zoid and, under a probe, reports through its own Task probe, taken here on
// the spawning goroutine while the cut that spawns it is still its open
// span. The release is deferred so a panicking subwalk still returns it
// before the panic reaches the region's sync point.
func (w *Walker) task(z zoid.Zoid, p Probe, depth int) func() {
	if p == nil {
		return func() { w.walk(&z, nil, depth, false) }
	}
	tp := p.Task()
	return func() {
		defer tp.Release()
		w.walk(&z, tp, depth, false)
	}
}

// base dispatches z to the interior or boundary clone (§4, code cloning).
// A panic in the clone — a crashing user kernel — is re-raised as a
// *KernelPanicError carrying the stack and the zoid, so by the time it
// reaches Run's recover the failure is fully located. The recover costs one
// open-coded defer per base case, amortized over the zoid's whole point set.
// The call is where the zoid is copied: BaseFunc takes it by value.
func (w *Walker) base(z *zoid.Zoid, p Probe, depth int) {
	defer locatePanic(z, p)
	// The faultpoint fires inside the recover scope: an injected base-site
	// panic surfaces exactly like a crashing kernel, zoid coordinates
	// included.
	if faultpoint.Armed() {
		faultpoint.Visit(faultpoint.SiteBase, depth)
	}
	clone, interior := w.Boundary, w.Interior != nil && w.IsInterior(z)
	if interior {
		clone = w.Interior
	}
	if p == nil {
		clone(*z)
		return
	}
	// Volume is a T x N loop: paid only under a probe.
	span := p.Base(z.T0, z.T1, z.Lo[0], z.Hi[0], interior, z.Volume())
	clone(*z)
	if span >= 0 {
		p.End(span)
	}
}

// locatePanic is base's deferred recover: it stamps a kernel's panic with
// the zoid whose base case was executing.
func locatePanic(z *zoid.Zoid, p Probe) {
	r := recover()
	if r == nil {
		return
	}
	switch r.(type) {
	case *KernelPanicError, *sched.PanicError:
		panic(r) // already located by a nested region
	}
	kp := &KernelPanicError{Value: r, Stack: debug.Stack(), Zoid: *z}
	if p != nil {
		p.Panicked(&kp.Zoid)
	}
	panic(kp)
}

// IsInterior reports whether every kernel application within z accesses
// only true in-domain grid points, so that the fast interior clone may be
// used: along each dimension the zoid's lifetime extremes, widened by the
// stencil's reach, must stay inside [0, size). Zoids in virtual (wrapped)
// coordinates fail this test and take the boundary clone, which performs
// the modulo reduction — this is what unifies periodic and nonperiodic
// boundary handling (§4).
func (w *Walker) IsInterior(z *zoid.Zoid) bool {
	for i := 0; i < w.NDims; i++ {
		minLo, maxHi := z.Extremes(i)
		if minLo-w.Reach[i] < 0 || maxHi+w.Reach[i] > w.Sizes[i] {
			return false
		}
	}
	return true
}
