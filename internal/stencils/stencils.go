// Package stencils implements every benchmark of the paper's evaluation
// (Fig. 3, Fig. 5, and the §4 ablations): Heat on 2D/2D-periodic/4D grids,
// Conway's Game of Life, the 3D finite-difference wave equation, a D3Q19
// lattice Boltzmann method, RNA secondary-structure prediction, pairwise
// sequence alignment with affine gaps, longest common subsequence, American
// put option pricing, and the Berkeley 7-point/27-point 3D kernels.
//
// Each benchmark provides four execution paths over identical workloads:
//
//   - Pochoir: the Phase-2 path — TRAP decomposition with an interior and a
//     boundary clone;
//   - PochoirGeneric: the Phase-1 path — the checked point kernel
//     everywhere, through Run (the "template library" behaviour), whose
//     walk in 2D sweeps whole rows where the hand-written clones' walk cuts
//     them;
//   - LoopsSerial / LoopsParallel: the LOOPS baseline of Fig. 1 — a serial
//     or parallel-for loop nest per time step, using ghost cells for
//     nonperiodic stencils and modular indexing for periodic ones, exactly
//     as the paper's baselines do.
//
// Heat 2, Heat 2p, Wave 3 and the two Fig. 5 kernels are written once, as
// specifications in specs/, and both Pochoir paths run what the stencil
// compiler makes of them (dslInstance): the row-program clones and the
// checked point kernel. The other benchmarks carry a hand-written point
// kernel and clone pair.
//
// All paths compute bit-identical results (the same IEEE operations per
// point, in the same order), which the package tests verify against the
// serial loop nest.
package stencils

import (
	"math/rand"
	"sort"

	"pochoir"
)

// Job is one self-contained benchmark execution: Setup allocates and
// initializes state, Compute runs the stencil (the only part a harness
// should time), and Result linearizes the final grid for comparison.
type Job struct {
	Setup   func()
	Compute func()
	Result  func() []float64
}

// Run executes all three phases and returns the final state.
func (j Job) Run() []float64 {
	j.Setup()
	j.Compute()
	return j.Result()
}

// Instance is one configured benchmark workload.
type Instance interface {
	// Name returns the benchmark's display name (e.g. "Heat 2p").
	Name() string
	// Dims returns the number of spatial dimensions.
	Dims() int
	// Sizes returns the spatial grid extents.
	Sizes() []int
	// Steps returns the number of time steps.
	Steps() int
	// Points returns the number of grid points per time step.
	Points() int64
	// FlopsPerPoint estimates floating-point operations per point update,
	// for GFLOPS/GStencil reporting (Fig. 5).
	FlopsPerPoint() float64

	// Pochoir is the Phase-2 specialized path.
	Pochoir(opts pochoir.Options) Job
	// PochoirGeneric is the Phase-1 template-library path.
	PochoirGeneric(opts pochoir.Options) Job
	// LoopsSerial is the serial loop-nest baseline.
	LoopsSerial() Job
	// LoopsParallel is the parallel loop-nest baseline ("12-core loops").
	LoopsParallel() Job
}

// Factory builds instances of one benchmark at any scale.
type Factory struct {
	// Name is the Fig. 3 row label.
	Name string
	// Order is the row position in Fig. 3 (Fig. 5 kernels follow).
	Order int
	// Dims is the number of spatial dimensions.
	Dims int
	// PaperSizes and PaperSteps record the workload the paper ran.
	PaperSizes []int
	PaperSteps int
	// New builds an instance; sizes/steps of zero select scaled-down
	// defaults suitable for a laptop-class machine.
	New func(sizes []int, steps int) Instance
	// Shape returns the benchmark's stencil shape, for analytical replays
	// of its decomposition (the work/span analyzer and the cache-trace
	// simulator). Nil when the benchmark has no single
	// translation-invariant shape to replay.
	Shape func() *pochoir.Shape
	// Periodic reports, per spatial dimension, whether the benchmark's
	// boundary wraps around (torus) rather than clamping; nil means
	// nonperiodic in every dimension.
	Periodic []bool
}

var registry []Factory

func register(f Factory) { registry = append(registry, f) }

// All returns every Fig. 3 benchmark in the paper's row order, followed by
// the Fig. 5 Berkeley kernels.
func All() []Factory {
	out := append([]Factory(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// Lookup returns the factory with the given name, or false.
func Lookup(name string) (Factory, bool) {
	for _, f := range All() {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}

// fillRand fills dst with deterministic pseudo-random values in [0,1).
func fillRand(dst []float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range dst {
		dst[i] = rng.Float64()
	}
}

// defaults substitutes scaled-down defaults for zero sizes/steps.
func defaults(sizes []int, steps int, defSizes []int, defSteps int) ([]int, int) {
	if len(sizes) == 0 {
		sizes = defSizes
	}
	if steps == 0 {
		steps = defSteps
	}
	return append([]int(nil), sizes...), steps
}

func mod(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

func prod(sizes []int) int64 {
	p := int64(1)
	for _, s := range sizes {
		p *= int64(s)
	}
	return p
}

// ghostRows calls fn with the offset of every unit-stride row of a dense
// grid of extents sz and of the same row in its copy padded by one ghost
// cell on every side, the layout of the 3D loop baselines.
func ghostRows(sz [3]int, fn func(dense, padded int)) {
	q1, q2 := (sz[1]+2)*(sz[2]+2), sz[2]+2
	for x := 0; x < sz[0]; x++ {
		for y := 0; y < sz[1]; y++ {
			fn((x*sz[1]+y)*sz[2], (x+1)*q1+(y+1)*q2+1)
		}
	}
}
