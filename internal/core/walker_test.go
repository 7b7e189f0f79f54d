package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pochoir/internal/zoid"
)

// recorder instruments a walker's base case: it marks every executed
// space-time point, verifies exactly-once execution, and — because the
// engine promises that all data dependencies are satisfied before a point
// runs — checks that every neighbor within the stencil slope at t-1 has
// already executed (wrapping when periodic) — which, by induction over t, is
// the point's whole dependency cone. Slopes and periodicity are per
// dimension. done flags are atomic so the checks are meaningful under
// parallel execution as well.
type recorder struct {
	t        testing.TB
	nd       int
	sizes    []int
	slope    []int
	periodic []bool
	t0       int
	steps    int
	done     []atomic.Int32 // (t-t0)*spatial + idx
	fail     atomic.Bool
	mu       sync.Mutex
	firstErr string
}

func newRecorder(t testing.TB, sizes, slope []int, periodic []bool, t0, steps int) *recorder {
	total := 1
	for _, s := range sizes {
		total *= s
	}
	return &recorder{
		t: t, nd: len(sizes), sizes: sizes, slope: slope, periodic: periodic,
		t0: t0, steps: steps, done: make([]atomic.Int32, total*steps),
	}
}

func (r *recorder) spatial(x []int) int {
	off := 0
	for i, v := range x {
		off = off*r.sizes[i] + v
	}
	return off
}

func (r *recorder) report(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstErr == "" {
		r.firstErr = format
		r.t.Errorf(format, args...)
	}
	r.fail.Store(true)
}

// visit executes the point (t, x true coordinates).
func (r *recorder) visit(t int, x []int) {
	if r.fail.Load() {
		return
	}
	slot := (t-r.t0)*r.total() + r.spatial(x)
	if n := r.done[slot].Add(1); n != 1 {
		r.report("point t=%d x=%v executed %d times", t, x, n)
		return
	}
	if t == r.t0 {
		return // depends only on initial data
	}
	// Check all slope-neighborhood dependencies at t-1.
	nb := make([]int, r.nd)
	var rec func(d int)
	rec = func(d int) {
		if d == r.nd {
			dep := (t-1-r.t0)*r.total() + r.spatial(nb)
			if r.done[dep].Load() == 0 {
				r.report("point t=%d x=%v ran before dependency t=%d x=%v", t, x, t-1, nb)
			}
			return
		}
		for dx := -r.slope[d]; dx <= r.slope[d]; dx++ {
			v := x[d] + dx
			if r.periodic[d] {
				v = ((v % r.sizes[d]) + r.sizes[d]) % r.sizes[d]
			} else if v < 0 || v >= r.sizes[d] {
				continue
			}
			nb[d] = v
			rec(d + 1)
		}
	}
	rec(0)
}

func (r *recorder) total() int {
	total := 1
	for _, s := range r.sizes {
		total *= s
	}
	return total
}

// base returns a BaseFunc that walks the zoid exactly as a kernel executor
// would (time-major, bounds advancing by the slopes) and visits each point
// with true (mod-reduced) coordinates.
func (r *recorder) base() BaseFunc {
	return func(z zoid.Zoid) {
		d := r.nd
		var lo, hi [zoid.MaxDims]int
		for i := 0; i < d; i++ {
			lo[i], hi[i] = z.Lo[i], z.Hi[i]
		}
		x := make([]int, d)
		var rec func(t, dim int)
		rec = func(t, dim int) {
			if dim == d {
				r.visit(t, x)
				return
			}
			for v := lo[dim]; v < hi[dim]; v++ {
				x[dim] = ((v % r.sizes[dim]) + r.sizes[dim]) % r.sizes[dim]
				rec(t, dim+1)
			}
		}
		for t := z.T0; t < z.T1; t++ {
			rec(t, 0)
			for i := 0; i < d; i++ {
				lo[i] += z.DLo[i]
				hi[i] += z.DHi[i]
			}
		}
	}
}

func (r *recorder) checkComplete() {
	for i := range r.done {
		if r.done[i].Load() != 1 {
			r.t.Fatalf("slot %d executed %d times (incomplete coverage)", i, r.done[i].Load())
			return
		}
	}
}

// coverCase is one walker configuration for the coverage-and-ordering
// property: every space-time point executed exactly once, after its
// dependency cone.
type coverCase struct {
	sizes, slopes, spaceCut []int
	periodic                []bool
	steps, timeCut          int
	grain                   int64
	alg                     Algorithm
	serial                  bool
}

func (c coverCase) run(t testing.TB) {
	t.Helper()
	r := newRecorder(t, c.sizes, c.slopes, c.periodic, 1, c.steps)
	w := &Walker{
		NDims:      len(c.sizes),
		Algorithm:  c.alg,
		Serial:     c.serial,
		TimeCutoff: c.timeCut,
		Grain:      c.grain,
	}
	for i, n := range c.sizes {
		w.Sizes[i] = n
		w.Slopes[i] = c.slopes[i]
		w.Reach[i] = c.slopes[i]
		w.Periodic[i] = c.periodic[i]
		w.SpaceCutoff[i] = c.spaceCut[i]
	}
	w.Boundary = r.base()
	w.Interior = r.base()
	if err := w.Run(1, 1+c.steps); err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if !r.fail.Load() {
		r.checkComplete()
	}
	if t.Failed() {
		t.Logf("failing case: %+v", c)
	}
}

// runScenario is coverCase.run for a stencil uniform across dimensions,
// spawning aggressively (grain 1) to stress the parallel paths.
func runScenario(t *testing.T, sizes []int, steps, slope int, periodic bool, alg Algorithm, serial bool, timeCut int, spaceCut int) {
	t.Helper()
	c := coverCase{sizes: sizes, steps: steps, timeCut: timeCut, grain: 1, alg: alg, serial: serial}
	for range sizes {
		c.slopes = append(c.slopes, slope)
		c.periodic = append(c.periodic, periodic)
		c.spaceCut = append(c.spaceCut, spaceCut)
	}
	c.run(t)
}

// randomCoverCase draws a configuration from seed: 1–4 dimensions, extents
// from degenerate (below twice the slope) up, slopes 0–2 and periodicity per
// dimension, random coarsening and grain, either algorithm, serial or
// parallel — sized so the per-point dependency check stays in the
// milliseconds.
func randomCoverCase(seed int64) coverCase {
	rng := rand.New(rand.NewSource(seed))
	d := 1 + rng.Intn(4)
	c := coverCase{
		steps:   1 + rng.Intn(12),
		timeCut: 1 + rng.Intn(5),
		grain:   1 << rng.Intn(15),
		alg:     []Algorithm{TRAP, STRAP}[rng.Intn(2)],
		serial:  rng.Intn(2) == 0,
	}
	maxSide := []int{0, 160, 40, 14, 8}[d]
	for i := 0; i < d; i++ {
		size := 1 + rng.Intn(maxSide)
		if rng.Intn(4) == 0 {
			size = 1 + rng.Intn(4) // degenerate: at or below 2*slope
		}
		c.sizes = append(c.sizes, size)
		c.slopes = append(c.slopes, rng.Intn(3))
		c.periodic = append(c.periodic, rng.Intn(2) == 0)
		c.spaceCut = append(c.spaceCut, rng.Intn(11))
	}
	return c
}

// TestWalkerCoverProperty holds the coverage-and-ordering property over a
// fixed spread of random configurations; FuzzWalkerCover searches further.
func TestWalkerCoverProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		randomCoverCase(seed).run(t)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

func FuzzWalkerCover(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { randomCoverCase(seed).run(t) })
}

func TestWalkerCoverageAndOrdering(t *testing.T) {
	type cfg struct {
		name     string
		sizes    []int
		steps    int
		slope    int
		periodic bool
	}
	cfgs := []cfg{
		{"1D", []int{97}, 33, 1, false},
		{"1D periodic", []int{64}, 40, 1, true},
		{"1D slope2", []int{120}, 17, 2, false},
		{"2D", []int{33, 41}, 19, 1, false},
		{"2D periodic", []int{32, 32}, 24, 1, true},
		{"3D", []int{17, 13, 19}, 9, 1, false},
		{"3D periodic", []int{16, 12, 16}, 10, 1, true},
		{"4D", []int{9, 8, 7, 10}, 6, 1, false},
	}
	for _, c := range cfgs {
		for _, alg := range []Algorithm{TRAP, STRAP} {
			for _, serial := range []bool{true, false} {
				name := c.name + "/" + alg.String()
				if serial {
					name += "/serial"
				} else {
					name += "/parallel"
				}
				t.Run(name, func(t *testing.T) {
					runScenario(t, c.sizes, c.steps, c.slope, c.periodic, alg, serial, 1, 0)
				})
			}
		}
	}
}

func TestWalkerCoarsened(t *testing.T) {
	// Coarsening must not affect coverage or ordering.
	runScenario(t, []int{61, 45}, 23, 1, true, TRAP, false, 4, 8)
	runScenario(t, []int{61, 45}, 23, 1, false, TRAP, false, 4, 8)
	runScenario(t, []int{50}, 31, 1, true, STRAP, false, 5, 6)
}

func TestWalkerTinyGrids(t *testing.T) {
	// Grids too small for any space cut must still complete via time cuts
	// and base cases.
	runScenario(t, []int{3}, 9, 1, false, TRAP, true, 1, 0)
	runScenario(t, []int{3, 3}, 7, 1, true, TRAP, false, 1, 0)
	runScenario(t, []int{2, 2, 2}, 5, 1, true, STRAP, true, 1, 0)
}

func TestWalkerZeroSteps(t *testing.T) {
	w := &Walker{NDims: 1}
	w.Sizes[0] = 8
	w.Slopes[0] = 1
	called := false
	w.Boundary = func(z zoid.Zoid) { called = true }
	if err := w.Run(1, 1); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("no time steps should mean no base calls")
	}
}

func TestWalkerValidate(t *testing.T) {
	w := &Walker{NDims: 0}
	if err := w.Run(0, 1); err == nil {
		t.Fatal("NDims=0 should fail validation")
	}
	w = &Walker{NDims: 1}
	w.Sizes[0] = 8
	if err := w.Run(0, 1); err == nil {
		t.Fatal("missing boundary clone should fail validation")
	}
	w.Boundary = func(z zoid.Zoid) {}
	w.Sizes[0] = -1
	if err := w.Run(0, 1); err == nil {
		t.Fatal("negative size should fail validation")
	}
	w.Sizes[0] = 8
	w.Slopes[0] = -1
	if err := w.Run(0, 1); err == nil {
		t.Fatal("negative slope should fail validation")
	}
}

func TestReachDefaultsToSlope(t *testing.T) {
	w := &Walker{NDims: 1}
	w.Sizes[0] = 8
	w.Slopes[0] = 2
	w.Reach[0] = 0
	w.Boundary = func(z zoid.Zoid) {}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Reach[0] != 2 {
		t.Fatalf("reach = %d, want slope default 2", w.Reach[0])
	}
}

func TestIsInterior(t *testing.T) {
	w := &Walker{NDims: 1}
	w.Sizes[0] = 100
	w.Slopes[0] = 1
	w.Reach[0] = 1
	w.Boundary = func(z zoid.Zoid) {}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	in, _ := zoid.New(0, 4, []int{10}, []int{20}, []int{0}, []int{0})
	if !w.IsInterior(&in) {
		t.Fatal("fully inside zoid should be interior")
	}
	edge, _ := zoid.New(0, 4, []int{0}, []int{20}, []int{0}, []int{0})
	if w.IsInterior(&edge) {
		t.Fatal("zoid touching x=0 reads x=-1: not interior")
	}
	right, _ := zoid.New(0, 4, []int{90}, []int{100}, []int{0}, []int{0})
	if w.IsInterior(&right) {
		t.Fatal("zoid touching x=N reads x=N: not interior")
	}
	virt, _ := zoid.New(0, 2, []int{98}, []int{104}, []int{0}, []int{0})
	if w.IsInterior(&virt) {
		t.Fatal("virtual-coordinate zoid must take the boundary clone")
	}
	// Reach larger than slope shrinks the interior region.
	w.Reach[0] = 3
	in2, _ := zoid.New(0, 4, []int{2}, []int{20}, []int{0}, []int{0})
	if w.IsInterior(&in2) {
		t.Fatal("lo=2 with reach 3 reads x=-1: not interior")
	}
}

// TestInteriorOnlyForTrueInterior runs a full walk where the interior clone
// asserts that no access could leave the domain — guarding the code-clone
// dispatch itself.
func TestInteriorCloneNeverNeedsBoundary(t *testing.T) {
	sizes := []int{40, 40}
	steps := 20
	w := &Walker{NDims: 2, Grain: 1}
	for i, n := range sizes {
		w.Sizes[i] = n
		w.Slopes[i] = 1
		w.Reach[i] = 1
		w.Periodic[i] = true
	}
	var interiorPts, boundaryPts atomic.Int64
	count := func(z zoid.Zoid, interior bool) {
		for i := 0; i < 2; i++ {
			minLo, maxHi := z.Extremes(i)
			if interior && (minLo < 1 || maxHi > sizes[i]-1) {
				t.Errorf("interior clone got edge-touching zoid %v", z)
			}
		}
		if interior {
			interiorPts.Add(z.Volume())
		} else {
			boundaryPts.Add(z.Volume())
		}
	}
	w.Interior = func(z zoid.Zoid) { count(z, true) }
	w.Boundary = func(z zoid.Zoid) { count(z, false) }
	if err := w.Run(1, 1+steps); err != nil {
		t.Fatal(err)
	}
	total := interiorPts.Load() + boundaryPts.Load()
	want := int64(sizes[0]) * int64(sizes[1]) * int64(steps)
	if total != want {
		t.Fatalf("points processed %d, want %d", total, want)
	}
	if interiorPts.Load() == 0 {
		t.Fatal("expected some interior zoids on a 40x40 grid")
	}
}

// TestWalkerTelemetry runs probed walks across algorithms and serial/parallel
// modes and checks what the probe hears: the base-case point total covers
// space-time exactly, every span closes innermost first and none is left
// open, parallel runs report spawns and release every task's probe, and the
// run is bracketed once.
func TestWalkerTelemetry(t *testing.T) {
	sizes := []int{48, 36}
	steps := 16
	want := int64(sizes[0]) * int64(sizes[1]) * int64(steps)
	for _, alg := range []Algorithm{TRAP, STRAP} {
		for _, serial := range []bool{true, false} {
			p := newRecProbe()
			w := &Walker{
				NDims:      2,
				Algorithm:  alg,
				Serial:     serial,
				TimeCutoff: 2,
				Grain:      1, // spawn aggressively
				Probe:      p,
			}
			for i, n := range sizes {
				w.Sizes[i] = n
				w.Slopes[i] = 1
				w.Reach[i] = 1
				w.Periodic[i] = true
				w.SpaceCutoff[i] = 8
			}
			nop := func(z zoid.Zoid) {}
			w.Boundary = nop
			w.Interior = nop
			if err := w.Run(1, 1+steps); err != nil {
				t.Fatal(err)
			}
			name := alg.String()
			if got := p.points.Load(); got != want {
				t.Errorf("%s serial=%v: base points = %d, want %d", name, serial, got, want)
			}
			if alg == TRAP && p.cuts[CutHyper].Load() == 0 {
				t.Errorf("%s: expected hyperspace cuts", name)
			}
			// Every subzoid of a hyperspace cut is either spawned or inlined.
			if fan, sub := p.fanout.Load(), p.spawns.Load()+p.inlines.Load(); alg == TRAP && fan != sub {
				t.Errorf("%s serial=%v: cuts made %d subzoids, %d spawned or inlined", name, serial, fan, sub)
			}
			if alg == STRAP && p.cuts[CutSpace].Load()+p.cuts[CutCircle].Load() == 0 {
				t.Errorf("%s: expected trisections or circle cuts", name)
			}
			if spawns := p.spawns.Load(); serial && spawns != 0 || !serial && spawns == 0 {
				t.Errorf("%s serial=%v: %d spawns reported", name, serial, spawns)
			}
			if p.tasks.Load() != p.spawns.Load() || p.released.Load() != p.tasks.Load() {
				t.Errorf("%s: %d spawns, %d task probes, %d released", name, p.spawns.Load(), p.tasks.Load(), p.released.Load())
			}
			if p.bad.Load() != 0 || p.unclosed.Load() != 0 {
				t.Errorf("%s: %d misnested ends or volumes, %d spans left open", name, p.bad.Load(), p.unclosed.Load())
			}
			if p.runs.Load() != 1 || p.ends.Load() != 1 || p.err != nil {
				t.Errorf("%s: %d run starts, %d run ends (%v)", name, p.runs.Load(), p.ends.Load(), p.err)
			}
		}
	}
}

// TestWalkerTelemetryNilIsNoop: a nil probe must leave behavior alone.
func TestWalkerTelemetryNilIsNoop(t *testing.T) {
	runScenario(t, []int{40, 30}, 12, 1, false, TRAP, false, 2, 8)
}

func TestAlgorithmString(t *testing.T) {
	for a := Algorithm(0); int(a) < NumAlgorithms; a++ {
		if got, ok := ParseAlgorithm(a.String()); !ok || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, ok)
		}
	}
	if TRAP.String() != "TRAP" || STRAP.String() != "STRAP" || LOOPS.String() != "LOOPS" {
		t.Fatal("bad algorithm names")
	}
	if _, ok := ParseAlgorithm("trap"); ok {
		t.Fatal("ParseAlgorithm is case-sensitive: callers fold case themselves")
	}
	if Algorithm(9).String() == "" {
		t.Fatal("unknown algorithm should still render")
	}
}
