package pochoir_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/faultpoint"
)

// refHeat1D advances a 1D heat grid independently of the engine.
func refHeat1D(init []float64, n, steps int, periodic bool) []float64 {
	cur := append([]float64(nil), init...)
	next := make([]float64, n)
	at := func(g []float64, i int) float64 {
		if periodic {
			return g[((i%n)+n)%n]
		}
		if i < 0 || i >= n {
			return 0
		}
		return g[i]
	}
	for s := 0; s < steps; s++ {
		for i := 0; i < n; i++ {
			next[i] = 0.25 * (at(cur, i-1) + 2*cur[i] + at(cur, i+1))
		}
		cur, next = next, cur
	}
	return cur
}

// TestOptionsValidation: newWalker must reject malformed execution options
// instead of silently misbehaving (a short SpaceCutoff used to leave the
// trailing cutoffs at 0, changing coarsening for those dimensions).
func TestOptionsValidation(t *testing.T) {
	mk := func(opts pochoir.Options) error {
		sh := pochoir.MustShape(2, [][]int{{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1}})
		st := pochoir.NewWithOptions[float64](sh, opts)
		u := pochoir.MustArray[float64](sh.Depth(), 16, 16)
		u.RegisterBoundary(pochoir.ZeroBoundary[float64]())
		st.MustRegisterArray(u)
		return st.Run(2, pochoir.K2(func(tt, x, y int) { u.Set(tt+1, u.Get(tt, x, y), x, y) }))
	}
	bad := []pochoir.Options{
		{TimeCutoff: -1},
		{Grain: -5},
		{SpaceCutoff: []int{8}},       // too short for a 2D stencil
		{SpaceCutoff: []int{8, 8, 8}}, // too long
		{SpaceCutoff: []int{8, -2}},   // negative entry
	}
	for _, opts := range bad {
		if err := mk(opts); err == nil {
			t.Errorf("opts %+v: want validation error, got nil", opts)
		}
	}
	good := []pochoir.Options{
		{},
		{TimeCutoff: 3, SpaceCutoff: []int{8, 8}, Grain: 1},
		{SpaceCutoff: []int{0, 0}}, // zero entries mean uncoarsened, and are valid
	}
	for _, opts := range good {
		if err := mk(opts); err != nil {
			t.Errorf("opts %+v: unexpected error %v", opts, err)
		}
	}
}

// TestWholeRowsCoarsening pins the whole-row rule. Under default options, a
// 2D stencil whose clones declare WholeRows never has its unit-stride
// dimension cut: every zoid handed to either clone spans it whole, on every
// engine and on every rung of the supervised ladder. An explicit
// SpaceCutoff still cuts it, and clones without the declaration decompose
// by the §4 heuristic exactly as an explicit DefaultCoarsening does.
func TestWholeRowsCoarsening(t *testing.T) {
	defer faultpoint.DisarmAll()
	const X, Y, steps = 300, 300, 10
	sh := heat2DShape()
	newStencil := func(opts pochoir.Options) *pochoir.Stencil[float64] {
		st := pochoir.NewWithOptions[float64](sh, opts)
		u := pochoir.MustArray[float64](sh.Depth(), X, Y)
		u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
		st.MustRegisterArray(u)
		return st
	}
	// The recording clones compute nothing: only the zoids matter here.
	var (
		mu     sync.Mutex
		engine string
		got    []pochoir.Zoid
		rungs  = map[string]int{}
	)
	record := func(z pochoir.Zoid) {
		mu.Lock()
		got = append(got, z)
		rungs[engine]++
		mu.Unlock()
	}
	clones := func(wholeRows bool) pochoir.BaseKernels {
		return pochoir.BaseKernels{Interior: record, Boundary: record, WholeRows: wholeRows}
	}
	specialized := func(opts pochoir.Options, wholeRows bool) []pochoir.Zoid {
		t.Helper()
		got = nil
		if err := newStencil(opts).RunSpecialized(steps, clones(wholeRows)); err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("opts %+v: no zoid reached the clones", opts)
		}
		return got
	}
	// firstCut returns a zoid that does not span the unit-stride dimension.
	firstCut := func(zs []pochoir.Zoid) (pochoir.Zoid, bool) {
		for _, z := range zs {
			if z.Lo[1] != 0 || z.Hi[1] != Y || z.DLo[1] != 0 || z.DHi[1] != 0 {
				return z, true
			}
		}
		return pochoir.Zoid{}, false
	}

	for _, alg := range []core.Algorithm{core.TRAP, core.STRAP, core.LOOPS} {
		for _, serial := range []bool{true, false} {
			opts := pochoir.Options{Algorithm: alg, Serial: serial}
			if z, cut := firstCut(specialized(opts, true)); cut {
				t.Fatalf("%v serial=%v: zoid %v cuts the unit-stride dimension", alg, serial, z)
			}
			if alg == core.LOOPS {
				continue // LOOPS chunks dimension 0 only, whatever the cutoffs
			}
			opts.SpaceCutoff = []int{100, 100}
			if _, cut := firstCut(specialized(opts, true)); !cut {
				t.Fatalf("%v serial=%v: an explicit SpaceCutoff did not cut the unit-stride dimension", alg, serial)
			}
		}
	}

	// Without the declaration: the §4 heuristic, which cuts rows in 2D.
	tc, sc := pochoir.DefaultCoarsening(2)
	plain := specialized(pochoir.Options{Serial: true}, false)
	if explicit := specialized(pochoir.Options{Serial: true, TimeCutoff: tc, SpaceCutoff: sc}, false); !reflect.DeepEqual(plain, explicit) {
		t.Fatalf("clones without WholeRows decompose into %d zoids, DefaultCoarsening into %d", len(plain), len(explicit))
	}
	if _, cut := firstCut(plain); !cut {
		t.Fatal("clones without WholeRows: the 2D heuristic no longer cuts the unit-stride dimension")
	}

	// Supervised, on the attached clones, with base-site panics on every
	// third visit, four times: two failed TRAP attempts, two failed STRAP
	// attempts, then LOOPS completes. Serial keeps the count per attempt
	// deterministic.
	st := newStencil(pochoir.Options{Serial: true, NoFlightRecorder: true})
	st.AttachBaseKernels(clones(true))
	var visits atomic.Int64
	faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
		Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, Times: 4, Prob: 0.5,
		Rand: func() float64 {
			if visits.Add(1)%3 == 0 {
				return 0
			}
			return 1
		},
	})
	got, engine = nil, pochoir.EngineFull.String()
	rep, err := st.RunSupervised(context.Background(), steps, pochoir.K2(func(int, int, int) {}), pochoir.SupervisePolicy{
		MaxAttempts: 6, DegradeAfter: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond,
		OnEvent: func(ev pochoir.SupervisorEvent) {
			if ev.Kind.String() == "degrade" {
				mu.Lock()
				engine = ev.Engine
				mu.Unlock()
			}
		},
	})
	faultpoint.DisarmAll()
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if rep.FinalEngine != pochoir.EngineLoops || rep.Degradations != 2 {
		t.Fatalf("final engine %v after %d degradations, want LOOPS after 2", rep.FinalEngine, rep.Degradations)
	}
	for _, eng := range []pochoir.SupervisorEngine{pochoir.EngineFull, pochoir.EngineSTRAP, pochoir.EngineLoops} {
		if rungs[eng.String()] == 0 {
			t.Fatalf("no zoid reached the clones on the %v rung (%v)", eng, rungs)
		}
	}
	if z, cut := firstCut(got); cut {
		t.Fatalf("RunSupervised: zoid %v cuts the unit-stride dimension", z)
	}
}

// TestPointExecutorSweepsWholeRows: the generic point executor declares
// whole rows. A default 2D Run, RunChecked and RunSupervised decompose
// exactly as under an explicit SpaceCutoff{100, 1<<30}, counter for
// counter, and a unit-stride dimension longer than 100 makes that differ
// from the §4 {100, 100}. Every geometry's result is bit for bit a serial
// sweep of the point kernel, over TRAP/STRAP/LOOPS × serial/parallel ×
// periodic/zero/clamp boundaries.
func TestPointExecutorSweepsWholeRows(t *testing.T) {
	const steps = 7
	sh := heat2DShape()
	boundaries := []struct {
		name string
		b    pochoir.Boundary[float64]
	}{
		{"periodic", pochoir.PeriodicBoundary[float64]()},
		{"zero", pochoir.ZeroBoundary[float64]()},
		{"clamp", pochoir.NeumannBoundary[float64]()},
	}
	paths := []struct {
		name string
		run  func(*pochoir.Stencil[float64], pochoir.Kernel) error
	}{
		{"Run", func(st *pochoir.Stencil[float64], k pochoir.Kernel) error { return st.Run(steps, k) }},
		{"RunChecked", func(st *pochoir.Stencil[float64], k pochoir.Kernel) error { return st.RunChecked(steps, k) }},
		{"RunSupervised", func(st *pochoir.Stencil[float64], k pochoir.Kernel) error {
			_, err := st.RunSupervised(context.Background(), steps, k, pochoir.SupervisePolicy{SegmentSteps: 3})
			return err
		}},
	}
	// heat builds a stencil over an n×n array holding init, and its point
	// kernel.
	heat := func(opts pochoir.Options, b pochoir.Boundary[float64], n int, init []float64) (*pochoir.Stencil[float64], *pochoir.Array[float64], pochoir.Kernel) {
		st := pochoir.NewWithOptions[float64](sh, opts)
		u := pochoir.MustArray[float64](sh.Depth(), n, n)
		u.RegisterBoundary(b)
		st.MustRegisterArray(u)
		if err := u.CopyIn(0, init); err != nil {
			t.Fatal(err)
		}
		return st, u, pochoir.K2(func(tt, x, y int) {
			c := u.Get(tt, x, y)
			u.Set(tt+1, c+
				cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y))+
				cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1)), x, y)
		})
	}
	result := func(u *pochoir.Array[float64], n int) []float64 {
		out := make([]float64, n*n)
		if err := u.CopyOut(steps, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// decomposition is what the walk decided: the counters less time,
	// workers and scheduling.
	decomposition := func(rec *pochoir.Recorder) pochoir.RunStats {
		st := rec.Snapshot()
		st.Wall, st.Workers, st.WorkerBusy, st.Spawns, st.Inlines = 0, 0, nil, 0, 0
		return st
	}
	sameBits := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}

	for _, n := range []int{1, 7, 100, 101, 257} {
		init := randomGrid(n*n, int64(n))
		for _, bd := range boundaries {
			// The serial sweep: the point kernel over every point, one
			// step at a time, with no walker.
			_, u, kern := heat(pochoir.Options{}, bd.b, n, init)
			for tt := 0; tt < steps; tt++ {
				for x := 0; x < n; x++ {
					for y := 0; y < n; y++ {
						kern(tt, []int{x, y})
					}
				}
			}
			want := result(u, n)
			for _, alg := range []core.Algorithm{core.TRAP, core.STRAP, core.LOOPS} {
				for _, serial := range []bool{true, false} {
					for _, path := range paths {
						if path.name == "RunChecked" && !serial {
							continue // RunChecked always runs serially
						}
						name := fmt.Sprintf("%d² %s %v serial=%v %s", n, bd.name, alg, serial, path.name)
						var counts [3]pochoir.RunStats
						for i, space := range [][]int{nil, {100, 1 << 30}, {100, 100}} {
							rec := pochoir.NewRecorder()
							st, u, kern := heat(pochoir.Options{Algorithm: alg, Serial: serial, SpaceCutoff: space, Telemetry: rec}, bd.b, n, init)
							if err := path.run(st, kern); err != nil {
								t.Fatalf("%s, SpaceCutoff %v: %v", name, space, err)
							}
							if got := result(u, n); !sameBits(got, want) {
								t.Fatalf("%s, SpaceCutoff %v: differs from the serial sweep by %g", name, space, maxAbsDiff(got, want))
							}
							counts[i] = decomposition(rec)
						}
						if !reflect.DeepEqual(counts[0], counts[1]) {
							t.Fatalf("%s: the default decomposes as %+v, SpaceCutoff{100, 1<<30} as %+v", name, counts[0], counts[1])
						}
						if cut := n > 100 && alg != core.LOOPS; cut == reflect.DeepEqual(counts[0], counts[2]) {
							t.Fatalf("%s: the default decomposes as %+v, SpaceCutoff{100, 100} as %+v", name, counts[0], counts[2])
						}
					}
				}
			}
		}
	}
}

// TestGenericBaseAsBoundaryOnly: RunSpecialized with only a boundary clone
// must still be correct (the modular-indexing ablation configuration).
func TestGenericBaseAsBoundaryOnly(t *testing.T) {
	n, steps := 200, 60
	want := refHeat1D(randomGrid(n, 77), n, steps, true)
	sh := pochoir.MustShape(1, [][]int{{1, 0}, {0, 0}, {0, 1}, {0, -1}})
	st := pochoir.New[float64](sh)
	u := pochoir.MustArray[float64](sh.Depth(), n)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(u)
	if err := u.CopyIn(0, randomGrid(n, 77)); err != nil {
		t.Fatal(err)
	}
	kern := pochoir.K1(func(tt, i int) {
		u.Set(tt+1, 0.25*(u.Get(tt, i-1)+2*u.Get(tt, i)+u.Get(tt, i+1)), i)
	})
	if err := st.RunSpecialized(steps, pochoir.BaseKernels{Boundary: st.GenericBase(kern)}); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	if err := u.CopyOut(steps, got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("boundary-only run differs by %g", d)
	}
}

func TestRunSpecializedRequiresBoundary(t *testing.T) {
	sh := pochoir.MustShape(1, [][]int{{1, 0}, {0, 0}})
	st := pochoir.New[float64](sh)
	u := pochoir.MustArray[float64](sh.Depth(), 8)
	st.MustRegisterArray(u)
	if err := st.RunSpecialized(1, pochoir.BaseKernels{}); err == nil {
		t.Fatal("missing boundary clone must be rejected")
	}
}

// TestKernelAdapters verifies K1..K4 argument plumbing.
func TestKernelAdapters(t *testing.T) {
	var got []int
	pochoir.K1(func(t, x int) { got = []int{t, x} })(9, []int{1})
	if got[0] != 9 || got[1] != 1 {
		t.Fatal("K1")
	}
	pochoir.K2(func(t, x, y int) { got = []int{t, x, y} })(9, []int{1, 2})
	if got[2] != 2 {
		t.Fatal("K2")
	}
	pochoir.K3(func(t, x, y, z int) { got = []int{t, x, y, z} })(9, []int{1, 2, 3})
	if got[3] != 3 {
		t.Fatal("K3")
	}
	pochoir.K4(func(t, x, y, z, w int) { got = []int{t, x, y, z, w} })(9, []int{1, 2, 3, 4})
	if got[4] != 4 {
		t.Fatal("K4")
	}
}

// TestBoundaryHelpers verifies each stock boundary function's values.
func TestBoundaryHelpers(t *testing.T) {
	u := pochoir.MustArray[float64](1, 4)
	for i := 0; i < 4; i++ {
		u.Set(0, float64(i+1), i)
	}
	if v := pochoir.PeriodicBoundary[float64]()(u, 0, []int{-1}); v != 4 {
		t.Fatalf("periodic: %v", v)
	}
	if v := pochoir.NeumannBoundary[float64]()(u, 0, []int{9}); v != 4 {
		t.Fatalf("neumann: %v", v)
	}
	if v := pochoir.ConstBoundary(2.5)(u, 0, []int{-1}); v != 2.5 {
		t.Fatalf("const: %v", v)
	}
	if v := pochoir.ZeroBoundary[float64]()(u, 0, []int{-1}); v != 0 {
		t.Fatalf("zero: %v", v)
	}
	d := pochoir.DirichletBoundary(func(tt int, idx []int) float64 { return float64(tt) + float64(idx[0]) })
	if v := d(u, 3, []int{-2}); v != 1 {
		t.Fatalf("dirichlet: %v", v)
	}
}

// TestStencilMetadata covers the remaining accessors.
func TestStencilMetadata(t *testing.T) {
	sh := pochoir.MustShape(2, [][]int{{1, 0, 0}, {0, 0, 0}})
	st := pochoir.New[float64](sh)
	if st.Shape() != sh {
		t.Fatal("Shape accessor")
	}
	a := pochoir.MustArray[float64](1, 4, 6)
	st.MustRegisterArray(a)
	if len(st.Arrays()) != 1 {
		t.Fatal("Arrays accessor")
	}
	if s := st.Sizes(); s[0] != 4 || s[1] != 6 {
		t.Fatal("Sizes accessor")
	}
	st.Reset()
	if st.StepsRun() != 0 {
		t.Fatal("Reset")
	}
}
