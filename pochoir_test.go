package pochoir_test

import (
	"math"
	"math/rand"
	"testing"

	"pochoir"
)

// heat2DShape is the paper's Fig. 6 five-point shape.
func heat2DShape() *pochoir.Shape {
	return pochoir.MustShape(2, [][]int{
		{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
	})
}

const cx, cy = 0.125, 0.125

// refHeat2D advances a 2D heat grid for steps, either periodic or with a
// constant Dirichlet halo, entirely independently of the engine under test.
func refHeat2D(init []float64, X, Y, steps int, periodic bool, halo float64) []float64 {
	cur := append([]float64(nil), init...)
	next := make([]float64, len(init))
	at := func(g []float64, x, y int) float64 {
		if periodic {
			x = ((x % X) + X) % X
			y = ((y % Y) + Y) % Y
		} else if x < 0 || x >= X || y < 0 || y >= Y {
			return halo
		}
		return g[x*Y+y]
	}
	for s := 0; s < steps; s++ {
		for x := 0; x < X; x++ {
			for y := 0; y < Y; y++ {
				c := at(cur, x, y)
				next[x*Y+y] = c +
					cx*(at(cur, x+1, y)-2*c+at(cur, x-1, y)) +
					cy*(at(cur, x, y+1)-2*c+at(cur, x, y-1))
			}
		}
		cur, next = next, cur
	}
	return cur
}

func randomGrid(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.Float64()
	}
	return g
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func runHeat2D(t *testing.T, X, Y, steps int, opts pochoir.Options) []float64 {
	t.Helper()
	sh := heat2DShape()
	st := pochoir.NewWithOptions[float64](sh, opts)
	u := pochoir.MustArray[float64](sh.Depth(), X, Y)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(u)
	init := randomGrid(X*Y, 42)
	if err := u.CopyIn(0, init); err != nil {
		t.Fatal(err)
	}
	kern := pochoir.K2(func(tt, x, y int) {
		c := u.Get(tt, x, y)
		u.Set(tt+1, c+
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y))+
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1)), x, y)
	})
	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, X*Y)
	if err := u.CopyOut(steps, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHeat2DMatchesReferencePeriodic(t *testing.T) {
	X, Y, steps := 37, 29, 40
	want := refHeat2D(randomGrid(X*Y, 42), X, Y, steps, true, 0)
	for _, opts := range []pochoir.Options{
		{},             // TRAP parallel, default coarsening
		{Serial: true}, // TRAP serial
		{Algorithm: 1}, // STRAP parallel
		{TimeCutoff: 1, SpaceCutoff: []int{1, 1}}, // uncoarsened
		{TimeCutoff: 3, SpaceCutoff: []int{7, 9}, Grain: 1},
	} {
		got := runHeat2D(t, X, Y, steps, opts)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("opts %+v: max diff %g vs reference", opts, d)
		}
	}
}

func TestRunResume(t *testing.T) {
	X, Y := 24, 24
	want := refHeat2D(randomGrid(X*Y, 42), X, Y, 30, true, 0)

	sh := heat2DShape()
	st := pochoir.New[float64](sh)
	u := pochoir.MustArray[float64](sh.Depth(), X, Y)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(u)
	if err := u.CopyIn(0, randomGrid(X*Y, 42)); err != nil {
		t.Fatal(err)
	}
	kern := pochoir.K2(func(tt, x, y int) {
		c := u.Get(tt, x, y)
		u.Set(tt+1, c+
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y))+
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1)), x, y)
	})
	// Run 10 + 20 steps; results must be indistinguishable from one run
	// of 30 (§2: name.Run may be called repeatedly to resume).
	if err := st.Run(10, kern); err != nil {
		t.Fatal(err)
	}
	if st.StepsRun() != 10 {
		t.Fatalf("StepsRun = %d", st.StepsRun())
	}
	if err := st.Run(20, kern); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, X*Y)
	if err := u.CopyOut(30, got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("resumed run differs from single run by %g", d)
	}
}

func TestRunCheckedAcceptsCompliantKernel(t *testing.T) {
	X, Y, steps := 16, 16, 8
	sh := heat2DShape()
	st := pochoir.New[float64](sh)
	u := pochoir.MustArray[float64](sh.Depth(), X, Y)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(u)
	if err := u.CopyIn(0, randomGrid(X*Y, 1)); err != nil {
		t.Fatal(err)
	}
	kern := pochoir.K2(func(tt, x, y int) {
		c := u.Get(tt, x, y)
		u.Set(tt+1, c+
			cx*(u.Get(tt, x+1, y)-2*c+u.Get(tt, x-1, y))+
			cy*(u.Get(tt, x, y+1)-2*c+u.Get(tt, x, y-1)), x, y)
	})
	if err := st.RunChecked(steps, kern); err != nil {
		t.Fatalf("compliant kernel rejected: %v", err)
	}
	// And the checked run must produce correct values too.
	want := refHeat2D(randomGrid(X*Y, 1), X, Y, steps, true, 0)
	got := make([]float64, X*Y)
	if err := u.CopyOut(steps, got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("checked run wrong by %g", d)
	}
}

func TestRunCheckedRejectsShapeViolation(t *testing.T) {
	// Each kernel makes one access not declared in the shape: the Pochoir
	// Guarantee must flag it during Phase 1.
	for _, tc := range []struct {
		name string
		kern func(u *pochoir.Array[float64]) func(tt, x, y int)
	}{
		// A diagonal neighbor, which leaves the domain at the grid's edge.
		{"diagonal", func(u *pochoir.Array[float64]) func(tt, x, y int) {
			return func(tt, x, y int) { u.Set(tt+1, u.Get(tt, x+1, y+1), x, y) }
		}},
		// Two steps back, which stays inside the domain at every point, where
		// the accessors' direct path serves in-domain indices.
		{"in-domain", func(u *pochoir.Array[float64]) func(tt, x, y int) {
			return func(tt, x, y int) { u.Set(tt+1, u.Get(tt, x, y)+u.Get(tt-1, x, y), x, y) }
		}},
	} {
		sh := heat2DShape()
		st := pochoir.New[float64](sh)
		u := pochoir.MustArray[float64](sh.Depth(), 16, 16)
		u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
		st.MustRegisterArray(u)
		if err := st.RunChecked(4, pochoir.K2(tc.kern(u))); err == nil {
			t.Errorf("%s: an undeclared access must violate the Pochoir Guarantee", tc.name)
		}
	}
}

func TestRegisterArrayValidation(t *testing.T) {
	sh := heat2DShape()
	st := pochoir.New[float64](sh)
	bad := pochoir.MustArray[float64](1, 8) // 1D array for 2D stencil
	if err := st.RegisterArray(bad); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
	a := pochoir.MustArray[float64](1, 8, 8)
	if err := st.RegisterArray(a); err != nil {
		t.Fatal(err)
	}
	b := pochoir.MustArray[float64](1, 8, 9)
	if err := st.RegisterArray(b); err == nil {
		t.Fatal("size mismatch should be rejected")
	}
	// A second compatible array is fine (multiple arrays per object, §2).
	c := pochoir.MustArray[float64](1, 8, 8)
	if err := st.RegisterArray(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithoutArrays(t *testing.T) {
	st := pochoir.New[float64](heat2DShape())
	if err := st.Run(1, func(t int, x []int) {}); err == nil {
		t.Fatal("running with no arrays should error")
	}
}

func TestNegativeSteps(t *testing.T) {
	sh := heat2DShape()
	st := pochoir.New[float64](sh)
	a := pochoir.MustArray[float64](1, 8, 8)
	a.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(a)
	if err := st.Run(-1, func(t int, x []int) {}); err == nil {
		t.Fatal("negative steps should error")
	}
}
