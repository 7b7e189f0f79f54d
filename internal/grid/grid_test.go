package grid

import (
	"math"
	"sync"
	"testing"

	"pochoir/internal/shape"
)

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray[float64](0, 4); err == nil {
		t.Error("depth 0 should error")
	}
	if _, err := NewArray[float64](1); err == nil {
		t.Error("no dims should error")
	}
	if _, err := NewArray[float64](1, 4, 0); err == nil {
		t.Error("zero size should error")
	}
	a, err := NewArray[float64](2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.NDims() != 3 || a.Slots() != 3 || a.PointsPerSlot() != 60 {
		t.Fatalf("bad array geometry: ndims=%d slots=%d pts=%d", a.NDims(), a.Slots(), a.PointsPerSlot())
	}
	if a.Stride(2) != 1 || a.Stride(1) != 5 || a.Stride(0) != 20 {
		t.Fatalf("bad strides %d %d %d", a.Stride(0), a.Stride(1), a.Stride(2))
	}
}

// TestGridSizeOverflow: a geometry whose element count does not fit an int
// is an error, never a wrapped-around buffer behind a larger index space.
func TestGridSizeOverflow(t *testing.T) {
	for _, tc := range []struct {
		depth    int
		sizes    []int
		total, n int // zero: an error
	}{
		{1, []int{1 << 32, 1 << 32}, 0, 0},                        // the extents' product wraps to 0
		{1 << 62, []int{4}, 0, 0},                                 // 4·(2⁶²+1) wraps to 4
		{1, []int{1 << 31, 1 << 31}, 0, 0},                        // 2⁶² points fit, two slots of them do not
		{math.MaxInt, []int{1}, 0, 0},                             // depth+1 itself overflows
		{6, []int{math.MaxInt / 7}, math.MaxInt / 7, math.MaxInt}, // the largest: 7 slots fill an int exactly
		{7, []int{math.MaxInt / 7}, 0, 0},
		{1, []int{math.MaxInt / 2}, math.MaxInt / 2, math.MaxInt - 1},
		{2, []int{3, 4, 5}, 60, 180},
	} {
		total, n, err := extent(tc.depth, tc.sizes)
		if tc.n == 0 {
			if err == nil {
				t.Errorf("depth %d sizes %v: %d points, %d elements, want an overflow error", tc.depth, tc.sizes, total, n)
			}
		} else if err != nil || total != tc.total || n != tc.n {
			t.Errorf("depth %d sizes %v: %d points, %d elements, %v; want %d, %d", tc.depth, tc.sizes, total, n, err, tc.total, tc.n)
		}
	}
	if a, err := NewArray[float64](1, 1<<32, 1<<32); err == nil {
		t.Errorf("NewArray over 2⁶⁴ points returned %d points and %d elements", a.PointsPerSlot(), len(a.data))
	}
	if a, err := NewArray[float64](1<<62, 4); err == nil {
		t.Errorf("NewArray at depth 2⁶² returned %d slots behind %d elements", a.Slots(), len(a.data))
	}
	if _, err := NewArrayCheckpoint[float64]([]int{1 << 62}, 4, 0, nil); err == nil {
		t.Error("NewArrayCheckpoint took no data for 4 slots of 2⁶² points")
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	a := MustNewArray[float64](1, 4, 6)
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			a.Set(0, float64(10*x+y), x, y)
			a.Set(1, float64(100*x+y), x, y)
		}
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			if got := a.Get(0, x, y); got != float64(10*x+y) {
				t.Fatalf("Get(0,%d,%d) = %v", x, y, got)
			}
			if got := a.Get(1, x, y); got != float64(100*x+y) {
				t.Fatalf("Get(1,%d,%d) = %v", x, y, got)
			}
		}
	}
}

func TestTemporalCircularBuffer(t *testing.T) {
	a := MustNewArray[int](1, 3) // 2 slots
	a.Set(0, 10, 1)
	a.Set(1, 11, 1)
	// Time 2 aliases slot 0, time 3 aliases slot 1.
	if a.Get(2, 1) != 10 || a.Get(3, 1) != 11 {
		t.Fatal("time indices should wrap modulo slots")
	}
	a.Set(2, 20, 1)
	if a.Get(0, 1) != 20 {
		t.Fatal("writing t=2 should overwrite slot 0")
	}
	// Negative time wraps too (virtual time during warm-up).
	if a.Get(-2, 1) != 20 {
		t.Fatal("negative time should wrap")
	}
}

func TestBoundaryFunctionInvocation(t *testing.T) {
	a := MustNewArray[float64](1, 5)
	calls := 0
	a.RegisterBoundary(func(arr *Array[float64], tt int, idx []int) float64 {
		calls++
		return -1
	})
	a.Set(0, 7, 4)
	if got := a.Get(0, 4); got != 7 || calls != 0 {
		t.Fatal("in-domain access must not call boundary")
	}
	if got := a.Get(0, 5); got != -1 || calls != 1 {
		t.Fatalf("off-domain access should call boundary: got %v calls=%d", got, calls)
	}
	if got := a.Get(0, -1); got != -1 || calls != 2 {
		t.Fatal("negative index is off-domain")
	}
}

// TestBoundaryKeepsOwnIndex: a boundary function may keep the idx it is
// handed; it is a copy, so later accesses through the same caller slice do
// not rewrite it.
func TestBoundaryKeepsOwnIndex(t *testing.T) {
	a := MustNewArray[float64](1, 4, 4)
	var kept [][]int
	a.RegisterBoundary(func(arr *Array[float64], tt int, idx []int) float64 {
		kept = append(kept, idx)
		return 0
	})
	idx := []int{-1, 2}
	a.Get(0, idx...)
	idx[0], idx[1] = 2, 9
	a.Get(0, idx...)
	idx[0] = 7
	if len(kept) != 2 || kept[0][0] != -1 || kept[0][1] != 2 || kept[1][0] != 2 || kept[1][1] != 9 {
		t.Fatalf("boundary function kept %v, want [[-1 2] [2 9]]", kept)
	}
}

// TestBoundaryCopiesAcrossGoroutines: workers reading off-domain at once,
// as a parallel run's do along shared edges, each get an intact copy.
func TestBoundaryCopiesAcrossGoroutines(t *testing.T) {
	const workers, reads = 4, 2000
	a := MustNewArray[float64](1, 8, 8)
	kept := make([][][]int, workers)
	a.RegisterBoundary(func(arr *Array[float64], tt int, idx []int) float64 {
		kept[tt] = append(kept[tt], idx)
		return 0
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				a.Get(w, -1-i, w) // the time argument names the worker's list
			}
		}(w)
	}
	wg.Wait()
	for w, got := range kept {
		for i, idx := range got {
			if len(idx) != 2 || cap(idx) != 2 || idx[0] != -1-i || idx[1] != w {
				t.Fatalf("worker %d read %d: boundary function kept %v (cap %d), want [%d %d]", w, i, idx, cap(idx), -1-i, w)
			}
		}
	}
}

// TestInDomainAccessorsAllocateNothing pins the checked accessors to
// address arithmetic: the variadic index stays on the caller's stack.
func TestInDomainAccessorsAllocateNothing(t *testing.T) {
	arrays := []*Array[float64]{
		MustNewArray[float64](1, 8),
		MustNewArray[float64](1, 8, 8),
		MustNewArray[float64](2, 4, 4, 4),
		MustNewArray[float64](1, 3, 3, 3, 3),
	}
	for _, a := range arrays {
		a.RegisterBoundary(func(arr *Array[float64], tt int, idx []int) float64 { return 0 })
	}
	ops := map[string]func(){
		"1D": func() {
			a := arrays[0]
			a.Set(1, a.Get(0, 3)+a.GetPeriodic(0, -1)+a.GetClamped(0, 9), 3)
		},
		"2D": func() {
			a := arrays[1]
			a.Set(1, a.Get(0, 3, 4)+a.GetPeriodic(0, -1, 8)+a.GetClamped(0, 9, -2), 3, 4)
		},
		"3D": func() {
			a := arrays[2]
			a.Set(2, a.Get(1, 1, 2, 3)+a.GetPeriodic(0, -1, 4, 5)+a.GetClamped(0, 9, -2, 1), 1, 2, 3)
		},
		"4D": func() {
			a := arrays[3]
			a.Set(1, a.Get(0, 0, 1, 2, 1)+a.GetPeriodic(0, -1, 3, 4, 0)+a.GetClamped(0, 9, -2, 1, 5), 0, 1, 2, 1)
		},
	}
	for name, op := range ops {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s: %v allocations per Get/Set/GetPeriodic/GetClamped round, want 0", name, n)
		}
	}
}

func TestOffDomainWithoutBoundaryPanics(t *testing.T) {
	a := MustNewArray[float64](1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Get(0, 5)
}

func TestOffDomainWritePanics(t *testing.T) {
	a := MustNewArray[float64](1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Set(0, 1, -1)
}

func TestGetPeriodicAndClamped(t *testing.T) {
	a := MustNewArray[int](1, 4)
	for x := 0; x < 4; x++ {
		a.Set(0, x, x)
	}
	if a.GetPeriodic(0, -1) != 3 || a.GetPeriodic(0, 4) != 0 || a.GetPeriodic(0, 9) != 1 {
		t.Fatal("periodic wrap wrong")
	}
	if a.GetClamped(0, -3) != 0 || a.GetClamped(0, 99) != 3 {
		t.Fatal("clamp wrong")
	}
}

func TestCopyInOut(t *testing.T) {
	a := MustNewArray[float64](1, 2, 3)
	src := []float64{1, 2, 3, 4, 5, 6}
	if err := a.CopyIn(0, src); err != nil {
		t.Fatal(err)
	}
	if a.Get(0, 1, 2) != 6 || a.Get(0, 0, 1) != 2 {
		t.Fatal("CopyIn layout mismatch")
	}
	dst := make([]float64, 6)
	if err := a.CopyOut(0, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("CopyOut mismatch")
		}
	}
	if err := a.CopyIn(0, src[:3]); err == nil {
		t.Fatal("short CopyIn should error")
	}
	if err := a.CopyOut(0, dst[:3]); err == nil {
		t.Fatal("short CopyOut should error")
	}
}

func TestFill(t *testing.T) {
	a := MustNewArray[int](1, 3, 3)
	a.Fill(1, 9)
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			if a.Get(1, x, y) != 9 {
				t.Fatal("Fill missed a point")
			}
			if a.Get(0, x, y) != 0 {
				t.Fatal("Fill leaked into other slot")
			}
		}
	}
}

func TestSlotDirectAccess(t *testing.T) {
	a := MustNewArray[float64](1, 3, 4)
	a.Set(1, 42, 2, 3)
	s := a.Slot(1)
	if s[2*a.Stride(0)+3*a.Stride(1)] != 42 {
		t.Fatal("Slot/stride arithmetic inconsistent with Set")
	}
}

func TestSprint(t *testing.T) {
	a := MustNewArray[int](1, 2, 3)
	for x := 0; x < 2; x++ {
		for y := 0; y < 3; y++ {
			a.Set(0, 10*x+y, x, y)
		}
	}
	got := a.Sprint(0)
	want := "0 1 2\n10 11 12\n"
	if got != want {
		t.Fatalf("Sprint = %q, want %q", got, want)
	}
	// 1D arrays print one line.
	b := MustNewArray[float64](1, 3)
	b.Set(0, 1.5, 1)
	if got := b.Sprint(0); got != "0 1.5 0\n" {
		t.Fatalf("1D Sprint = %q", got)
	}
	// 3D arrays separate planes with blank lines.
	c := MustNewArray[int](1, 2, 2, 2)
	if got := c.Sprint(0); got != "0 0\n0 0\n\n0 0\n0 0\n" {
		t.Fatalf("3D Sprint = %q", got)
	}
}

func TestShapeCheck(t *testing.T) {
	sh := shape.MustNew(1, [][]int{{1, 0}, {0, 0}, {0, 1}, {0, -1}})
	a := MustNewArray[float64](1, 8)
	a.RegisterBoundary(func(arr *Array[float64], tt int, idx []int) float64 { return 0 })
	a.EnableShapeCheck(sh)

	// Compliant accesses for home (t=3, x=4).
	a.SetHome(3, []int{4})
	_ = a.Get(3, 4)
	_ = a.Get(3, 5)
	_ = a.Get(3, 3)
	a.Set(4, 1.0, 4)
	if err := a.CheckErr(); err != nil {
		t.Fatalf("compliant kernel flagged: %v", err)
	}

	// Violating access: two cells away.
	_ = a.Get(3, 6)
	err := a.CheckErr()
	if err == nil {
		t.Fatal("expected shape violation")
	}
	if _, ok := err.(*ShapeError); !ok {
		t.Fatalf("want *ShapeError, got %T", err)
	}

	// First violation is kept.
	_ = a.Get(3, 7)
	if a.CheckErr() != err {
		t.Fatal("first violation should be retained")
	}

	a.DisableShapeCheck()
	if a.CheckErr() != nil {
		t.Fatal("disable should clear error")
	}
	_ = a.Get(3, 6) // no longer checked

	// A rank-2 array with a power-of-two slot count, whose in-domain
	// accesses the direct path serves while nothing is checked, is checked
	// once checking is on.
	b := MustNewArray[float64](1, 4, 4)
	b.EnableShapeCheck(shape.MustNew(2, [][]int{{1, 0, 0}, {0, 0, 0}}))
	b.SetHome(3, []int{1, 1})
	_ = b.Get(3, 1, 1)
	if err := b.CheckErr(); err != nil {
		t.Fatalf("compliant rank-2 access flagged: %v", err)
	}
	_ = b.Get(3, 1, 2)
	if b.CheckErr() == nil {
		t.Fatal("expected a shape violation on an in-domain rank-2 access")
	}
}

func TestShapeErrorMessage(t *testing.T) {
	sh := shape.MustNew(1, [][]int{{1, 0}, {0, 0}})
	a := MustNewArray[float64](1, 8)
	a.EnableShapeCheck(sh)
	a.SetHome(0, []int{2})
	_ = a.Get(0, 4)
	err := a.CheckErr()
	if err == nil {
		t.Fatal("expected violation")
	}
	msg := err.Error()
	for _, frag := range []string{"pochoir guarantee", "t=0", "[4]"} {
		if !contains(msg, frag) {
			t.Errorf("error message %q missing %q", msg, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
