package core

// What the walk costs, as opposed to what it decides: the spawn-volume
// estimate cannot wrap, the serial walk allocates nothing per zoid, the
// parallel walk allocates per spawn only, and a panic in a subzoid run
// inline next to spawned siblings is located and drained like any other.

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pochoir/internal/zoid"
)

func TestApproxVolumeSaturates(t *testing.T) {
	w := &Walker{NDims: zoid.MaxDims}
	sizes := make([]int, zoid.MaxDims)
	for i := range sizes {
		sizes[i] = 1 << 10
	}
	z := zoid.Box(0, 4, sizes) // 4 * 2^80 points: wraps an int64 to 0
	if got := w.approxVolume(&z); got != math.MaxInt64 {
		t.Fatalf("approxVolume of an 8-D 2^10-wide box = %d, want saturation at MaxInt64", got)
	}
	// One side short of wrapping is still exact.
	w.NDims = 6
	z = zoid.Box(0, 4, sizes[:6])
	if got, want := w.approxVolume(&z), int64(4)<<60; got != want {
		t.Fatalf("approxVolume = %d, want %d", got, want)
	}
	// A side that closes up makes the zoid empty, not negative.
	z.Hi[2] = z.Lo[2] - 8
	if got := w.approxVolume(&z); got != 0 {
		t.Fatalf("approxVolume of an ill-defined zoid = %d, want 0", got)
	}
	// Mean of the bases: a gray triangle growing from nothing to 16 wide
	// over 8 steps counts as 8 wide.
	w.NDims = 1
	g, _ := zoid.New(0, 8, []int{20}, []int{20}, []int{-1}, []int{1})
	if got := w.approxVolume(&g); got != 8*8 {
		t.Fatalf("approxVolume of a triangle = %d, want 64", got)
	}
}

// costWalker builds a walker with no-op clones at the engine's default
// coarsening for the dimensionality (1000x3x3-style above 2-D, a fine tile
// in 2-D so a small box still takes circle cuts), every dimension periodic
// as under the unified scheme.
func costWalker(sizes []int, alg Algorithm, serial bool) *Walker {
	w := &Walker{NDims: len(sizes), Algorithm: alg, Serial: serial, TimeCutoff: 3}
	for i, n := range sizes {
		w.Sizes[i], w.Slopes[i], w.Reach[i], w.Periodic[i] = n, 1, 1, true
		w.SpaceCutoff[i] = 3
	}
	if len(sizes) > 2 {
		w.SpaceCutoff[len(sizes)-1] = 1 << 30 // never cut the unit-stride dimension
	}
	nop := func(zoid.Zoid) {}
	w.Interior, w.Boundary = nop, nop
	return w
}

func TestWalkAllocationsIndependentOfZoidCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own bookkeeping allocates")
	}
	type box struct {
		sizes []int
		steps int
	}
	small, big := box{[]int{16, 16, 16, 16}, 8}, box{[]int{32, 32, 32, 32}, 32}
	circ := box{[]int{192, 192}, 48} // 2-D periodic: circle cuts at the top, trisections below
	allocs := func(b box, alg Algorithm, serial bool) float64 {
		w := costWalker(b.sizes, alg, serial)
		return testing.AllocsPerRun(3, func() {
			if err := w.Run(1, 1+b.steps); err != nil {
				t.Fatal(err)
			}
		})
	}
	decomposition := func(b box, alg Algorithm, serial bool) *recCounts {
		w := costWalker(b.sizes, alg, serial)
		p := newRecProbe()
		w.Probe = p
		if err := w.Run(1, 1+b.steps); err != nil {
			t.Fatal(err)
		}
		return p.recCounts
	}
	root := zoid.Box(1, 1+circ.steps, circ.sizes)
	if cuts := costWalker(circ.sizes, TRAP, true).CutSet(&root, nil); len(cuts) != 2 || cuts[0].Kind != zoid.CutCircle {
		t.Fatalf("the 2-D box does not open with circle cuts: %+v", cuts)
	}
	// perRun bounds what one Run sets up whatever it walks (its pprof label
	// set and context); perSpawn what one spawn costs (the zoid copy, the
	// task closure, the goroutine's entry closure, and a share of the
	// region's join state).
	const perRun, perSpawn = 8, 4
	for _, alg := range []Algorithm{TRAP, STRAP} {
		a, b, c := allocs(small, alg, true), allocs(big, alg, true), allocs(circ, alg, true)
		zs, zb := decomposition(small, alg, true).zoids(), decomposition(big, alg, true).zoids()
		if zb < 20*zs {
			t.Fatalf("%v: the big box has %d zoids against %d: not a test of growth", alg, zb, zs)
		}
		if a != b || a != c || a > perRun {
			t.Errorf("%v serial: %v allocs on 16^4x8 (%d zoids), %v on 32^4x32 (%d zoids), %v on 192^2x48; want equal and <= %d",
				alg, a, zs, b, zb, c, perRun)
		}
		for _, bx := range []box{big, circ} {
			spawns := decomposition(bx, alg, false).spawns.Load()
			if spawns == 0 {
				t.Fatalf("%v %v: parallel walk spawned nothing", alg, bx.sizes)
			}
			if got := allocs(bx, alg, false); got > perRun+perSpawn*float64(spawns) {
				t.Errorf("%v parallel %v: %v allocs for %d spawns, want <= %d + %d per spawn",
					alg, bx.sizes, got, spawns, perRun, perSpawn)
			}
		}
	}
}

// TestInlinedSiblingPanicDrainsSpawned: a kernel panics in a sub-grain
// subzoid that the walker runs inline while a spawned sibling of the same
// level is still in flight. The error must name that zoid, the sibling must
// run to completion before Run returns, and no goroutine may outlive the
// run.
//
// The box is 64x512x8, nonperiodic, uncut in time. Its first cut is the top
// one and spawns everything; the black-x/black-y corner [0,32)x[0,256) it
// cuts out is cut again, under the ordinary rule, and the middle level of
// that cut holds, in enumeration order: gray-x/black-y (7936 points by the
// estimate, over the 4000 grain: spawned), black-x/gray-y (768: inline —
// the target), another black-x/gray-y, and a last gray-x/black-y.
func TestInlinedSiblingPanicDrainsSpawned(t *testing.T) {
	before := runtime.NumGoroutine()
	w := &Walker{NDims: 2, TimeCutoff: 8, Grain: 4000}
	w.Sizes = [zoid.MaxDims]int{64, 512}
	w.Slopes = [zoid.MaxDims]int{1, 1}
	w.Reach = w.Slopes
	target, _ := zoid.New(1, 9, []int{0, 128}, []int{16, 128}, []int{0, -1}, []int{-1, 1})
	var inFlight, finished atomic.Int32
	release := make(chan struct{})
	w.Boundary = func(z zoid.Zoid) {
		switch {
		case z == target:
			for deadline := time.Now().Add(5 * time.Second); inFlight.Load() == 0; {
				if time.Now().After(deadline) {
					t.Error("the spawned sibling never started: the level did not fork as laid out")
					break
				}
				runtime.Gosched()
			}
			close(release)
			panic("inline sibling dies")
		case z.Lo[0] == 16 && z.Hi[0] == 16 && z.DLo[0] == -1 && z.Hi[1] <= 128: // inside the gray-x/black-y sibling
			inFlight.Add(1)
			select {
			case <-release:
			case <-time.After(5 * time.Second):
				t.Error("sibling never released: the target did not run beside it")
			}
			finished.Add(1)
		}
	}
	err := w.Run(1, 9)
	var kp *KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("got %T %v, want *KernelPanicError", err, err)
	}
	if kp.Zoid != target || kp.Value != "inline sibling dies" || len(kp.Stack) == 0 {
		t.Fatalf("panic located at %v (%v), want %v", kp.Zoid, kp.Value, target)
	}
	if in, done := inFlight.Load(), finished.Load(); in == 0 || done != in {
		t.Fatalf("%d sibling base cases were in flight at the panic, %d finished before Run returned", in, done)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
