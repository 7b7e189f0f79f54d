package compiler

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
)

// heat1dSrc is the three-point average the daemon's small jobs run.
const heat1dSrc = `stencil heat1d { dims: 1; array u; boundary u: periodic;
  kernel { u(t+1, x) = 0.25*u(t, x-1) + 0.5*u(t, x) + 0.25*u(t, x+1); } }`

// TestRowProgramHeat pins the lowering of the Fig. 6 kernel: each Laplacian
// is one three-term op into a scratch row, and the update is one three-term
// op over u and the two rows that writes the destination plane directly.
func TestRowProgramHeat(t *testing.T) {
	lower := func(src string, sizes ...int) *rowProgram {
		c, err := CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := c.NewInstance(sizes...)
		if err != nil {
			t.Fatal(err)
		}
		return inst.lowered()
	}
	coefs := func(p *rowProgram, op rowOp) []float64 { return p.coefs[op.t0 : op.t0+op.k] }
	p := lower(heatSrc, 8, 8)
	if len(p.ops) != 3 || p.nrows != 2 || len(p.views) != 2 {
		t.Fatalf("heat2d lowered to %d ops, %d rows, %d views; want 3, 2, 2", len(p.ops), p.nrows, len(p.views))
	}
	for i, want := range [][]float64{{1, -2, 1}, {1, -2, 1}, {1, 0.125, 0.125}} {
		if op := p.ops[i]; op.code != opSum || !slices.Equal(coefs(p, op), want) {
			t.Errorf("heat2d op %d is code %d with coefficients %v, want an opSum with %v", i, op.code, coefs(p, op), want)
		}
	}
	if last := p.ops[2]; last.dst.kind != inView || p.views[last.dst.idx].dt != 0 {
		t.Fatalf("final op writes %+v, want the destination plane", last.dst)
	}
	if x := p.args[p.ops[2].t0:]; x[0].kind != inView || x[1].kind != inRow || x[2].kind != inRow {
		t.Fatalf("final op reads %+v, want u and the two Laplacian rows", x[:3])
	}
	if p.reachLo != [MaxDSLDims]int{1, 1} || p.reachHi != [MaxDSLDims]int{1, 1} {
		t.Fatalf("footprint lo %v hi %v, want 1 each way in both dims", p.reachLo, p.reachHi)
	}

	p = lower(heat1dSrc, 8)
	if len(p.ops) != 1 || p.nrows != 0 || !slices.Equal(coefs(p, p.ops[0]), []float64{0.25, 0.5, 0.25}) {
		t.Fatalf("heat1d lowered to %d ops, %d rows, coefficients %v; want one opSum, no rows", len(p.ops), p.nrows, coefs(p, p.ops[0]))
	}

	// What is not a term stays an op of its own; what exceeds an op
	// continues in the next.
	for _, tc := range []struct {
		rhs  string
		want []opcode
	}{
		{"u(t,x) - 0.5*u(t,x-1)", []opcode{opSum}},
		{"u(t,x) + 1 + u(t,x-1)", []opcode{opAdd, opSum}},
		{"2 - u(t,x)", []opcode{opSub}},
		{"u(t,x)*u(t,x-1) + u(t,x+1)", []opcode{opMul, opSum}},
		{"-(3*u(t,x)) - -u(t,x-1)", []opcode{opSum}},
		{"u(t,x)" + strings.Repeat(" + u(t,x-1)", 11), []opcode{opSum, opSum}},
		{"0.5*(u(t,x-1)+u(t,x+1))", []opcode{opSum, opMul}},
	} {
		p := lower("stencil s { dims: 1; array u; kernel { u(t+1,x) = "+tc.rhs+"; } }", 8)
		var got []opcode
		for _, op := range p.ops {
			got = append(got, op.code)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s lowered to ops %v, want %v", tc.rhs, got, tc.want)
		}
	}
	p = lower("stencil s { dims: 1; array u; kernel { u(t+1,x) = -(3*u(t,x)) - -u(t,x-1); } }", 8)
	if cs := coefs(p, p.ops[0]); !slices.Equal(cs, []float64{-3, 1}) {
		t.Errorf("-(3*u) - -u has coefficients %v, want [-3 1]", cs)
	}
}

// floodSpec is a legal left-deep chain of n additions — the shape a token
// flood just under the front-door limit takes.
func floodSpec(n int) string {
	return "stencil s { dims: 1; array u; kernel { u(t+1,x) = u(t,x)" + strings.Repeat("+1", n) + "; } }"
}

// TestRowProgramScratchBound: scratch is bounded by the front door, not by
// the node count, and lowering is linear in nodes.
func TestRowProgramScratchBound(t *testing.T) {
	instance := func(src string) *Instance {
		c, err := CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := c.NewInstance(16)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	full := (MaxTokens - 64) / 2
	big, small := instance(floodSpec(full)), instance(floodSpec(full/16))
	p := lowerRows(big)
	if len(p.ops) != full {
		t.Fatalf("%d additions lowered to %d ops", full, len(p.ops))
	}
	if p.nrows > MaxExprDepth+2 {
		t.Fatalf("left-deep chain of %d nodes needs %d scratch rows, want <= %d", full, p.nrows, MaxExprDepth+2)
	}
	// 16 times the nodes should take about 16 times as long; a quadratic
	// lowering would take 256 times. The timing has to survive a shared
	// box whose stalls are many times a lowering: the two sizes alternate,
	// each keeps its fastest of 15 with the collector off (a lowering
	// allocates megabytes over a near-empty heap, and would otherwise time
	// the collector), and one attempt in three is enough.
	var tBig, tSmall time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		tBig, tSmall = math.MaxInt64, math.MaxInt64
		gc := debug.SetGCPercent(-1)
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			lowerRows(big)
			tBig = min(tBig, time.Since(t0))
			t0 = time.Now()
			lowerRows(small)
			tSmall = min(tSmall, time.Since(t0))
		}
		debug.SetGCPercent(gc)
		if tBig <= 100*tSmall+time.Millisecond {
			break
		}
	}
	t.Logf("lowering %d nodes took %v, %d nodes %v", full, tBig, full/16, tSmall)
	if tBig > 100*tSmall+time.Millisecond {
		t.Fatalf("lowering %d nodes took %v, %d nodes %v: not linear", full, tBig, full/16, tSmall)
	}

	// The worst shape for row reuse: a balanced tree, where neither operand
	// of any node is free. Its need grows with log2(leaves), and the token
	// cap bounds the leaves.
	bal := "u(t,x)*u(t,x-1)"
	for i := 0; i < 9; i++ {
		bal = "(" + bal + ")+(" + bal + ")"
	}
	p = lowerRows(instance("stencil s { dims: 1; array u; kernel { u(t+1,x) = " + bal + "; } }"))
	if p.nrows != 10 {
		t.Fatalf("balanced tree of 512 products needs %d scratch rows, want 10 (one per level)", p.nrows)
	}
}

// TestRowClonesAllocateNothing: once the scratch pool is warm a base case
// allocates nothing, on the interior clone and on the row-splitting
// boundary clone (edge points included).
func TestRowClonesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, err := CompileSource(heatSrc)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.NewInstance(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	seedArrays(t, inst, 1)
	interior := pochoir.Zoid{T0: 1, T1: 4, N: 2}
	interior.Lo[0], interior.Hi[0] = 8, 40
	interior.Lo[1], interior.Hi[1] = 8, 40
	wrapped := pochoir.Zoid{T0: 1, T1: 4, N: 2}
	wrapped.Lo[0], wrapped.Hi[0] = -5, 20
	wrapped.Lo[1], wrapped.Hi[1] = 50, 70
	for _, tc := range []struct {
		name string
		base pochoir.BaseFunc
		z    pochoir.Zoid
	}{
		{"interior", inst.clones.Interior, interior},
		{"boundary", inst.clones.Boundary, wrapped},
	} {
		tc.base(tc.z) // warm the pool
		if n := testing.AllocsPerRun(50, func() { tc.base(tc.z) }); n != 0 {
			t.Errorf("%s clone: %v allocations per warm base case, want 0", tc.name, n)
		}
	}
}

// TestRowScratchSharedAcrossInstances: a daemon builds one Instance per job
// and runs it once, so the scratch has to carry over from one instance to
// the next — a new instance's first base case allocates nothing beyond its
// lazy lowering — and a pooled scratch must keep nothing of the previous
// job: not its arrays, and not its rebound offsets (its fill rows were never
// the scratch's: they belong to the program).
func TestRowScratchSharedAcrossInstances(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// A constant boundary and a zoid over a corner: edge rows bound to the
	// fill row, and chunks that leave the unit-stride extent.
	c, err := CompileSource(strings.Replace(heatSrc, "periodic", "constant 7", 1))
	if err != nil {
		t.Fatal(err)
	}
	z := pochoir.Zoid{T0: 1, T1: 3, N: 2}
	z.Lo[0], z.Hi[0] = -3, 12
	z.Lo[1], z.Hi[1] = 4, 35
	fresh := func() *Instance {
		inst, err := c.NewInstance(32, 32)
		if err != nil {
			t.Fatal(err)
		}
		seedArrays(t, inst, 1)
		inst.lowered()
		return inst
	}
	fresh().clones.Boundary(z) // warm the pool
	build := testing.AllocsPerRun(20, func() { fresh() })
	both := testing.AllocsPerRun(20, func() { fresh().clones.Boundary(z) })
	if both != build {
		t.Errorf("building an instance allocates %v times, building it and running its first base case %v: the base case allocated", build, both)
	}
	sc := scratchPool.Get().(*rowScratch)
	defer scratchPool.Put(sc)
	for i, s := range sc.slots[:cap(sc.slots)] {
		if s != nil {
			t.Errorf("pooled scratch still holds view %d of a finished instance", i)
		}
	}
	if len(sc.bound) != 0 {
		t.Errorf("pooled scratch still holds %d rebound offsets of a finished instance", len(sc.bound))
	}
}

// TestRowEdgePanicIsAttributed: a panic inside a clone — here a view bound
// out of range — still surfaces as a *KernelPanicError naming the zoid, and
// so does one injected at the walker's base-case faultpoint.
func TestRowEdgePanicIsAttributed(t *testing.T) {
	defer faultpoint.DisarmAll()
	c, err := CompileSource(heatSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func(*Instance)
	}{
		{"out-of-range view", "out of range", func(inst *Instance) { inst.lowered().offs[0] = 1 << 40 }},
		{"walker/base faultpoint", "faultpoint", func(*Instance) {
			faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, Times: 1})
		}},
	} {
		inst, err := c.NewInstance(16, 16)
		if err != nil {
			t.Fatal(err)
		}
		tc.breakIt(inst)
		err = inst.Run(2, pochoir.Options{Serial: true, NoFlightRecorder: true})
		var kp *pochoir.KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("%s: Run returned %v, want *KernelPanicError", tc.name, err)
		}
		if kp.Zoid.N != 2 || kp.Zoid.T1 <= kp.Zoid.T0 || !strings.Contains(fmt.Sprint(kp.Value), tc.want) {
			t.Fatalf("%s: panic not attributed: zoid %v value %v", tc.name, kp.Zoid, kp.Value)
		}
	}
}

// boundarySrc is heat2d with a reach of 2 in the unit-stride dimension and
// the named boundary.
func boundarySrc(boundary string) string {
	return "stencil s { dims: 2; array u; boundary u: " + boundary + ";\n" +
		"  kernel { u(t+1,x,y) = 0.5*u(t,x,y) + 0.125*(u(t,x-1,y) + u(t,x+1,y) + u(t,x,y-2) + u(t,x,y+2)); } }"
}

// TestRunNeverBuildsThePointKernel: the clones resolve every boundary kind
// themselves. The point kernel's closure trees do not exist until Kernel's
// function first runs, and Run — matching RunChecked on every kind, extents
// below twice the reach included — never makes them.
func TestRunNeverBuildsThePointKernel(t *testing.T) {
	for _, boundary := range []string{"periodic", "clamp", "zero", "constant 3.5"} {
		c, err := CompileSource(boundarySrc(boundary))
		if err != nil {
			t.Fatal(err)
		}
		for _, sizes := range [][]int{{9, 11}, {2, 3}, {1, 1}} {
			inst, _ := c.NewInstance(sizes...)
			oracle, _ := c.NewInstance(sizes...)
			seedArrays(t, inst, 3)
			seedArrays(t, oracle, 3)
			kern := inst.Kernel()
			if err := inst.Run(5, pochoir.Options{TimeCutoff: 2, SpaceCutoff: []int{3, 3}}); err != nil {
				t.Fatal(err)
			}
			if inst.point != nil {
				t.Fatalf("%s %v: Run built the point kernel", boundary, sizes)
			}
			if err := oracle.RunChecked(5); err != nil {
				t.Fatal(err)
			}
			if i := sameBits(finalState(t, inst, 5), finalState(t, oracle, 5)); i >= 0 {
				t.Fatalf("%s %v: Run diverges from RunChecked at flat index %d", boundary, sizes, i)
			}
			kern(5, make([]int, 2))
			if inst.point == nil {
				t.Fatalf("%s %v: the point kernel was not built on first use", boundary, sizes)
			}
		}
	}
}

// TestInstanceOwnsItsBoundaries: Run resolves off-domain accesses from the
// declared boundary kinds, so a boundary function registered on one of the
// instance's arrays after NewInstance is ignored by Run (it would change
// only what the point kernel computes; see Instance).
func TestInstanceOwnsItsBoundaries(t *testing.T) {
	c, err := CompileSource(boundarySrc("clamp"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(reregister bool) []float64 {
		inst, _ := c.NewInstance(6, 7)
		seedArrays(t, inst, 9)
		if reregister {
			inst.Arrays["u"].RegisterBoundary(pochoir.ConstBoundary(99.0))
		}
		if err := inst.Run(4, pochoir.Options{}); err != nil {
			t.Fatal(err)
		}
		return finalState(t, inst, 4)
	}
	if i := sameBits(run(true), run(false)); i >= 0 {
		t.Fatalf("a re-registered boundary changed Run's result at flat index %d", i)
	}
}

// TestRunCheckedAllocatesPerRunNotPerPoint: the oracle of every
// differential test, and of the gateway's shadow verification, takes its
// index scratch from a pool and its shape-check scratch from the array.
func TestRunCheckedAllocatesPerRunNotPerPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, err := CompileSource(heatSrc)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := c.NewInstance(64, 64)
	seedArrays(t, inst, 1)
	const steps = 4
	allocs := testing.AllocsPerRun(3, func() {
		if err := inst.RunChecked(steps); err != nil {
			t.Fatal(err)
		}
	})
	if perPoint := allocs / (64 * 64 * steps); perPoint > 0.1 {
		t.Fatalf("RunChecked allocates %.2f objects per point (%v per run), want none per point", perPoint, allocs)
	}
	t.Logf("RunChecked: %v allocations for %d point updates", allocs, 64*64*steps)
}
