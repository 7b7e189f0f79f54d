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
	"pochoir/internal/core"
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
// boundary clone (edge points and flattened whole rows included).
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
	flat := pochoir.Zoid{T0: 1, T1: 4, N: 2} // whole rows: flattened
	flat.Lo[0], flat.Hi[0] = -2, 40
	flat.Lo[1], flat.Hi[1] = 0, 64
	for _, tc := range []struct {
		name string
		base pochoir.BaseFunc
		z    pochoir.Zoid
	}{
		{"interior", inst.clones.Interior, interior},
		{"boundary", inst.clones.Boundary, wrapped},
		{"flat", inst.clones.Boundary, flat},
	} {
		before := inst.lowered().flatRows.Load()
		tc.base(tc.z) // warm the pool
		if flattened := inst.lowered().flatRows.Load() > before; flattened != (tc.name == "flat") {
			t.Fatalf("%s: flattened rows %v", tc.name, flattened)
		}
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

// flatSrc is a two-array, two-statement stencil in dims dimensions whose
// unit-stride reach is lo below and hi above, with boundary kinds ku and kv.
// Both statements read across the outer dimensions as well.
func flatSrc(dims, lo, hi int, ku, kv string) string {
	idx := func(d0, dl int) string {
		s := ""
		for i, n := range indexNames[:dims] {
			switch {
			case i == 0 && d0 != 0:
				s += fmt.Sprintf(", %s%+d", n, d0)
			case i == dims-1 && dl != 0:
				s += fmt.Sprintf(", %s%+d", n, dl)
			default:
				s += ", " + n
			}
		}
		return s
	}
	return fmt.Sprintf(`stencil f { dims: %d; array u; array v; boundary u: %s; boundary v: %s;
  kernel {
    u(t+1%s) = 0.5*u(t%s) + 0.25*u(t%s) - 0.125*v(t%s) + 0.0625*u(t%s);
    v(t+1%s) = max(v(t%s), u(t%s)) - 0.5*v(t%s);
  } }`, dims, ku, kv,
		idx(0, 0), idx(0, 0), idx(0, -lo), idx(1, hi), idx(-1, 0),
		idx(0, 0), idx(0, 0), idx(-1, hi), idx(0, -lo))
}

// TestRowExecFlatEnds holds the flattened rows to the oracle under every
// boundary kind and unit-stride reach of 1 and 2, either side or both, at
// every unit-stride extent from 1 — where the whole row is within reach of
// an end, and the per-row path runs instead — to past twice the reach.
func TestRowExecFlatEnds(t *testing.T) {
	kinds := []string{"periodic", "clamp", "zero", "constant 0.75"}
	for k, ku := range kinds {
		kv := kinds[(k+1)%len(kinds)]
		for _, r := range [][2]int{{1, 1}, {2, 0}, {0, 2}, {1, 2}, {2, 2}} {
			for _, dims := range []int{2, 3} {
				c, err := CompileSource(flatSrc(dims, r[0], r[1], ku, kv))
				if err != nil {
					t.Fatal(err)
				}
				for n := 1; n <= 2*(r[0]+r[1])+2; n++ {
					sizes := []int{6, n}
					if dims == 3 {
						sizes = []int{4, 5, n}
					}
					inst, _ := c.NewInstance(sizes...)
					want, _ := c.NewInstance(sizes...)
					seedArrays(t, inst, uint64(n))
					seedArrays(t, want, uint64(n))
					oracle(want, 4)
					for _, alg := range []core.Algorithm{core.TRAP, core.LOOPS} {
						inst.Stencil.Reset()
						seedArrays(t, inst, uint64(n))
						if err := inst.Run(4, pochoir.Options{Algorithm: alg}); err != nil {
							t.Fatal(err)
						}
						if i := sameBits(finalState(t, inst, 4), finalState(t, want, 4)); i >= 0 {
							t.Fatalf("%v, u %s, v %s, reach %v, sizes %v: diverges from the oracle at flat index %d",
								alg, ku, kv, r, sizes, i)
						}
					}
					if got := inst.lowered().flatRows.Load(); (got > 0) != (n > r[0]+r[1]) {
						t.Fatalf("u %s, v %s, reach %v, sizes %v: %d rows flattened", ku, kv, r, sizes, got)
					}
				}
			}
		}
	}
}

// TestRowExecFlatOverwritesProvisional: a flattened step leaves no
// provisional value behind. The slot being written starts as NaN, the box
// is three of six whole rows, and afterwards its rows hold the oracle's
// values while the rows around it still hold the NaN, bit for bit.
func TestRowExecFlatOverwritesProvisional(t *testing.T) {
	poison := math.Float64frombits(0x7ff8_dead_beef_0001)
	for _, kind := range []string{"periodic", "clamp", "zero", "constant 0.75"} {
		c, err := CompileSource(flatSrc(2, 2, 2, kind, kind))
		if err != nil {
			t.Fatal(err)
		}
		const X, Y = 6, 11
		inst, _ := c.NewInstance(X, Y)
		want, _ := c.NewInstance(X, Y)
		seedArrays(t, inst, 9)
		seedArrays(t, want, 9)
		oracle(want, 1)
		p := inst.lowered()
		for _, a := range inst.Arrays {
			a.Fill(1, poison)
		}
		z := pochoir.Zoid{T0: 1, T1: 2, N: 2}
		z.Lo[0], z.Hi[0] = 2, 5 // rows 1 to 4 bind every operand in domain
		z.Lo[1], z.Hi[1] = 0, Y
		p.exec(z, true)
		if n := p.flatRows.Load(); n != 3 {
			t.Fatalf("%s: the step flattened %d rows, want all 3 of the box", kind, n)
		}
		for _, name := range []string{"u", "v"} {
			got, ref := inst.Arrays[name].Slot(1), want.Arrays[name].Slot(1)
			for i := range got {
				row := i / Y
				if row >= 2 && row < 5 {
					if sameBits(got[i:i+1], ref[i:i+1]) >= 0 {
						t.Fatalf("%s: %s at row %d point %d is %v, the oracle's %v", kind, name, row, i%Y, got[i], ref[i])
					}
				} else if math.Float64bits(got[i]) != math.Float64bits(poison) {
					t.Fatalf("%s: %s at row %d point %d outside the box was written: %v", kind, name, row, i%Y, got[i])
				}
			}
		}
	}
}
