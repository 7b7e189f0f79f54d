package compiler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/faultpoint"
)

// The differential harness: whatever the row-program clones compute must
// equal RunChecked over the per-point kernel bit for bit — on every engine,
// serial and parallel, and through a supervised run that loses a segment to
// an injected base-case panic and re-runs it from the checkpoint.

// seedArrays fills every initial time slot of every array with a field that
// is a pure function of (seed, array order, slot, flat index).
func seedArrays(tb testing.TB, inst *Instance, seed uint64) {
	tb.Helper()
	for ai, decl := range inst.Checked.Prog.Arrays {
		arr := inst.Arrays[decl.Name]
		buf := make([]float64, arr.PointsPerSlot())
		for t := 0; t < inst.Checked.Depth; t++ {
			h := seed*0x9e3779b97f4a7c15 + uint64(ai)<<32 + uint64(t)
			for i := range buf {
				h ^= uint64(i) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
				h *= 0xbf58476d1ce4e5b9
				buf[i] = float64(h>>11)/float64(1<<53) - 0.25
			}
			if err := arr.CopyIn(t, buf); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// finalState is every array's last Depth time slots after steps steps, in
// declaration order.
func finalState(tb testing.TB, inst *Instance, steps int) []float64 {
	tb.Helper()
	var out []float64
	for _, decl := range inst.Checked.Prog.Arrays {
		arr := inst.Arrays[decl.Name]
		buf := make([]float64, arr.PointsPerSlot())
		for t := steps; t < steps+inst.Checked.Depth; t++ {
			if err := arr.CopyOut(t, buf); err != nil {
				tb.Fatal(err)
			}
			out = append(out, buf...)
		}
	}
	return out
}

// sameBits reports the first index where got and want differ in their bit
// patterns, or -1. Two NaNs count as equal whatever their payloads: Go does
// not pin the operand order of a commutative float operation, and with two
// NaN operands that order picks the payload.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// diffBounds keeps one differential check cheap enough to run thousands of
// times under the fuzzer.
const (
	diffMaxTokens = 512
	diffMaxDepth  = 3
	diffMaxReach  = 6
	diffMaxArrays = 4
	diffMaxPoints = 2000
)

// checkRowsMatchPoints compiles src, picks a box, cutoffs and a fault
// position from seed, and holds the clones against the RunChecked oracle.
// It returns how many segment retries the supervised run absorbed; a source
// that does not compile, or is too costly to check, returns -1.
func checkRowsMatchPoints(t *testing.T, src string, seed uint64) int {
	t.Helper()
	c, err := CompileSource(src)
	if err != nil || c.Prog.Tokens > diffMaxTokens || c.Depth > diffMaxDepth || len(c.Prog.Arrays) > diffMaxArrays {
		return -1
	}
	d := c.Prog.Dims
	for i := 0; i < d; i++ {
		if c.Shape.Reach(i) > diffMaxReach {
			return -1
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	// Extents are non-square and include 1 and values below twice the reach,
	// where the fast span is empty and every point takes the checked path.
	extents := []int{1, 2, 3, 4, 5, 7, 9, 12, 17, 23}
	sizes := make([]int, d)
	points := 1
	for i := range sizes {
		sizes[i] = extents[rng.Intn(len(extents))]
		for points*sizes[i] > diffMaxPoints {
			sizes[i] = (sizes[i] + 1) / 2
		}
		points *= sizes[i]
	}
	steps := []int{0, 1, 7}[rng.Intn(3)]
	// Half the time the paper's default coarsening (one base case spans the
	// box), half the time cutoffs small enough to force real cuts.
	var fine pochoir.Options
	if rng.Intn(2) == 0 {
		fine.TimeCutoff = 1 + rng.Intn(3)
		fine.SpaceCutoff = make([]int, d)
		for i := range fine.SpaceCutoff {
			fine.SpaceCutoff[i] = 2 + rng.Intn(5)
		}
	}
	faultAfter := rng.Intn(6)
	segment := 1 + rng.Intn(3)

	fresh := func() *Instance {
		inst, err := c.NewInstance(sizes...)
		if err != nil {
			t.Fatalf("NewInstance(%v): %v\n%s", sizes, err, src)
		}
		seedArrays(t, inst, seed)
		return inst
	}
	oracle := fresh()
	if err := oracle.RunChecked(steps); err != nil {
		t.Fatalf("RunChecked: %v\n%s", err, src)
	}
	want := finalState(t, oracle, steps)
	check := func(what string, inst *Instance) {
		t.Helper()
		if i := sameBits(finalState(t, inst, steps), want); i >= 0 {
			got := finalState(t, inst, steps)
			t.Fatalf("%s: row clones diverge from RunChecked at flat index %d: %v (%#x) vs %v (%#x)\nsizes %v steps %d options %+v seed %d\n%s",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), sizes, steps, fine, seed, src)
		}
	}

	for _, alg := range []core.Algorithm{core.TRAP, core.STRAP, core.LOOPS} {
		for _, serial := range []bool{true, false} {
			opts := fine
			opts.Algorithm, opts.Serial = alg, serial
			if !serial {
				opts.Grain = 1
			}
			inst := fresh()
			if err := inst.Run(steps, opts); err != nil {
				t.Fatalf("Run %v serial=%v: %v\n%s", alg, serial, err, src)
			}
			check(fmt.Sprintf("Run %v serial=%v", alg, serial), inst)
		}
	}

	// Supervised, with one base-case panic somewhere in the run: the failed
	// segment is restored from its checkpoint and re-run on the clones.
	inst := fresh()
	opts := fine
	opts.Grain = 1
	opts.NoFlightRecorder = true
	inst.Stencil.SetOptions(opts)
	faultpoint.Arm(faultpoint.SiteBase,
		faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: faultAfter, Times: 1})
	rep, err := inst.Stencil.RunSupervised(context.Background(), steps, inst.Kernel(),
		pochoir.SupervisePolicy{SegmentSteps: segment, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
	faultpoint.DisarmAll()
	if err != nil {
		t.Fatalf("RunSupervised: %v\n%s", err, src)
	}
	check("RunSupervised with a walker/base fault", inst)
	return rep.Retries
}

// genSpec writes a random legal specification: dims 1–4, one or two arrays
// with boundary kinds mixed per array, depth 1 or 2, and one statement per
// written array over + - * /, unary minus, max/min, params and literals.
func genSpec(rng *rand.Rand) string {
	d := 1 + rng.Intn(4)
	narr := 1 + rng.Intn(2)
	depth := 1 + rng.Intn(2)
	var b strings.Builder
	fmt.Fprintf(&b, "stencil g { dims: %d;\n  param P = %g; param Q = %g;\n", d, rng.Float64()-0.5, 2*rng.Float64())
	arrays := []string{"a", "b"}[:narr]
	for _, a := range arrays {
		fmt.Fprintf(&b, "  array %s;", a)
	}
	b.WriteString("\n")
	for _, a := range arrays {
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "  boundary %s: periodic;", a)
		case 1:
			fmt.Fprintf(&b, "  boundary %s: clamp;", a)
		case 2:
			fmt.Fprintf(&b, "  boundary %s: constant %g;", a, rng.Float64())
		default:
			fmt.Fprintf(&b, "  boundary %s: zero;", a)
		}
	}
	index := func(offsets bool) string {
		var s strings.Builder
		for i := 0; i < d; i++ {
			s.WriteString(", " + indexNames[i])
			if !offsets {
				continue
			}
			// Mostly nearest neighbours; sometimes a reach of 2 or 3, which
			// exceeds half of the smaller extents.
			dx := rng.Intn(3) - 1
			if rng.Intn(6) == 0 {
				dx = rng.Intn(7) - 3
			}
			if dx != 0 {
				fmt.Fprintf(&s, "%+d", dx)
			}
		}
		return s.String()
	}
	var expr func(level int) string
	expr = func(level int) string {
		if level == 0 || rng.Intn(5) == 0 {
			switch rng.Intn(6) {
			case 0:
				return fmt.Sprintf("%g", float64(1+rng.Intn(40))/8) // never 0: a literal zero divisor is rejected
			case 1:
				return []string{"P", "Q"}[rng.Intn(2)]
			default:
				dt := ""
				if back := rng.Intn(depth); back > 0 {
					dt = fmt.Sprintf("-%d", back)
				}
				return fmt.Sprintf("%s(t%s%s)", arrays[rng.Intn(narr)], dt, index(true))
			}
		}
		l, r := expr(level-1), expr(level-1)
		switch rng.Intn(12) {
		case 0:
			return "-" + "(" + l + ")"
		case 1:
			return "max(" + l + ", " + r + ")"
		case 2:
			return "min(" + l + ", " + r + ")"
		case 3:
			return "(" + l + ") / (" + r + ")"
		case 4, 5, 6:
			return "(" + l + ") * (" + r + ")"
		case 7, 8:
			return "(" + l + ") - (" + r + ")"
		case 9:
			// Unparenthesised: the parser's own left-deep association.
			return l + " + " + r + " - " + expr(level-1)
		default:
			return "(" + l + ") + (" + r + ")"
		}
	}
	b.WriteString("\n  kernel {\n")
	for i, a := range arrays {
		if i > 0 && rng.Intn(4) == 0 {
			continue // a read-only array
		}
		fmt.Fprintf(&b, "    %s(t+1%s) = %s;\n", a, index(false), expr(1+rng.Intn(4)))
	}
	b.WriteString("  }\n}\n")
	return b.String()
}

// TestRowExecDifferential runs the differential harness over generated
// specifications.
func TestRowExecDifferential(t *testing.T) {
	defer faultpoint.DisarmAll()
	n := 300
	if testing.Short() {
		n = 60
	}
	rng := rand.New(rand.NewSource(12))
	checked, retries := 0, 0
	for i := 0; i < n; i++ {
		src := genSpec(rng)
		if _, err := CompileSource(src); err != nil {
			t.Fatalf("generator produced an illegal spec: %v\n%s", err, src)
		}
		if r := checkRowsMatchPoints(t, src, rng.Uint64()); r >= 0 {
			checked++
			retries += r
		}
	}
	if checked < n*9/10 {
		t.Fatalf("only %d of %d generated specs were within the harness's bounds", checked, n)
	}
	if retries == 0 {
		t.Fatal("no supervised run retried a segment: the injected fault never landed")
	}
}

// FuzzRowExec is the differential harness over fuzzed source text, seeded
// from FuzzDSL's corpus; the second argument picks the box, the cutoffs and
// the fault position.
func FuzzRowExec(f *testing.F) {
	for i, s := range fuzzSeeds() {
		f.Add(s, uint64(i))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(genSpec(rng), rng.Uint64())
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		defer faultpoint.DisarmAll()
		if len(src) > MaxSourceBytes {
			t.Skip()
		}
		checkRowsMatchPoints(t, src, seed)
	})
}

// TestRowProgramHeat pins the lowering of the Fig. 6 kernel: one op per
// arithmetic node, the final one writing the destination plane directly.
func TestRowProgramHeat(t *testing.T) {
	c, err := CompileSource(heatSrc)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.NewInstance(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := inst.lowered()
	if len(p.ops) != 10 || p.nrows != 2 || len(p.views) != 2 {
		t.Fatalf("heat2d lowered to %d ops, %d rows, %d views; want 10, 2, 2", len(p.ops), p.nrows, len(p.views))
	}
	if last := p.ops[len(p.ops)-1]; last.dst.kind != inView || p.views[last.dst.idx].dt != 0 {
		t.Fatalf("final op writes %+v, want the destination plane", last.dst)
	}
	if p.reachLo != [MaxDSLDims]int{1, 1} || p.reachHi != [MaxDSLDims]int{1, 1} {
		t.Fatalf("footprint lo %v hi %v, want 1 each way in both dims", p.reachLo, p.reachHi)
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
// lazy lowering — and a pooled scratch must not keep the previous job's
// arrays reachable.
func TestRowScratchSharedAcrossInstances(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, err := CompileSource(heatSrc)
	if err != nil {
		t.Fatal(err)
	}
	z := pochoir.Zoid{T0: 1, T1: 3, N: 2}
	z.Lo[0], z.Hi[0] = -3, 12
	z.Lo[1], z.Hi[1] = 4, 30
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
}

// TestRowEdgePanicIsAttributed: a panic on the checked edge path — here an
// off-domain read with the boundary function taken away — still surfaces as
// a *KernelPanicError naming the zoid.
func TestRowEdgePanicIsAttributed(t *testing.T) {
	c, err := CompileSource(heatSrc)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.NewInstance(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	inst.Arrays["u"].RegisterBoundary(nil)
	err = inst.Run(2, pochoir.Options{Serial: true, NoFlightRecorder: true})
	var kp *pochoir.KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("Run returned %v, want *KernelPanicError", err)
	}
	if kp.Zoid.N != 2 || kp.Zoid.T1 <= kp.Zoid.T0 || !strings.Contains(fmt.Sprint(kp.Value), "off-domain read") {
		t.Fatalf("panic not attributed: zoid %v value %v", kp.Zoid, kp.Value)
	}
}
