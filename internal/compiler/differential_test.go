package compiler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/faultpoint"
	"pochoir/internal/telemetry"
)

// The differential harness is the suite's one check of the Pochoir
// Guarantee (§2): a specification that passes the checked Phase 1 computes
// the same results on every Phase-2 path. genSpec writes the specification,
// genRun draws the run from a seed, and oracle computes the answer without
// the engine. checkEveryPath holds every path to that answer bit for bit:
//
//	(a) RunChecked: the walker over the shape-checked point executor
//	(b) Stencil.Run of the point kernel: the generic executor,
//	    × TRAP/STRAP/LOOPS × serial/parallel
//	(c) Instance.Run: the row-program clones,
//	    × TRAP/STRAP/LOOPS × serial/parallel × sumK/Go loops
//	(d) RunSpecialized: the interior clone beside the generic executor as
//	    the boundary clone, under fine cutoffs
//	(e) resumed: Instance.Run of k steps, then of the rest
//	(f) observed: Instance.Run, TRAP parallel, with telemetry, metrics and
//	    a trace armed
//	(g) supervised: RunSupervised through a one-shot panic at a walker
//	    site, every segment shadow-verified at tolerance 0
//	(h) spilled: RunSupervised spilling to a journal, cancelled after one
//	    of its spills, then ResumeSupervised on an instance whose state is
//	    garbage, so a slot the checkpoint does not hold reads as garbage

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

// oracle advances a fresh instance by steps steps the plainest way there
// is: the point kernel at kernel time t-HomeDT for every written time t in
// order, at every point in row-major order, each access through the
// arrays' checked Get and Set. It shares the kernel's expression trees and
// the Array API with the paths it judges, and nothing else: no walker, no
// base-case executor, no clone.
func oracle(inst *Instance, steps int) {
	c := inst.Checked
	kern := inst.Kernel()
	sizes := inst.Stencil.Sizes()
	x := make([]int, len(sizes))
	for t := c.Depth; t < c.Depth+steps; t++ {
		for {
			kern(t-c.HomeDT, x)
			i := len(x) - 1
			for ; i >= 0; i-- {
				if x[i]++; x[i] < sizes[i] {
					break
				}
				x[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
}

// diffBounds keep one differential check cheap enough to run thousands of
// times under the fuzzer.
const (
	diffMaxTokens  = 512
	diffMaxDepth   = 3
	diffMaxReach   = 6
	diffMaxArrays  = 4
	diffMaxUpdates = 600 // points × steps
)

// runCase is the run genRun draws for one specification.
type runCase struct {
	sizes []int
	steps int
	// opts holds the cutoffs and grain of every path but (a) and (d): the
	// paper's default coarsening half the time, fine cutoffs the other.
	// fine always holds fine cutoffs.
	opts, fine pochoir.Options
	split      int             // (e) runs split steps, then the rest
	site       faultpoint.Site // (g)'s one-shot panic fires at site
	after      int             // after this many visits
	segment    int             // SegmentSteps of (g)
	spillEvery int             // SegmentSteps of (h): one or two segments
	spills     int             // (h) is cancelled after this many spills
}

// genRun draws a box, a step count, cutoffs, a grain and the positions of
// the fault, the resume and the cancellation from seed.
func genRun(c *Checked, seed uint64) runCase {
	rng := rand.New(rand.NewSource(int64(seed)))
	rc := runCase{steps: rng.Intn(13)}
	d := c.Prog.Dims
	// Extents are non-square and include 1 and values below twice the reach,
	// where the fast span is empty and every point takes the checked path;
	// they shrink to keep points × steps within diffMaxUpdates.
	extents := []int{1, 2, 3, 4, 5, 7, 9, 12, 17, 23}
	rc.sizes = make([]int, d)
	updates := max(rc.steps, 1)
	for i := range rc.sizes {
		rc.sizes[i] = extents[rng.Intn(len(extents))]
		for updates*rc.sizes[i] > diffMaxUpdates {
			rc.sizes[i] = (rc.sizes[i] + 1) / 2
		}
		updates *= rc.sizes[i]
	}
	// Under the default coarsening no zoid here is interior in any
	// dimensionality (the clones declare WholeRows and every row reaches the
	// domain edge), so only fine cutoffs drive the interior clone.
	rc.fine.TimeCutoff = 1 + rng.Intn(3)
	rc.fine.SpaceCutoff = make([]int, d)
	for i := range rc.fine.SpaceCutoff {
		rc.fine.SpaceCutoff[i] = 2 + rng.Intn(5)
	}
	if rng.Intn(2) == 0 {
		rc.opts = rc.fine
	}
	// Grain 0 is the default, under which these boxes never spawn.
	rc.opts.Grain = []int64{0, 1, 1, 4, 64}[rng.Intn(5)]
	rc.fine.Grain = rc.opts.Grain
	rc.split = rng.Intn(rc.steps + 1)
	rc.site = []faultpoint.Site{faultpoint.SiteCut, faultpoint.SiteBase}[rng.Intn(2)]
	rc.after = rng.Intn(6)
	rc.segment = 1 + rng.Intn(3)
	// A spill is an fsync: (h) keeps to a few.
	nspill := 1 + rng.Intn(2)
	rc.spillEvery = max(1, (rc.steps+nspill-1)/nspill)
	rc.spills = 1 + rng.Intn(max(1, (rc.steps+rc.spillEvery-1)/rc.spillEvery))
	return rc
}

// with is rc.opts on the given engine.
func (rc runCase) with(alg core.Algorithm, serial bool) pochoir.Options {
	o := rc.opts
	o.Algorithm, o.Serial = alg, serial
	return o
}

// pathStats is what one check saw of what only some draws reach: the
// interior base cases (f) dispatched, the retries (g) absorbed, the journal
// step (h) resumed from, the rows the boundary clone flattened (see flat in
// rowexec.go), and whether the unit stride is too short for any point to be
// out of reach of both ends of its row, so whole rows run row by row.
type pathStats struct {
	interior             int64
	retries, resumedFrom int
	flatRows             int64
	narrow               bool
}

// pathSet selects the paths a check runs. The serial ones change what every
// run in the process sees — (c) on the sumRows path the CPU does not pick
// flips useVector, and (g) arms a faultpoint — so they must run alone; the
// rest run for many specifications at once.
type pathSet int

const (
	parallelPaths pathSet = 1 << iota
	serialPaths
	everyPath = parallelPaths | serialPaths
)

// checkEveryPath compiles src, draws a run from seed, and holds the paths of
// the table above that set selects to the oracle. It reports false, having
// checked nothing, for a source that does not compile or is too costly to
// check.
func checkEveryPath(t *testing.T, src string, seed uint64, set pathSet) (pathStats, bool) {
	t.Helper()
	var ps pathStats
	c, err := CompileSource(src)
	if err != nil || c.Prog.Tokens > diffMaxTokens || c.Depth > diffMaxDepth || len(c.Prog.Arrays) > diffMaxArrays {
		return ps, false
	}
	for i := 0; i < c.Prog.Dims; i++ {
		if c.Shape.Reach(i) > diffMaxReach {
			return ps, false
		}
	}
	rc := genRun(c, seed)
	steps := rc.steps
	fresh := func() *Instance {
		inst, err := c.NewInstance(rc.sizes...)
		if err != nil {
			t.Fatalf("NewInstance(%v): %v\n%s", rc.sizes, err, src)
		}
		seedArrays(t, inst, seed)
		return inst
	}
	// Every path but (h)'s resume starts over on one instance, from the
	// seeded state: the slots the seed does not fill hold what the previous
	// path left, and no path may read them before it writes them.
	inst := fresh()
	restart := func(opts pochoir.Options) *Instance {
		inst.Stencil.Reset()
		inst.Stencil.SetOptions(opts)
		seedArrays(t, inst, seed)
		return inst
	}
	oracle(inst, steps)
	want := finalState(t, inst, steps)
	if p, last := inst.lowered(), c.Prog.Dims-1; steps > 0 && last > 0 {
		w := p.reachLo[last] + p.reachHi[last]
		ps.narrow = w > 0 && p.sizes[last] <= w
	}
	// Every path but (h)'s resume runs inst, whose row program counts the
	// rows it flattens.
	seen := func() pathStats {
		ps.flatRows = inst.lowered().flatRows.Load()
		return ps
	}
	check := func(path string, inst *Instance, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v\nseed %d sizes %v steps %d options %+v\n%s", path, err, seed, rc.sizes, steps, rc.opts, src)
		}
		got := finalState(t, inst, steps)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%s diverges from the oracle at flat index %d: %v (%#x) vs %v (%#x)\nseed %d sizes %v steps %d options %+v\n%s",
				path, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), seed, rc.sizes, steps, rc.opts, src)
		}
	}
	algs := []core.Algorithm{core.TRAP, core.STRAP, core.LOOPS}
	clones := func(vector bool) {
		for _, alg := range algs {
			for _, serial := range []bool{true, false} {
				inst := restart(pochoir.Options{})
				check(fmt.Sprintf("(c) Instance.Run %v serial=%v vector=%v", alg, serial, vector), inst, inst.Run(steps, rc.with(alg, serial)))
			}
		}
	}
	// The supervised paths keep their failures out of the process-wide
	// flight recorder, whose terminal failures write bundles.
	quiet := rc.opts
	quiet.NoFlightRecorder = true
	policy := func() pochoir.SupervisePolicy {
		return pochoir.SupervisePolicy{
			SegmentSteps: rc.segment,
			BaseDelay:    time.Microsecond,
			MaxDelay:     time.Microsecond,
			Rand:         rand.New(rand.NewSource(int64(seed))).Float64,
		}
	}

	if set&parallelPaths != 0 {
		restart(pochoir.Options{})
		check("(a) RunChecked", inst, inst.RunChecked(steps))

		for _, alg := range algs {
			for _, serial := range []bool{true, false} {
				restart(rc.with(alg, serial))
				check(fmt.Sprintf("(b) Stencil.Run %v serial=%v", alg, serial), inst, inst.Stencil.Run(steps, inst.Kernel()))
			}
		}

		clones(useVector)

		restart(rc.fine)
		check("(d) RunSpecialized interior clone, generic boundary", inst, inst.Stencil.RunSpecialized(steps, pochoir.BaseKernels{
			Interior: inst.Clones().Interior,
			Boundary: inst.Stencil.GenericBase(inst.Kernel()),
		}))

		restart(pochoir.Options{})
		err := inst.Run(rc.split, rc.opts)
		if err == nil {
			err = inst.Run(steps-rc.split, rc.opts)
		}
		check(fmt.Sprintf("(e) Instance.Run %d steps, then %d", rc.split, steps-rc.split), inst, err)

		observed := rc.with(core.TRAP, false)
		observed.Telemetry, observed.Metrics = pochoir.NewRecorder(), pochoir.NewMetrics()
		observed.Trace = pochoir.NewTracer(pochoir.TracerConfig{Seed: 1}).StartTrace("differential", pochoir.TraceContext{})
		restart(pochoir.Options{})
		check("(f) Instance.Run observed", inst, inst.Run(steps, observed))
		ps.interior = inst.Stencil.LastRunStats().InteriorBases

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pol := policy()
		pol.SegmentSteps, pol.SpillDir = rc.spillEvery, t.TempDir()
		spills := 0
		pol.OnEvent = func(ev pochoir.SupervisorEvent) {
			if ev.Kind == telemetry.SupSpill {
				if spills++; spills == rc.spills {
					cancel()
				}
			}
		}
		restart(quiet)
		rep, err := inst.Stencil.RunSupervised(ctx, steps, inst.Kernel(), pol)
		if steps > 0 && !errors.Is(err, context.Canceled) || rep == nil || rep.SpillErrors > 0 {
			t.Fatalf("(h) RunSupervised cancelled at spill %d returned %v, report %+v\n%s", rc.spills, err, rep, src)
		}
		pol.OnEvent = nil
		resumed := fresh()
		resumed.Stencil.SetOptions(quiet)
		if spills > 0 {
			// Every slot of the run's state, the checkpoint's dead one
			// included, starts as garbage the restore must not let through.
			// Inputs the kernel only reads are not state (see Instance):
			// they stay as seeded.
			for _, arr := range resumed.Stencil.Arrays() {
				junk := make([]float64, arr.PointsPerSlot())
				for i := range junk {
					junk[i] = float64(i) + 0.5
				}
				for slot := 0; slot < arr.Slots(); slot++ {
					if err := arr.CopyIn(slot, junk); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		rep, err = resumed.Stencil.ResumeSupervised(context.Background(), steps, resumed.Kernel(), pol)
		if err == nil && spills > 0 && rep.Events[0].Err != "" {
			err = fmt.Errorf("journal of %d spills not resumed: %s", spills, rep.Events[0].Err)
		}
		check(fmt.Sprintf("(h) ResumeSupervised after cancelling at spill %d", rc.spills), resumed, err)
		ps.resumedFrom = rep.Events[0].Attempt
	}
	if set&serialPaths == 0 {
		return seen(), true
	}

	defer func() { useVector = haveVector }()
	for _, vector := range vectorPaths() {
		if vector != haveVector {
			useVector = vector
			clones(vector)
		}
	}
	useVector = haveVector

	restart(quiet)
	pol := policy()
	pol.Verify = pochoir.VerifyPolicy{Enabled: true, Tolerance: 0}
	faultpoint.Arm(rc.site, faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: rc.after, Times: 1})
	defer faultpoint.DisarmAll()
	rep, err := inst.Stencil.RunSupervised(context.Background(), steps, inst.Kernel(), pol)
	faultpoint.DisarmAll()
	check(fmt.Sprintf("(g) RunSupervised, a %s panic after %d visits, verified", rc.site, rc.after), inst, err)
	ps.retries = rep.Retries
	return seen(), true
}

// genSpec writes a random legal specification: dims 1–4, one to three
// arrays with boundary kinds mixed per array, depth 1 or 2, and one
// statement per written array over + - * /, unary minus, max/min, params and
// literals. It leans toward what the row program treats specially: left-deep
// chains of + and - (see chain), and unit-stride offsets of 2 and 3, which
// exceed half of the harness's smaller extents.
func genSpec(rng *rand.Rand) string {
	d := 1 + rng.Intn(4)
	narr := 1 + rng.Intn(3)
	depth := 1 + rng.Intn(2)
	var b strings.Builder
	fmt.Fprintf(&b, "stencil g { dims: %d;\n  param P = %g; param Q = %g;\n", d, rng.Float64()-0.5, 2*rng.Float64())
	arrays := []string{"a", "b", "c"}[:narr]
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
			// Mostly nearest neighbours; a reach of 2 or 3 sometimes, and
			// more often in the unit-stride dimension.
			dx := rng.Intn(3) - 1
			if rng.Intn(6) == 0 || (i == d-1 && rng.Intn(3) == 0) {
				dx = rng.Intn(7) - 3
			}
			if dx != 0 {
				fmt.Fprintf(&s, "%+d", dx)
			}
		}
		return s.String()
	}
	access := func() string {
		dt := ""
		if back := rng.Intn(depth); back > 0 {
			dt = fmt.Sprintf("-%d", back)
		}
		return fmt.Sprintf("%s(t%s%s)", arrays[rng.Intn(narr)], dt, index(true))
	}
	constant := func() string {
		if rng.Intn(2) == 0 {
			return []string{"P", "Q"}[rng.Intn(2)]
		}
		return fmt.Sprintf("%g", float64(1+rng.Intn(40))/8) // never 0: a literal zero divisor is rejected
	}
	var expr func(level int) string
	// chain is a left-deep run of 2 to 12 terms, each what an opSum term
	// can be — an access, a constant times one on either side, a constant
	// times a subexpression, any of them negated — or what it cannot: a
	// bare constant, first or in the middle, and a bare subexpression.
	chain := func(level int) string {
		term := func() string {
			coef := constant()
			switch rng.Intn(100) {
			case 0, 1, 2:
				coef = "-0"
			case 3:
				coef = "(1e308*10)" // folds to +Inf, and poisons the run: rare
			}
			switch rng.Intn(10) {
			case 0, 1:
				return access()
			case 2, 3:
				return coef + "*" + access()
			case 4:
				return access() + "*" + coef
			case 5:
				return coef + "*(" + expr(level-1) + ")"
			case 6:
				return "-" + access()
			case 7:
				return "-(" + access() + "*" + coef + ")"
			case 8:
				return constant()
			default:
				return "(" + expr(level-1) + ")"
			}
		}
		s := term()
		for k := 2 + rng.Intn(11); k > 1; k-- {
			s += []string{" + ", " - "}[rng.Intn(2)] + term()
		}
		return s
	}
	expr = func(level int) string {
		if level <= 0 || rng.Intn(5) == 0 {
			if rng.Intn(3) == 0 {
				return constant()
			}
			return access()
		}
		if rng.Intn(4) == 0 {
			return chain(min(level, 2))
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
		rhs := expr(1 + rng.Intn(4))
		if rng.Intn(2) == 0 {
			rhs = chain(1 + rng.Intn(2))
		}
		fmt.Fprintf(&b, "    %s(t+1%s) = %s;\n", a, index(false), rhs)
	}
	b.WriteString("  }\n}\n")
	return b.String()
}

// TestRowExecDifferential runs the differential harness over generated
// specifications: the paths that may share the process for all of them in
// parallel, then the rest one at a time. It fails unless the draws reached
// what only some of them reach: the interior clone, a supervised retry, and
// a resume from past the journal's first entry.
func TestRowExecDifferential(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	type spec struct {
		src  string
		seed uint64
	}
	rng := rand.New(rand.NewSource(12))
	specs := make([]spec, n)
	for i := range specs {
		specs[i] = spec{genSpec(rng), rng.Uint64()}
		if _, err := CompileSource(specs[i].src); err != nil {
			t.Fatalf("generator produced an illegal spec: %v\n%s", err, specs[i].src)
		}
	}
	// TestRowExecFlatEnds covers every boundary kind and reach of flat rows.
	var checked, interior, lateResumes, flat, narrow atomic.Int64
	t.Run("parallel", func(t *testing.T) {
		for i, sp := range specs {
			t.Run(strconv.Itoa(i), func(t *testing.T) {
				t.Parallel()
				if ps, ok := checkEveryPath(t, sp.src, sp.seed, parallelPaths); ok {
					checked.Add(1)
					if ps.interior > 0 {
						interior.Add(1)
					}
					if ps.flatRows > 0 {
						flat.Add(1)
					}
					if ps.narrow {
						narrow.Add(1)
						if ps.flatRows > 0 {
							t.Errorf("%d rows too short to flatten were flattened\n%s", ps.flatRows, sp.src)
						}
					}
					if ps.resumedFrom > 0 {
						lateResumes.Add(1)
					}
				}
			})
		}
	})
	retries := 0
	for _, sp := range specs {
		if t.Failed() {
			return
		}
		ps, _ := checkEveryPath(t, sp.src, sp.seed, serialPaths)
		retries += ps.retries
	}
	if int(checked.Load()) < n*9/10 {
		t.Fatalf("only %d of %d generated specs were within the harness's bounds", checked.Load(), n)
	}
	if interior.Load() == 0 {
		t.Fatal("no run dispatched a base case to the interior clone")
	}
	if retries == 0 {
		t.Fatal("no supervised run retried a segment: the injected fault never landed")
	}
	if lateResumes.Load() == 0 {
		t.Fatal("no spilled run resumed from past the journal's first entry")
	}
	if flat.Load() == 0 {
		t.Fatal("no run flattened rows")
	}
	if narrow.Load() == 0 {
		t.Fatal("no run had rows too short to flatten")
	}
	t.Logf("%d specs checked; %d ran the interior clone; %d supervised retries; %d resumes from a later journal entry; %d flattened rows, %d had rows too short to",
		checked.Load(), interior.Load(), retries, lateResumes.Load(), flat.Load(), narrow.Load())
}

// FuzzRowExec is the differential harness over fuzzed source text; the
// second argument draws the run. The corpus holds FuzzDSL's seeds, generated
// specs, one spec per path of the row program, and the fixed stencils of
// the hand-written reference tests the harness replaced.
func FuzzRowExec(f *testing.F) {
	for i, s := range fuzzSeeds() {
		f.Add(s, uint64(i))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(genSpec(rng), rng.Uint64())
	}
	// One spec per path of the row program: chains of 2, 9 and 12 terms (the
	// last continues in a second op), edge rows under each boundary kind that
	// is not the torus, and unit-stride ends with a reach of 2.
	chain := func(k int) string {
		s := "stencil s { dims: 1; array u; boundary u: clamp; kernel { u(t+1,x) = u(t,x)"
		for i := 1; i < k; i++ {
			s += fmt.Sprintf(" %c 0.%d*u(t,x%+d)", "+-"[i%2], i, i%5-2)
		}
		return s + "; } }"
	}
	for i, s := range []string{
		chain(2), chain(9), chain(12),
		strings.Replace(heatSrc, "periodic", "clamp", 1),
		strings.Replace(heatSrc, "periodic", "constant 0.75", 1),
		strings.Replace(heatSrc, "periodic", "zero", 1),
		boundarySrc("periodic"), boundarySrc("clamp"), boundarySrc("constant -1.5"),
	} {
		f.Add(s, uint64(100+i))
	}
	for i, s := range referenceSeeds {
		f.Add(s, uint64(200+i))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		if len(src) > MaxSourceBytes {
			t.Skip()
		}
		checkEveryPath(t, src, seed, everyPath)
	})
}

// referenceSeeds are the fixed stencils of the root package's former
// reference tests, which compared the engine with hand-written loops: the
// Fig. 6 heat kernel (heatSrc) under a Dirichlet halo of 0.5, the 1D
// three-point average on a torus and under a zero halo, the depth-2 wave,
// and a depth-2 3D stencil with asymmetric cells of reach 2 like the ones
// the random-shape test drew.
var referenceSeeds = []string{
	heatSrc,
	strings.Replace(heatSrc, "periodic", "constant 0.5", 1),
	"stencil h { dims: 1; array u; boundary u: periodic; kernel { u(t+1,x) = 0.25*(u(t,x-1) + 2*u(t,x) + u(t,x+1)); } }",
	"stencil h { dims: 1; array u; boundary u: zero; kernel { u(t+1,x) = 0.25*(u(t,x-1) + 2*u(t,x) + u(t,x+1)); } }",
	"stencil w { dims: 1; array u; boundary u: periodic;\n" +
		"  kernel { u(t+1,x) = 2*u(t,x) - u(t-1,x) + 0.3*(u(t,x+1) - 2*u(t,x) + u(t,x-1)); } }",
	"stencil r { dims: 3; array u; boundary u: zero;\n" +
		"  kernel { u(t+1,x,y,z) = 0.25*u(t,x,y-2,z+1) + 0.125*u(t-1,x+2,y,z-1) + 0.3*u(t,x-1,y+1,z) + 0.2*u(t-1,x,y,z+2); } }",
}
