// Package cilkview is a work/span analyzer for the TRAP and STRAP
// decompositions, standing in for the Cilkview scalability analyzer the
// paper uses for Fig. 9. It replays the engine's exact recursion
// (cut decisions come from core.Walker.CutSet) without executing any
// kernel, accounting
//
//   - work T1: one unit per space-time grid point, plus per-spawn
//     bookkeeping, and
//   - span T∞: the longest dependency chain, where the subzoids of one
//     dependency level run in parallel and a parallel step over r tasks
//     adds Θ(lg r) to the span (§3, Analysis),
//
// and reports parallelism T1/T∞ — the quantity Fig. 9 plots. Because
// subzoid metrics depend only on translation-invariant geometry, the
// analysis memoizes on a canonical zoid signature and handles the
// uncoarsened recursions of Fig. 9 (down to single grid points) in
// logarithmic-size state.
package cilkview

import (
	"fmt"
	"math/bits"

	"pochoir/internal/core"
	"pochoir/internal/zoid"
)

// Costs weights the accounting. The defaults charge one unit per grid
// point and one unit of span per spawn level, which is how an
// instruction-counting analyzer sees a compiled kernel up to a constant.
type Costs struct {
	// Point is the work (and span) of one kernel application.
	Point int64
	// Spawn is the span overhead multiplier for a parallel step: a step
	// over r tasks adds Spawn*ceil(lg r) to the span.
	Spawn int64
	// Sync is the span overhead of finishing a level (one per level).
	Sync int64
}

// DefaultCosts charges 1 per point, 1 per lg(spawn fan-out), 1 per sync.
func DefaultCosts() Costs { return Costs{Point: 1, Spawn: 1, Sync: 1} }

// Metrics is the analyzer's result.
type Metrics struct {
	Work int64 // T1
	Span int64 // T∞
	// Zoids and Bases count decomposition nodes and base cases.
	Zoids int64
	Bases int64
	// Spawns counts task spawns: a parallel step over r subzoids performs
	// r-1 spawns (the last task runs on the spawning strand, as cilk_spawn
	// does). Syncs counts the fork-join sync points, one per parallel step.
	Spawns int64
	Syncs  int64
}

// Parallelism returns T1/T∞.
func (m Metrics) Parallelism() float64 {
	if m.Span == 0 {
		return 0
	}
	return float64(m.Work) / float64(m.Span)
}

// MetricsView is the JSON-marshalable view of an analysis, with the derived
// parallelism included so consumers (the benchmark lab, the fig9
// experiment) don't re-derive fields by hand.
type MetricsView struct {
	Work        int64   `json:"work"`
	Span        int64   `json:"span"`
	Parallelism float64 `json:"parallelism"`
	Zoids       int64   `json:"zoids"`
	Bases       int64   `json:"bases"`
	Spawns      int64   `json:"spawns"`
	Syncs       int64   `json:"syncs"`
}

// View returns the JSON-marshalable form of m.
func (m Metrics) View() MetricsView {
	return MetricsView{
		Work:        m.Work,
		Span:        m.Span,
		Parallelism: m.Parallelism(),
		Zoids:       m.Zoids,
		Bases:       m.Bases,
		Spawns:      m.Spawns,
		Syncs:       m.Syncs,
	}
}

// Analyzer replays a walker's decomposition.
type Analyzer struct {
	W     *core.Walker
	Costs Costs

	memo map[string]Metrics
}

// New builds an analyzer for a walker configuration. Only the geometric
// fields of the walker are consulted (dims, slopes, sizes, periodicity,
// coarsening, algorithm); base functions are not needed.
func New(w *core.Walker, costs Costs) *Analyzer {
	return &Analyzer{W: w, Costs: costs, memo: make(map[string]Metrics)}
}

// Analyze computes work and span for running home times [t0, t1).
func (a *Analyzer) Analyze(t0, t1 int) Metrics {
	if t1 <= t0 {
		return Metrics{}
	}
	z := zoid.Box(t0, t1, a.W.Sizes[:a.W.NDims])
	if a.W.Algorithm == core.LOOPS {
		return a.analyzeLoops(&z)
	}
	return a.analyze(&z)
}

// analyzeLoops accounts the LOOPS engine exactly as core.Walker.runLoops
// executes it: each time step is swept as height-1 base cases chunked along
// dimension 0, in order on one strand — so the span equals the work and the
// parallelism is 1.
func (a *Analyzer) analyzeLoops(z *zoid.Zoid) Metrics {
	chunk := a.W.SpaceCutoff[0]
	width := z.Hi[0] - z.Lo[0]
	if chunk < 1 {
		chunk = width
	}
	perStep := int64((width + chunk - 1) / chunk)
	vol := z.Volume() * a.Costs.Point
	n := perStep * int64(z.Height())
	return Metrics{Work: vol, Span: vol, Zoids: n, Bases: n}
}

// key builds the canonical translation-invariant signature of z: height
// plus, per dimension, (bottom base, slopes, full-circle flag).
func (a *Analyzer) key(z *zoid.Zoid) string {
	buf := make([]byte, 0, 8+z.N*16)
	buf = fmt.Appendf(buf, "%d", z.Height())
	for i := 0; i < z.N; i++ {
		fc := 0
		if a.W.Periodic[i] && z.IsFullCircle(i, a.W.Sizes[i]) {
			fc = 1
		}
		buf = fmt.Appendf(buf, "|%d,%d,%d,%d", z.BottomBase(i), z.DLo[i], z.DHi[i], fc)
	}
	return string(buf)
}

func lg(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(bits.Len(uint(n - 1)))
}

func (a *Analyzer) analyze(z *zoid.Zoid) Metrics {
	k := a.key(z)
	if m, ok := a.memo[k]; ok {
		return m
	}
	m := a.analyzeUncached(z)
	a.memo[k] = m
	return m
}

func (a *Analyzer) analyzeUncached(z *zoid.Zoid) Metrics {
	var cutBuf [zoid.MaxDims]zoid.Cut
	if cuts := a.W.CutSet(z, cutBuf[:0]); len(cuts) > 0 {
		if a.W.Algorithm == core.STRAP {
			// Frigo–Strumpen-style serial space cuts: one dimension is cut,
			// yielding 2 parallel steps, and the recursion rediscovers the
			// remaining dimensions one at a time — so k cut dimensions cost
			// 2k parallel steps instead of TRAP's k+1.
			cuts = cuts[:1]
		}
		return a.spaceCut(z, cuts)
	}
	if h := z.Height(); h > a.W.TimeCutoffEffective() {
		lower, upper := z.TimeCut()
		ml := a.analyze(&lower)
		mu := a.analyze(&upper)
		return Metrics{
			Work:   ml.Work + mu.Work,
			Span:   ml.Span + mu.Span,
			Zoids:  ml.Zoids + mu.Zoids + 1,
			Bases:  ml.Bases + mu.Bases,
			Spawns: ml.Spawns + mu.Spawns,
			Syncs:  ml.Syncs + mu.Syncs,
		}
	}
	vol := z.Volume() * a.Costs.Point
	return Metrics{Work: vol, Span: vol, Zoids: 1, Bases: 1}
}

// spaceCut accounts a cut along every dimension in cuts at once, walking
// the same enumeration the engine executes: levels run serially; within a
// level everything runs in parallel, costing the max child span plus the
// spawn bookkeeping for the parallel step.
func (a *Analyzer) spaceCut(z *zoid.Zoid, cuts []zoid.Cut) Metrics {
	var hc zoid.HyperCut
	hc.Init(z, cuts)
	out := Metrics{Zoids: 1}
	sub := *z
	for l := 0; l <= hc.NumCut; l++ {
		hc.Start(l)
		n := hc.Left()
		var maxSpan int64
		for hc.Next(&sub) {
			m := a.analyze(&sub)
			out.Work += m.Work
			out.Zoids += m.Zoids
			out.Bases += m.Bases
			out.Spawns += m.Spawns
			out.Syncs += m.Syncs
			maxSpan = max(maxSpan, m.Span)
		}
		out.Span += maxSpan + a.Costs.Spawn*lg(n) + a.Costs.Sync
		out.Spawns += int64(n - 1)
		out.Syncs++
	}
	return out
}

// Config builds the core.Walker geometry for a d-dimensional stencil with
// uniform slope on a cubic grid — the Fig. 9 setting — with uncoarsened
// base cases unless cutoffs are supplied.
func Config(ndims, size, slope int, periodic bool, alg core.Algorithm) *core.Walker {
	w := &core.Walker{NDims: ndims, Algorithm: alg, TimeCutoff: 1}
	for i := 0; i < ndims; i++ {
		w.Sizes[i] = size
		w.Slopes[i] = slope
		w.Reach[i] = slope
		w.Periodic[i] = periodic
	}
	return w
}
