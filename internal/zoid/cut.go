package zoid

// This file implements the three decomposition primitives of TRAP:
// parallel space cuts (Fig. 7a/7b), time cuts (Fig. 7c), and hyperspace
// cuts with dependency-level assignment (Lemma 1). It also implements the
// "circle cut" used by the unified periodic/nonperiodic scheme of §4: a
// spatial dimension that still spans its full periodic extent with zero
// slopes is cut into two black zoids and two gray zoids, one of the grays
// wrapping the seam in virtual coordinates (xa > true xb represented as
// (xa, N + xb), exactly as the paper describes).

// CanSpaceCut reports whether a parallel space cut may be applied along
// dimension i of z for a stencil with the given slope in that dimension.
//
// The paper's pseudocode (Fig. 2, line 5) states the condition for the
// top-level zero-slope case as w >= 2*sigma*dt. For zoids whose sides
// already move at +-sigma, trisecting the longer base in half is only
// guaranteed to yield well-defined black subzoids when the longer base is
// at least 4*sigma*dt (each half must absorb up to 2*sigma*dt of slope
// motion). The production Pochoir implementation uses this same threshold
// (thres = 2*slope*lt, cut when base >= 2*thres); we follow it.
//
// minWidth, when positive, suppresses cuts on already-narrow zoids and is
// the space-coarsening knob of §4 ("Coarsening of base cases").
func (z *Zoid) CanSpaceCut(i, slope, minWidth int) bool {
	if slope <= 0 {
		return false
	}
	w := z.Width(i)
	if minWidth > 0 && w <= minWidth {
		return false
	}
	return w >= 4*slope*z.Height()
}

// piece is one part of a cut along a single dimension: the bounds at T0 and
// their slopes — the four values a cut changes in the parent zoid.
type piece struct{ lo, hi, dlo, dhi int }

func (z *Zoid) setPiece(i int, p piece) {
	z.Lo[i], z.Hi[i], z.DLo[i], z.DHi[i] = p.lo, p.hi, p.dlo, p.dhi
}

// trisect computes the pieces of a parallel space cut along dimension i
// (Fig. 7) in label order 1,2,3: labels 1 and 3 are the "black" zoids,
// label 2 the "gray" minimal zoid between the two cut lines.
func (z *Zoid) trisect(i, slope int) (p [3]piece, upright bool) {
	dt := z.Height()
	upright = z.Upright(i)
	var a, b, da, db int // the cut lines' positions at T0 and their slopes
	if upright {
		// Split the bottom (longer) base at its midpoint. The black
		// halves shrink inward at +-slope; the gray triangle grows
		// outward from the midpoint and is processed after them.
		mid := z.Lo[i] + z.BottomBase(i)/2
		a, da, b, db = mid, -slope, mid, +slope
	} else {
		// Inverted: split the top (longer) base at its midpoint and
		// project the cut lines down at +-slope. The gray triangle at the
		// bottom middle is processed before the two black zoids that widen
		// over it.
		ua := z.Lo[i] + z.DLo[i]*dt
		ub := z.Hi[i] + z.DHi[i]*dt
		um := ua + (ub-ua)/2
		a, da, b, db = um-slope*dt, +slope, um+slope*dt, -slope
	}
	p[0] = piece{z.Lo[i], a, z.DLo[i], da} // black left
	p[1] = piece{a, b, da, db}             // gray middle
	p[2] = piece{b, z.Hi[i], db, z.DHi[i]} // black right
	return p, upright
}

// SpaceCut trisects z along dimension i per Fig. 7, returning the three
// subzoids in label order 1,2,3 together with the uprightness of the
// projection trapezoid that was cut. For an upright projection the blacks
// precede the gray; for an inverted projection the gray precedes the
// blacks. The caller is responsible for having checked CanSpaceCut.
func (z *Zoid) SpaceCut(i, slope int) (sub [3]Zoid, upright bool) {
	p, upright := z.trisect(i, slope)
	for j := range sub {
		sub[j] = *z
		sub[j].setPiece(i, p[j])
	}
	return sub, upright
}

// IsFullCircle reports whether dimension i of z still spans the whole
// periodic extent n with zero slopes — the only situation in which a wrap
// around the torus is possible and a CircleCut is required instead of an
// ordinary trisection.
func (z *Zoid) IsFullCircle(i, n int) bool {
	return z.Lo[i] == 0 && z.Hi[i] == n && z.DLo[i] == 0 && z.DHi[i] == 0
}

// CanCircleCut reports whether the full periodic dimension i (of extent n)
// can be cut. Each of the two black halves must stay well-defined while
// shrinking at +-slope from a base of n/2, which requires n >= 4*slope*dt,
// the same threshold as CanSpaceCut.
func (z *Zoid) CanCircleCut(i, slope, n, minWidth int) bool {
	if slope <= 0 {
		return false
	}
	if minWidth > 0 && n <= minWidth {
		return false
	}
	return n >= 4*slope*z.Height()
}

// circle computes the pieces of a circle cut of the full periodic dimension
// of extent n: two black zoids shrinking away from the cut lines at 0 and
// n/2, then two gray triangles growing over the cut lines. The gray
// covering the seam at 0==n is expressed in virtual coordinates [n, n)
// growing to [n-s*dt, n+s*dt); the base-case boundary clone reduces virtual
// coordinates modulo n.
func circle(slope, n int) [4]piece {
	mid := n / 2
	return [4]piece{
		{0, mid, +slope, -slope},   // black A: [0, mid) shrinking inward
		{mid, n, +slope, -slope},   // black B: [mid, n) shrinking inward
		{mid, mid, -slope, +slope}, // gray growing over the interior cut line
		{n, n, -slope, +slope},     // gray growing over the seam 0==n
	}
}

// circleContrib are the dependency contributions of circle's pieces: the
// blacks run in the first parallel step, the grays in the second.
var circleContrib = [4]int{0, 0, 1, 1}

// CircleCut cuts the full periodic dimension i (extent n) into its four
// pieces (see circle), returned with their dependency contributions (0 for
// the blacks, 1 for the grays), composable with trisections in a hyperspace
// cut.
func (z *Zoid) CircleCut(i, slope, n int) (sub [4]Zoid, contrib [4]int) {
	for j, p := range circle(slope, n) {
		sub[j] = *z
		sub[j].setPiece(i, p)
	}
	return sub, circleContrib
}

// TimeCut halves z at the midpoint of its time dimension (Fig. 7c),
// returning the lower subzoid (which must be processed first) and the upper.
func (z *Zoid) TimeCut() (lower, upper Zoid) {
	return z.TimeCutAt(z.Height() / 2)
}

// TimeCutAt cuts z after the first h time steps. It is used by coarsened
// walkers whose time threshold is not a power-of-two divisor of the height.
func (z *Zoid) TimeCutAt(h int) (lower, upper Zoid) {
	lower, upper = *z, *z
	lower.T1 = z.T0 + h
	upper.T0 = z.T0 + h
	for i := 0; i < z.N; i++ {
		upper.Lo[i] = z.Lo[i] + z.DLo[i]*h
		upper.Hi[i] = z.Hi[i] + z.DHi[i]*h
	}
	return lower, upper
}

// CutKind selects the decomposition applied along one dimension of a
// hyperspace cut.
type CutKind int

const (
	// CutTrisect is the ordinary parallel space cut of Fig. 7(a)/(b).
	CutTrisect CutKind = iota
	// CutCircle is the periodic full-extent cut (see CircleCut).
	CutCircle
)

// Cut names one dimension participating in a hyperspace cut.
type Cut struct {
	Dim   int
	Slope int
	Kind  CutKind
	Size  int // periodic extent; used by CutCircle only
}

// HyperCut enumerates the subzoids of a hyperspace cut: parallel space cuts
// applied simultaneously along every listed dimension, producing 3 pieces
// per trisected dimension and 4 per circle-cut dimension, each combination
// assigned its dependency level per Lemma 1:
//
//	dep(u) = sum_i (u_i + I_i) mod 2
//
// where the per-dimension contribution is 0 for pieces that may run in the
// first parallel step along that dimension (blacks of an upright or circle
// cut, gray of an inverted cut) and 1 for the pieces that must wait. The
// subzoids of one level are mutually independent and may run in parallel
// once all lower levels have completed; levels 0..NumCut are in processing
// order.
//
// Nothing is materialised: Init cuts each dimension once into fixed arrays,
// and Start/Next visit the mixed-radix piece codes of one level, writing each
// subzoid into a caller-owned Zoid. The recursion keeps one HyperCut and one
// Zoid per cut on its stack and allocates nothing.
type HyperCut struct {
	NumCut int // k, the number of dimensions that were cut

	dim     [MaxDims]int
	radix   [MaxDims]int // pieces along the j-th cut dimension: 3 or 4
	pieces  [MaxDims][4]piece
	contrib [MaxDims][4]int
	count   [MaxDims + 1]int // subzoids per level

	level, dep, left int
	digit            [MaxDims]int
	fresh            bool
}

// Init cuts z along every dimension in cuts, each of which must satisfy
// CanSpaceCut or CanCircleCut as appropriate.
func (h *HyperCut) Init(z *Zoid, cuts []Cut) {
	h.NumCut = len(cuts)
	h.count = [MaxDims + 1]int{1}
	for j, c := range cuts {
		h.dim[j] = c.Dim
		if c.Kind == CutCircle {
			h.radix[j], h.pieces[j], h.contrib[j] = 4, circle(c.Slope, c.Size), circleContrib
		} else {
			p, upright := z.trisect(c.Dim, c.Slope)
			h.radix[j] = 3
			copy(h.pieces[j][:], p[:])
			if upright {
				h.contrib[j] = [4]int{0, 1, 0} // blacks first, gray second
			} else {
				h.contrib[j] = [4]int{1, 0, 1} // gray first, blacks second
			}
		}
		// Level populations are the coefficients of prod_j (first_j + second_j*x).
		second := 0
		for _, con := range h.contrib[j][:h.radix[j]] {
			second += con
		}
		first := h.radix[j] - second
		for l := j + 1; l > 0; l-- {
			h.count[l] = h.count[l]*first + h.count[l-1]*second
		}
		h.count[0] *= first
	}
}

// Total returns the number of subzoids across all levels.
func (h *HyperCut) Total() int {
	n := 1
	for _, r := range h.radix[:h.NumCut] {
		n *= r
	}
	return n
}

// Start positions the enumeration before the first subzoid of level.
func (h *HyperCut) Start(level int) {
	h.level, h.left, h.fresh = level, h.count[level], true
	h.digit = [MaxDims]int{}
	h.dep = 0
	for j := 0; j < h.NumCut; j++ {
		h.dep += h.contrib[j][0]
	}
}

// Left returns how many subzoids of the current level Next has yet to
// produce; right after Start it is the level's population.
func (h *HyperCut) Left() int { return h.left }

// Next writes the level's next subzoid into sub and reports whether there
// was one. sub must agree with the cut zoid in everything but the cut
// dimensions — a copy of it, or the subzoid a previous Next produced — since
// only those are overwritten. Subzoids come in ascending piece-code order,
// the first cut dimension varying fastest.
func (h *HyperCut) Next(sub *Zoid) bool {
	if h.left == 0 {
		return false
	}
	// left > 0 promises another code of this level ahead, so the odometer
	// never runs off its end.
	for {
		if h.fresh {
			h.fresh = false
		} else {
			h.advance()
		}
		if h.dep == h.level {
			break
		}
	}
	h.left--
	for j := 0; j < h.NumCut; j++ {
		sub.setPiece(h.dim[j], h.pieces[j][h.digit[j]])
	}
	return true
}

// advance steps the mixed-radix piece code by one, keeping dep in step.
func (h *HyperCut) advance() {
	for j := 0; ; j++ {
		u := h.digit[j]
		if u+1 < h.radix[j] {
			h.digit[j] = u + 1
			h.dep += h.contrib[j][u+1] - h.contrib[j][u]
			return
		}
		h.digit[j] = 0
		h.dep += h.contrib[j][0] - h.contrib[j][u]
	}
}
