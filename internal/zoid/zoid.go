// Package zoid implements the space-time hypertrapezoid ("zoid") geometry
// underlying Pochoir's trapezoidal decomposition (Tang et al., SPAA 2011, §3).
//
// A (d+1)-zoid Z = (ta,tb; xa0,xb0,dxa0,dxb0; ...; xa_{d-1},...) is the set of
// integer grid points (t, x0, ..., x_{d-1}) with ta <= t < tb and
//
//	xai + dxai*(t-ta) <= xi < xbi + dxbi*(t-ta)
//
// for every spatial dimension i. The dxai/dxbi values are the (inverse)
// slopes of the zoid's sides, following Frigo and Strumpen's terminology.
//
// This package provides the three decomposition primitives of the TRAP
// algorithm — parallel space cuts (trisection), time cuts, and hyperspace
// cuts with dependency-level assignment per Lemma 1 — as pure geometric
// operations. The execution engines (internal/core) and the analytical
// substrates (internal/cilkview, internal/cachesim) all share this code so
// that they decompose space-time identically.
package zoid

import "fmt"

// MaxDims is the maximum number of spatial dimensions a zoid may have.
// Fixed-size arrays keep the recursion allocation-free.
const MaxDims = 8

// Zoid is a (d+1)-dimensional space-time hypertrapezoid.
// The zero value is an empty 0-dimensional zoid.
//
// The struct is 280 bytes and the recursion queries it at every level, so
// the geometric methods take a pointer: a value receiver costs a full copy
// per call. Only String keeps a value receiver, so fmt renders Zoid and
// *Zoid alike.
type Zoid struct {
	T0, T1 int          // time extent: T0 <= t < T1
	N      int          // number of spatial dimensions (d)
	Lo, Hi [MaxDims]int // base coordinates xa_i, xb_i at time T0
	DLo    [MaxDims]int // inverse slope of the lower side, dxa_i
	DHi    [MaxDims]int // inverse slope of the upper side, dxb_i
}

// New constructs a zoid spanning [t0,t1) in time with the given per-dimension
// bases and slopes. The slices must all have the same length, at most MaxDims.
func New(t0, t1 int, lo, hi, dlo, dhi []int) (Zoid, error) {
	n := len(lo)
	if len(hi) != n || len(dlo) != n || len(dhi) != n {
		return Zoid{}, fmt.Errorf("zoid: mismatched dimension slices (%d,%d,%d,%d)",
			len(lo), len(hi), len(dlo), len(dhi))
	}
	if n > MaxDims {
		return Zoid{}, fmt.Errorf("zoid: %d dimensions exceeds MaxDims=%d", n, MaxDims)
	}
	z := Zoid{T0: t0, T1: t1, N: n}
	copy(z.Lo[:], lo)
	copy(z.Hi[:], hi)
	copy(z.DLo[:], dlo)
	copy(z.DHi[:], dhi)
	return z, nil
}

// Box returns the zoid covering the axis-aligned space-time box
// [t0,t1) x [0,size0) x ... — the shape of an initial full-grid computation
// (all slopes zero).
func Box(t0, t1 int, sizes []int) Zoid {
	z := Zoid{T0: t0, T1: t1, N: len(sizes)}
	copy(z.Hi[:], sizes)
	return z
}

// Height returns the time extent tb - ta.
func (z *Zoid) Height() int { return z.T1 - z.T0 }

// BottomBase returns the length of the base at time T0 along dimension i.
func (z *Zoid) BottomBase(i int) int { return z.Hi[i] - z.Lo[i] }

// TopBase returns the length of the base at time T1 along dimension i
// (the side the zoid would have after Height more steps of slope motion).
func (z *Zoid) TopBase(i int) int {
	dt := z.Height()
	return (z.Hi[i] + z.DHi[i]*dt) - (z.Lo[i] + z.DLo[i]*dt)
}

// Width returns the length of the longer of the two bases of the projection
// trapezoid along dimension i.
func (z *Zoid) Width(i int) int {
	b, t := z.BottomBase(i), z.TopBase(i)
	if b >= t {
		return b
	}
	return t
}

// Upright reports whether the projection trapezoid along dimension i is
// upright, i.e. its longer base lies at time T0.
func (z *Zoid) Upright(i int) bool { return z.BottomBase(i) >= z.TopBase(i) }

// Minimal reports whether the projection trapezoid along dimension i is
// minimal: upright with a zero top base, or inverted with a zero bottom base.
func (z *Zoid) MinimalDim(i int) bool {
	if z.Upright(i) {
		return z.TopBase(i) == 0
	}
	return z.BottomBase(i) == 0
}

// Minimal reports whether every projection trapezoid of z is minimal.
func (z *Zoid) Minimal() bool {
	for i := 0; i < z.N; i++ {
		if !z.MinimalDim(i) {
			return false
		}
	}
	return true
}

// WellDefined reports whether z has positive height, positive widths, and
// nonnegative base lengths in every spatial dimension.
func (z *Zoid) WellDefined() bool {
	if z.Height() <= 0 {
		return false
	}
	for i := 0; i < z.N; i++ {
		b, t := z.BottomBase(i), z.TopBase(i)
		if b < 0 || t < 0 {
			return false
		}
		if b == 0 && t == 0 {
			return false // zero width
		}
	}
	return true
}

// Volume returns the number of space-time grid points contained in z.
func (z *Zoid) Volume() int64 {
	var vol int64
	for t := z.T0; t < z.T1; t++ {
		dt := t - z.T0
		pts := int64(1)
		for i := 0; i < z.N; i++ {
			ext := (z.Hi[i] + z.DHi[i]*dt) - (z.Lo[i] + z.DLo[i]*dt)
			if ext <= 0 {
				pts = 0
				break
			}
			pts *= int64(ext)
		}
		vol += pts
	}
	return vol
}

// Extremes returns the minimum lower bound and maximum upper bound attained
// along dimension i over the executed time steps T0 .. T1-1. Because the
// bounds move linearly the extremes occur at the endpoints.
func (z *Zoid) Extremes(i int) (minLo, maxHi int) {
	last := z.Height() - 1
	minLo = z.Lo[i]
	if v := z.Lo[i] + z.DLo[i]*last; v < minLo {
		minLo = v
	}
	maxHi = z.Hi[i]
	if v := z.Hi[i] + z.DHi[i]*last; v > maxHi {
		maxHi = v
	}
	return minLo, maxHi
}

// Contains reports whether the space-time point (t, x[0..N)) lies inside z.
func (z *Zoid) Contains(t int, x []int) bool {
	if t < z.T0 || t >= z.T1 {
		return false
	}
	dt := t - z.T0
	for i := 0; i < z.N; i++ {
		if x[i] < z.Lo[i]+z.DLo[i]*dt || x[i] >= z.Hi[i]+z.DHi[i]*dt {
			return false
		}
	}
	return true
}

// String renders the zoid in the paper's parameter order.
func (z Zoid) String() string {
	s := fmt.Sprintf("zoid(t=[%d,%d)", z.T0, z.T1)
	for i := 0; i < z.N; i++ {
		s += fmt.Sprintf("; x%d=[%d,%d) dx=(%d,%d)", i, z.Lo[i], z.Hi[i], z.DLo[i], z.DHi[i])
	}
	return s + ")"
}
