package grid

import "fmt"

import "pochoir/internal/shape"

// This file implements the Phase-1 compliance checking behind the Pochoir
// Guarantee: while a kernel executes for home point (t, x), every access the
// kernel makes to a registered array must land on an offset declared in the
// stencil shape. The template library "complains during Phase 1 ... if an
// access to a grid point during the kernel computation falls outside the
// region specified by the shape declaration" (§1).

// ShapeError describes a kernel access that violated the declared shape.
type ShapeError struct {
	HomeT int
	HomeX []int
	T     int
	X     []int
	Shape string
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("pochoir guarantee violated: kernel for home point t=%d x=%v accessed t=%d x=%v, offset (%d,%v) not in declared shape %s",
		e.HomeT, e.HomeX, e.T, e.X, e.T-e.HomeT, diff(e.X, e.HomeX), e.Shape)
}

func diff(a, b []int) []int {
	d := make([]int, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// EnableShapeCheck turns on shape-compliance verification against s for all
// subsequent checked accesses. The engine calls SetHome before each kernel
// application to establish the reference point.
func (a *Array[T]) EnableShapeCheck(s *shape.Shape) {
	a.checkShape = s
	a.homeX = make([]int, len(a.dims))
	a.checkErr = nil
	a.direct = a.isDirect()
}

// DisableShapeCheck turns off verification.
func (a *Array[T]) DisableShapeCheck() {
	a.checkShape = nil
	a.checkErr = nil
	a.direct = a.isDirect()
}

// SetHome records the home point of the kernel application about to run.
func (a *Array[T]) SetHome(t int, idx []int) {
	a.homeT = t
	copy(a.homeX, idx)
}

// CheckErr returns the first shape violation observed since checking was
// enabled, or nil.
func (a *Array[T]) CheckErr() error { return a.checkErr }

func (a *Array[T]) verify(t int, idx []int) {
	if a.checkErr != nil {
		return // keep the first violation
	}
	dt := t - a.homeT
	// On the stack for every array the engine can walk (zoid.MaxDims): this
	// runs per access of a checked run.
	var buf [8]int
	dx := buf[:0]
	for i := range idx {
		dx = append(dx, idx[i]-a.homeX[i])
	}
	if !a.checkShape.Contains(dt, dx) {
		a.checkErr = &ShapeError{
			HomeT: a.homeT,
			HomeX: append([]int(nil), a.homeX...),
			T:     t,
			X:     append([]int(nil), idx...),
			Shape: a.checkShape.String(),
		}
	}
}
