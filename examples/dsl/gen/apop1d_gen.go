// Code generated by pochoirgen (style: split-pointer) from stencil "apop1d". DO NOT EDIT.

package gen

import "pochoir"

// Parameters of stencil "apop1d".
const (
	apop1dParamA     = 0.24
	apop1dParamB     = 0.5
	apop1dParamCC    = 0.25
	apop1dParamFLOOR = 0.8
)

// Apop1dShape returns the stencil shape inferred from the kernel.
func Apop1dShape() *pochoir.Shape {
	return pochoir.MustShape(1, [][]int{
		{1, 0},
		{0, -1},
		{0, 0},
		{0, 1},
	})
}

// Apop1d is the compiled stencil "apop1d": 1 spatial dimension(s), depth 1.
type Apop1d struct {
	Stencil *pochoir.Stencil[float64]
	V       *pochoir.Array[float64]
}

// NewApop1d allocates the stencil's arrays with the given spatial sizes
// and registers the declared boundary conditions. Only the arrays the
// kernel writes join the stencil: a read-only array is input, and the
// stencil's checkpoints and restores leave it as the caller filled it.
func NewApop1d(sizes ...int) (*Apop1d, error) {
	sh := Apop1dShape()
	s := &Apop1d{Stencil: pochoir.New[float64](sh)}
	var err error
	if s.V, err = pochoir.NewArray[float64](sh.Depth(), sizes...); err != nil {
		return nil, err
	}
	s.V.RegisterBoundary(pochoir.ConstBoundary[float64](1))
	if err = s.Stencil.RegisterArray(s.V); err != nil {
		return nil, err
	}
	return s, nil
}

// PointKernel is the checked point kernel: the Phase-1 execution path
// and the body of the boundary clone.
func (s *Apop1d) PointKernel() pochoir.Kernel {
	v := s.V
	return func(t int, x []int) {
		v.Set(t+1, max(apop1dParamFLOOR, (((apop1dParamA*v.Get(t+0, x[0]-1))+(apop1dParamB*v.Get(t+0, x[0])))+(apop1dParamCC*v.Get(t+0, x[0]+1)))), x[0])
	}
}

// InteriorClone is the specialized interior base-case kernel in the
// split-pointer style: it walks raw time slots with no boundary checks
// and is only ever invoked on zoids whose accesses stay in-domain.
func (s *Apop1d) InteriorClone() pochoir.BaseFunc {
	v := s.V
	return func(z pochoir.Zoid) {
		lo0, hi0 := z.Lo[0], z.Hi[0]
		for t := z.T0; t < z.T1; t++ {
			wv := v.Slot(t)
			rv1 := v.Slot(t - 1)
			basev := 0
			dstv := wv[basev+lo0 : basev+hi0]
			c0 := rv1[basev+lo0+(-1):]
			c1 := rv1[basev+lo0:]
			c2 := rv1[basev+lo0+(1):]
			for i := range dstv {
				dstv[i] = max(apop1dParamFLOOR, (((apop1dParamA * c0[i]) + (apop1dParamB * c1[i])) + (apop1dParamCC * c2[i])))
			}
			lo0 += z.DLo[0]
			hi0 += z.DHi[0]
		}
	}
}

// BoundaryClone is the specialized boundary base-case kernel: virtual
// coordinates are reduced modulo the grid extents and every access is
// routed per the declared boundary condition, in compiled code.
func (s *Apop1d) BoundaryClone() pochoir.BaseFunc {
	v := s.V
	n0 := v.Size(0)
	getv := func(r []float64, i0 int) float64 {
		if i0 < 0 || i0 >= n0 {
			return 1
		}
		return r[i0]
	}
	return func(z pochoir.Zoid) {
		lo0, hi0 := z.Lo[0], z.Hi[0]
		for t := z.T0; t < z.T1; t++ {
			wv := v.Slot(t)
			rv1 := v.Slot(t - 1)
			for x0 := lo0; x0 < hi0; x0++ {
				t0 := ((x0 % n0) + n0) % n0
				wv[t0] = max(apop1dParamFLOOR, (((apop1dParamA * getv(rv1, t0-1)) + (apop1dParamB * getv(rv1, t0))) + (apop1dParamCC * getv(rv1, t0+1))))
			}
			lo0 += z.DLo[0]
			hi0 += z.DHi[0]
		}
	}
}

// BaseKernels pairs the two specialized clones (code cloning, §4 of
// the Pochoir paper): the unchecked interior clone and the compiled
// boundary clone that routes off-domain accesses per the declared
// boundary conditions.
func (s *Apop1d) BaseKernels() pochoir.BaseKernels {
	return pochoir.BaseKernels{
		Interior: s.InteriorClone(),
		Boundary: s.BoundaryClone(),
	}
}

// Run executes the compiled stencil for steps time steps.
func (s *Apop1d) Run(steps int) error {
	return s.Stencil.RunSpecialized(steps, s.BaseKernels())
}

// RunInterpreted executes through the Phase-1 checked path; results are
// identical to Run, only slower.
func (s *Apop1d) RunInterpreted(steps int) error {
	return s.Stencil.Run(steps, s.PointKernel())
}
