// Code generated by pochoirgen (style: split-pointer) from stencil "heat2d". DO NOT EDIT.

package gen

import "pochoir"

// Parameters of stencil "heat2d".
const (
	heat2dParamCX = 0.125
	heat2dParamCY = 0.125
)

// Heat2dShape returns the stencil shape inferred from the kernel.
func Heat2dShape() *pochoir.Shape {
	return pochoir.MustShape(2, [][]int{
		{1, 0, 0},
		{0, -1, 0},
		{0, 0, -1},
		{0, 0, 0},
		{0, 0, 1},
		{0, 1, 0},
	})
}

// Heat2d is the compiled stencil "heat2d": 2 spatial dimension(s), depth 1.
type Heat2d struct {
	Stencil *pochoir.Stencil[float64]
	U       *pochoir.Array[float64]
}

// NewHeat2d allocates the stencil's arrays with the given spatial sizes
// and registers the declared boundary conditions. Only the arrays the
// kernel writes join the stencil: a read-only array is input, and the
// stencil's checkpoints and restores leave it as the caller filled it.
func NewHeat2d(sizes ...int) (*Heat2d, error) {
	sh := Heat2dShape()
	s := &Heat2d{Stencil: pochoir.New[float64](sh)}
	var err error
	if s.U, err = pochoir.NewArray[float64](sh.Depth(), sizes...); err != nil {
		return nil, err
	}
	s.U.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	if err = s.Stencil.RegisterArray(s.U); err != nil {
		return nil, err
	}
	return s, nil
}

// PointKernel is the checked point kernel: the Phase-1 execution path
// and the body of the boundary clone.
func (s *Heat2d) PointKernel() pochoir.Kernel {
	u := s.U
	return func(t int, x []int) {
		u.Set(t+1, ((u.Get(t+0, x[0], x[1]) + (heat2dParamCX * ((u.Get(t+0, x[0]+1, x[1]) - (2 * u.Get(t+0, x[0], x[1]))) + u.Get(t+0, x[0]-1, x[1])))) + (heat2dParamCY * ((u.Get(t+0, x[0], x[1]+1) - (2 * u.Get(t+0, x[0], x[1]))) + u.Get(t+0, x[0], x[1]-1)))), x[0], x[1])
	}
}

// InteriorClone is the specialized interior base-case kernel in the
// split-pointer style: it walks raw time slots with no boundary checks
// and is only ever invoked on zoids whose accesses stay in-domain.
func (s *Heat2d) InteriorClone() pochoir.BaseFunc {
	u := s.U
	su0 := u.Stride(0)
	return func(z pochoir.Zoid) {
		lo0, hi0 := z.Lo[0], z.Hi[0]
		lo1, hi1 := z.Lo[1], z.Hi[1]
		for t := z.T0; t < z.T1; t++ {
			wu := u.Slot(t)
			ru1 := u.Slot(t - 1)
			for x0 := lo0; x0 < hi0; x0++ {
				baseu := x0 * su0
				dstu := wu[baseu+lo1 : baseu+hi1]
				c0 := ru1[baseu+lo1+(-1)*su0:]
				c1 := ru1[baseu+lo1+(-1):]
				c2 := ru1[baseu+lo1:]
				c3 := ru1[baseu+lo1+(1):]
				c4 := ru1[baseu+lo1+(1)*su0:]
				for i := range dstu {
					dstu[i] = ((c2[i] + (heat2dParamCX * ((c4[i] - (2 * c2[i])) + c0[i]))) + (heat2dParamCY * ((c3[i] - (2 * c2[i])) + c1[i])))
				}
			}
			lo0 += z.DLo[0]
			hi0 += z.DHi[0]
			lo1 += z.DLo[1]
			hi1 += z.DHi[1]
		}
	}
}

// BoundaryClone is the specialized boundary base-case kernel: virtual
// coordinates are reduced modulo the grid extents and every access is
// routed per the declared boundary condition, in compiled code.
func (s *Heat2d) BoundaryClone() pochoir.BaseFunc {
	u := s.U
	su0 := u.Stride(0)
	n0 := u.Size(0)
	n1 := u.Size(1)
	getu := func(r []float64, i0 int, i1 int) float64 {
		i0 = ((i0 % n0) + n0) % n0
		i1 = ((i1 % n1) + n1) % n1
		return r[i0*su0+i1]
	}
	return func(z pochoir.Zoid) {
		lo0, hi0 := z.Lo[0], z.Hi[0]
		lo1, hi1 := z.Lo[1], z.Hi[1]
		for t := z.T0; t < z.T1; t++ {
			wu := u.Slot(t)
			ru1 := u.Slot(t - 1)
			for x0 := lo0; x0 < hi0; x0++ {
				t0 := ((x0 % n0) + n0) % n0
				for x1 := lo1; x1 < hi1; x1++ {
					t1 := ((x1 % n1) + n1) % n1
					wu[t0*su0+t1] = ((getu(ru1, t0, t1) + (heat2dParamCX * ((getu(ru1, t0+1, t1) - (2 * getu(ru1, t0, t1))) + getu(ru1, t0-1, t1)))) + (heat2dParamCY * ((getu(ru1, t0, t1+1) - (2 * getu(ru1, t0, t1))) + getu(ru1, t0, t1-1))))
				}
			}
			lo0 += z.DLo[0]
			hi0 += z.DHi[0]
			lo1 += z.DLo[1]
			hi1 += z.DHi[1]
		}
	}
}

// BaseKernels pairs the two specialized clones (code cloning, §4 of
// the Pochoir paper): the unchecked interior clone and the compiled
// boundary clone that routes off-domain accesses per the declared
// boundary conditions.
func (s *Heat2d) BaseKernels() pochoir.BaseKernels {
	return pochoir.BaseKernels{
		Interior: s.InteriorClone(),
		Boundary: s.BoundaryClone(),
	}
}

// Run executes the compiled stencil for steps time steps.
func (s *Heat2d) Run(steps int) error {
	return s.Stencil.RunSpecialized(steps, s.BaseKernels())
}

// RunInterpreted executes through the Phase-1 checked path; results are
// identical to Run, only slower.
func (s *Heat2d) RunInterpreted(steps int) error {
	return s.Stencil.Run(steps, s.PointKernel())
}
