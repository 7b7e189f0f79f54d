// Code generated by pochoirgen (style: split-macro-shadow) from stencil "wave1d". DO NOT EDIT.

package gen

import "pochoir"

// Parameters of stencil "wave1d".
const (
	wave1dParamC = 0.3
)

// Wave1dShape returns the stencil shape inferred from the kernel.
func Wave1dShape() *pochoir.Shape {
	return pochoir.MustShape(1, [][]int{
		{1, 0},
		{-1, 0},
		{0, -1},
		{0, 0},
		{0, 1},
	})
}

// Wave1d is the compiled stencil "wave1d": 1 spatial dimension(s), depth 2.
type Wave1d struct {
	Stencil *pochoir.Stencil[float64]
	U       *pochoir.Array[float64]
}

// NewWave1d allocates the stencil's arrays with the given spatial sizes
// and registers the declared boundary conditions. Only the arrays the
// kernel writes join the stencil: a read-only array is input, and the
// stencil's checkpoints and restores leave it as the caller filled it.
func NewWave1d(sizes ...int) (*Wave1d, error) {
	sh := Wave1dShape()
	s := &Wave1d{Stencil: pochoir.New[float64](sh)}
	var err error
	if s.U, err = pochoir.NewArray[float64](sh.Depth(), sizes...); err != nil {
		return nil, err
	}
	s.U.RegisterBoundary(pochoir.NeumannBoundary[float64]())
	if err = s.Stencil.RegisterArray(s.U); err != nil {
		return nil, err
	}
	return s, nil
}

// PointKernel is the checked point kernel: the Phase-1 execution path
// and the body of the boundary clone.
func (s *Wave1d) PointKernel() pochoir.Kernel {
	u := s.U
	return func(t int, x []int) {
		u.Set(t+1, (((2 * u.Get(t+0, x[0])) - u.Get(t-1, x[0])) + (wave1dParamC * ((u.Get(t+0, x[0]+1) - (2 * u.Get(t+0, x[0]))) + u.Get(t+0, x[0]-1)))), x[0])
	}
}

// InteriorClone is the specialized interior base-case kernel in the
// split-macro-shadow style: it walks raw time slots with no boundary checks
// and is only ever invoked on zoids whose accesses stay in-domain.
func (s *Wave1d) InteriorClone() pochoir.BaseFunc {
	u := s.U
	return func(z pochoir.Zoid) {
		lo0, hi0 := z.Lo[0], z.Hi[0]
		for t := z.T0; t < z.T1; t++ {
			wu := u.Slot(t)
			ru1 := u.Slot(t - 1)
			ru2 := u.Slot(t - 2)
			baseu := 0
			for x0 := lo0; x0 < hi0; x0++ {
				wu[baseu+x0] = (((2 * ru1[baseu+x0]) - ru2[baseu+x0]) + (wave1dParamC * ((ru1[baseu+x0+1] - (2 * ru1[baseu+x0])) + ru1[baseu+x0-1])))
			}
			lo0 += z.DLo[0]
			hi0 += z.DHi[0]
		}
	}
}

// BoundaryClone is the specialized boundary base-case kernel: virtual
// coordinates are reduced modulo the grid extents and every access is
// routed per the declared boundary condition, in compiled code.
func (s *Wave1d) BoundaryClone() pochoir.BaseFunc {
	u := s.U
	n0 := u.Size(0)
	getu := func(r []float64, i0 int) float64 {
		if i0 < 0 {
			i0 = 0
		} else if i0 >= n0 {
			i0 = n0 - 1
		}
		return r[i0]
	}
	return func(z pochoir.Zoid) {
		lo0, hi0 := z.Lo[0], z.Hi[0]
		for t := z.T0; t < z.T1; t++ {
			wu := u.Slot(t)
			ru1 := u.Slot(t - 1)
			ru2 := u.Slot(t - 2)
			for x0 := lo0; x0 < hi0; x0++ {
				t0 := ((x0 % n0) + n0) % n0
				wu[t0] = (((2 * getu(ru1, t0)) - getu(ru2, t0)) + (wave1dParamC * ((getu(ru1, t0+1) - (2 * getu(ru1, t0))) + getu(ru1, t0-1))))
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
func (s *Wave1d) BaseKernels() pochoir.BaseKernels {
	return pochoir.BaseKernels{
		Interior: s.InteriorClone(),
		Boundary: s.BoundaryClone(),
	}
}

// Run executes the compiled stencil for steps time steps.
func (s *Wave1d) Run(steps int) error {
	return s.Stencil.RunSpecialized(steps, s.BaseKernels())
}

// RunInterpreted executes through the Phase-1 checked path; results are
// identical to Run, only slower.
func (s *Wave1d) RunInterpreted(steps int) error {
	return s.Stencil.Run(steps, s.PointKernel())
}
