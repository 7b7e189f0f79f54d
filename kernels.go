package pochoir

import (
	"sync"

	"pochoir/internal/core"
	"pochoir/internal/zoid"
)

// Kernel is the dimension-generic point kernel of the Phase-1 path
// (Pochoir_Kernel_dimD): it is invoked once per space-time point with the
// kernel time coordinate t and the true spatial coordinates x, and updates
// the registered arrays through their checked accessors. The x slice is
// reused between invocations and must not be retained.
type Kernel func(t int, x []int)

// K1 adapts a 1D point kernel to the generic Kernel type.
func K1(f func(t, x int)) Kernel {
	return func(t int, x []int) { f(t, x[0]) }
}

// K2 adapts a 2D point kernel to the generic Kernel type.
func K2(f func(t, x, y int)) Kernel {
	return func(t int, x []int) { f(t, x[0], x[1]) }
}

// K3 adapts a 3D point kernel to the generic Kernel type.
func K3(f func(t, x, y, z int)) Kernel {
	return func(t int, x []int) { f(t, x[0], x[1], x[2]) }
}

// K4 adapts a 4D point kernel to the generic Kernel type.
func K4(f func(t, x, y, z, w int)) Kernel {
	return func(t int, x []int) { f(t, x[0], x[1], x[2], x[3]) }
}

func modIdx(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// pointExecutor builds the generic base case: walk every space-time point
// of the zoid in time order (Fig. 2, lines 20–28), reduce virtual
// coordinates to true coordinates modulo the grid extents (§4, unified
// boundary handling), and invoke the point kernel. Off-domain neighbor
// accesses inside the kernel are served by the arrays' boundary functions.
func (s *Stencil[T]) pointExecutor(kern Kernel) core.BaseFunc {
	return s.executor(kern, false)
}

// pointClones pairs a generic executor with itself as both base-case
// clones. It declares WholeRows: the executor pays no more at a row's end
// than the slow path of the few accesses that leave the domain, so a 2D
// base case under a nil Options.SpaceCutoff sweeps whole rows (DESIGN.md,
// "Coarsening follows the clones").
func pointClones(exec BaseFunc) BaseKernels {
	return BaseKernels{Interior: exec, Boundary: exec, WholeRows: true}
}

// checkedPointExecutor additionally establishes the home point on every
// registered array before each kernel application so accesses can be
// verified against the declared shape (the Pochoir Guarantee).
func (s *Stencil[T]) checkedPointExecutor(kern Kernel) core.BaseFunc {
	return s.executor(kern, true)
}

// pointCoords recycles the executor's coordinate buffers. Handing one to
// kern, a func value, moves it to the heap, and a base case is too small a
// unit of work to allocate for; kernels must not retain x anyway.
var pointCoords = sync.Pool{New: func() any { return new([MaxDims]int) }}

func (s *Stencil[T]) executor(kern Kernel, checked bool) core.BaseFunc {
	d := s.shape.NDims
	homeDT := s.shape.HomeDT()
	var sizes [MaxDims]int
	copy(sizes[:], s.sizes)
	arrays := s.arrays
	return func(z zoid.Zoid) {
		var lo, hi, vx [MaxDims]int
		x := pointCoords.Get().(*[MaxDims]int)
		defer pointCoords.Put(x)
		for i := 0; i < d; i++ {
			lo[i], hi[i] = z.Lo[i], z.Hi[i]
		}
		xs := x[:d]
		for t := z.T0; t < z.T1; t++ {
			kt := t - homeDT // kernel time argument: kernel writes kt+homeDT == t
			empty := false
			for i := 0; i < d; i++ {
				if lo[i] >= hi[i] {
					empty = true
					break
				}
			}
			if !empty {
				for i := 0; i < d; i++ {
					vx[i] = lo[i]
					x[i] = modIdx(vx[i], sizes[i])
				}
				for {
					if checked {
						for _, a := range arrays {
							a.SetHome(kt, xs)
						}
					}
					kern(kt, xs)
					// Odometer increment, maintaining both virtual
					// and true coordinates.
					i := d - 1
					for ; i >= 0; i-- {
						vx[i]++
						if vx[i] < hi[i] {
							x[i]++
							if x[i] == sizes[i] {
								x[i] = 0
							}
							break
						}
						vx[i] = lo[i]
						x[i] = modIdx(lo[i], sizes[i])
					}
					if i < 0 {
						break
					}
				}
			}
			for i := 0; i < d; i++ {
				lo[i] += z.DLo[i]
				hi[i] += z.DHi[i]
			}
		}
	}
}
