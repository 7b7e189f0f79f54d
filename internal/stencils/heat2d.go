package stencils

import (
	"pochoir"
	"pochoir/internal/loops"
)

// Heat 2D (Fig. 3 rows "Heat 2" and "Heat 2p"): the Jacobi update for the
// 2D heat equation of §1,
//
//	u(t+1,x,y) = u(t,x,y) + CX*(u(t,x+1,y) - 2u(t,x,y) + u(t,x-1,y))
//	                      + CY*(u(t,x,y+1) - 2u(t,x,y) + u(t,x,y-1)).
//
// The periodic variant wraps on a torus; the nonperiodic variant has a
// zero Dirichlet boundary. Their Pochoir paths run specs/heat2p.pch and
// specs/heat2.pch. The loop nests below are the oracle, and follow the
// paper's baselines exactly: modular indexing on every access for the
// periodic stencil, ghost cells for the nonperiodic one.

const heatCX, heatCY = 0.125, 0.125

var heat2Spec, heat2pSpec = mustSpec("heat2"), mustSpec("heat2p")

func init() {
	register(NewHeat2DFactory(false))
	register(NewHeat2DFactory(true))
}

// NewHeat2DFactory returns the Heat 2 / Heat 2p benchmark.
func NewHeat2DFactory(periodic bool) Factory {
	name, order, spec := "Heat 2", 1, heat2Spec
	if periodic {
		name, order, spec = "Heat 2p", 2, heat2pSpec
	}
	return Factory{
		Name:       name,
		Order:      order,
		Dims:       2,
		PaperSizes: []int{16000, 16000},
		PaperSteps: 500,
		New: func(sizes []int, steps int) Instance {
			sizes, steps = defaults(sizes, steps, []int{2000, 2000}, 64)
			h := &heat2D{X: sizes[0], Y: sizes[1], steps: steps, periodic: periodic}
			return heat2Instance{&dslInstance{name: name, spec: spec, sizes: sizes, steps: steps, flops: 10,
				init: h.initStates, loops: h.loops}}
		},
		Shape:    func() *pochoir.Shape { return spec.Shape },
		Periodic: []bool{periodic, periodic},
	}
}

// heat2Instance is a Heat 2 or Heat 2p instance: its specification's, with
// the Fig. 13 ablation besides.
type heat2Instance struct{ *dslInstance }

// PochoirMacroShadow runs the compiled clones with macroShadow in place of
// the row program's interior clone; the Fig. 13 experiment compares the two.
func (h heat2Instance) PochoirMacroShadow(opts pochoir.Options) Job {
	return h.specialized(opts, func(b pochoir.BaseKernels) pochoir.BaseKernels {
		b.Interior = macroShadow(h.array())
		return b
	})
}

// macroShadow is the -split-macro-shadow interior clone of Fig. 12(b): full
// address arithmetic on every access, no boundary checks, no cursors. Its
// products are rounded as the loops' are.
func macroShadow(u *pochoir.Array[float64]) pochoir.BaseFunc {
	ys := u.Stride(0)
	return func(z pochoir.Zoid) {
		lo0, hi0 := z.Lo[0], z.Hi[0]
		lo1, hi1 := z.Lo[1], z.Hi[1]
		for t := z.T0; t < z.T1; t++ {
			w, r := u.Slot(t), u.Slot(t-1)
			for x := lo0; x < hi0; x++ {
				for y := lo1; y < hi1; y++ {
					cc := r[x*ys+y]
					w[x*ys+y] = cc + float64(heatCX*(r[(x+1)*ys+y]-float64(2*cc)+r[(x-1)*ys+y])) +
						float64(heatCY*(r[x*ys+y+1]-float64(2*cc)+r[x*ys+y-1]))
				}
			}
			lo0 += z.DLo[0]
			hi0 += z.DHi[0]
			lo1 += z.DLo[1]
			hi1 += z.DHi[1]
		}
	}
}

// heat2D is the loop baseline: raw double buffers, padded by a zero halo
// when nonperiodic.
type heat2D struct {
	X, Y     int
	steps    int
	periodic bool

	cur, next []float64
}

func (h *heat2D) initStates() [][]float64 {
	init := make([]float64, h.X*h.Y)
	fillRand(init, 2000)
	return [][]float64{init}
}

// loops is LoopsSerial or LoopsParallel. Every product is rounded by an
// explicit conversion, which forbids a fused multiply-add (arm64,
// GOAMD64=v3), so that the loops compute what the row program computes from
// the specifications, which are in their order.
func (h *heat2D) loops(parallel bool) Job {
	X, Y := h.X, h.Y
	if h.periodic {
		return Job{
			Setup: func() {
				h.cur, h.next = h.initStates()[0], make([]float64, X*Y)
			},
			// Modular indexing on every access, per the paper's periodic
			// loop baseline (Fig. 1).
			Compute: func() {
				loops.Run(0, h.steps, parallel, X, 1, func(t, x0, x1 int) {
					cur, next := h.cur, h.next
					if t%2 == 1 {
						cur, next = next, cur
					}
					for x := x0; x < x1; x++ {
						xm := ((x-1)%X + X) % X
						xp := (x + 1) % X
						row, rowm, rowp := x*Y, xm*Y, xp*Y
						for y := 0; y < Y; y++ {
							ym := ((y-1)%Y + Y) % Y
							yp := (y + 1) % Y
							c := cur[row+y]
							next[row+y] = c + float64(heatCX*(cur[rowp+y]-float64(2*c)+cur[rowm+y])) +
								float64(heatCY*(cur[row+yp]-float64(2*c)+cur[row+ym]))
						}
					}
				})
			},
			Result: func() []float64 { return append([]float64(nil), h.final()...) },
		}
	}
	// Ghost cells: a zero halo one cell wide around the grid, and
	// branch-free inner loops over the padded grid.
	py := Y + 2
	return Job{
		Setup: func() {
			h.cur, h.next = make([]float64, (X+2)*py), make([]float64, (X+2)*py)
			init := h.initStates()[0]
			for x := 0; x < X; x++ {
				copy(h.cur[(x+1)*py+1:(x+1)*py+1+Y], init[x*Y:(x+1)*Y])
			}
		},
		Compute: func() {
			loops.Run(0, h.steps, parallel, X, 1, func(t, x0, x1 int) {
				cur, next := h.cur, h.next
				if t%2 == 1 {
					cur, next = next, cur
				}
				for x := x0; x < x1; x++ {
					base := (x + 1) * py
					dst := next[base+1 : base+1+Y]
					c := cur[base+1:]
					cl := cur[base:]
					cr := cur[base+2:]
					up := cur[base-py+1:]
					dn := cur[base+py+1:]
					for i := range dst {
						cc := c[i]
						dst[i] = cc + float64(heatCX*(dn[i]-float64(2*cc)+up[i])) +
							float64(heatCY*(cr[i]-float64(2*cc)+cl[i]))
					}
				}
			})
		},
		Result: func() []float64 {
			final, out := h.final(), make([]float64, X*Y)
			for x := 0; x < X; x++ {
				copy(out[x*Y:(x+1)*Y], final[(x+1)*py+1:(x+1)*py+1+Y])
			}
			return out
		},
	}
}

// final is the buffer the last step wrote.
func (h *heat2D) final() []float64 {
	if h.steps%2 == 1 {
		return h.next
	}
	return h.cur
}
