package stencils

import (
	"pochoir"
	"pochoir/internal/loops"
)

// Wave 3 (Fig. 3 row "Wave 3"): the second-order finite-difference wave
// equation on a nonperiodic 3D grid,
//
//	u(t+1,p) = 2u(t,p) - u(t-1,p) + C*(sum_d (u(t,p+e_d)+u(t,p-e_d)) - 6u(t,p)),
//
// a depth-2 stencil: the Pochoir array keeps three time slots. Its Pochoir
// paths run specs/wave3.pch; the loop nest below is the oracle.

const waveC = 0.12

var wave3Spec = mustSpec("wave3")

func init() { register(NewWave3DFactory()) }

// NewWave3DFactory returns the Wave 3 benchmark.
func NewWave3DFactory() Factory {
	return Factory{
		Name:       "Wave 3",
		Order:      5,
		Dims:       3,
		PaperSizes: []int{1000, 1000, 1000},
		PaperSteps: 500,
		New: func(sizes []int, steps int) Instance {
			sizes, steps = defaults(sizes, steps, []int{150, 150, 150}, 30)
			w := &wave3D{sz: [3]int(sizes), steps: steps}
			return &dslInstance{name: "Wave 3", spec: wave3Spec, sizes: sizes, steps: steps, flops: 11,
				init: w.initStates, loops: w.loops}
		},
		Shape: func() *pochoir.Shape { return wave3Spec.Shape },
	}
}

// wave3D is the ghost-cell loop baseline, three buffers rotated by time.
type wave3D struct {
	sz    [3]int
	steps int

	buf [3][]float64
}

func (w *wave3D) initStates() [][]float64 {
	u0 := make([]float64, prod(w.sz[:]))
	fillRand(u0, 5000)
	// Second initial state: a slightly damped copy, bit-reproducible.
	u1 := make([]float64, len(u0))
	for i, v := range u0 {
		u1[i] = 0.98 * v
	}
	return [][]float64{u0, u1}
}

func (w *wave3D) loops(parallel bool) Job {
	q1, q2 := (w.sz[1]+2)*(w.sz[2]+2), w.sz[2]+2
	n2 := w.sz[2]
	return Job{
		Setup: func() {
			for i := range w.buf {
				w.buf[i] = make([]float64, (w.sz[0]+2)*q1)
			}
			for i, s := range w.initStates() {
				ghostRows(w.sz, func(d, q int) { copy(w.buf[i][q:q+n2], s[d:d+n2]) })
			}
		},
		// Home time for step s is s+2 (states 0 and 1 are initial). Every
		// product is rounded by an explicit conversion, which forbids a fused
		// multiply-add (arm64, GOAMD64=v3), so that the loop computes what the
		// row program computes from specs/wave3.pch, which is in its order.
		Compute: func() {
			loops.Run(2, w.steps+2, parallel, w.sz[0], 1, func(t, x0, x1 int) {
				next := w.buf[t%3]
				cur := w.buf[(t+2)%3]  // t-1
				prev := w.buf[(t+1)%3] // t-2
				for x := x0; x < x1; x++ {
					for y := 0; y < w.sz[1]; y++ {
						base := (x+1)*q1 + (y+1)*q2 + 1
						dst := next[base : base+n2]
						cc := cur[base:]
						pp := prev[base:]
						xm := cur[base-q1:]
						xp := cur[base+q1:]
						ym := cur[base-q2:]
						yp := cur[base+q2:]
						zm := cur[base-1:]
						zp := cur[base+1:]
						for i := range dst {
							c := cc[i]
							dst[i] = float64(2*c) - pp[i] +
								float64(waveC*(xp[i]+xm[i]+yp[i]+ym[i]+zp[i]+zm[i]-float64(6*c)))
						}
					}
				}
			})
		},
		Result: func() []float64 {
			final := w.buf[(w.steps+1)%3]
			out := make([]float64, prod(w.sz[:]))
			ghostRows(w.sz, func(d, q int) { copy(out[d:d+n2], final[q:q+n2]) })
			return out
		},
	}
}
