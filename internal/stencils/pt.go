package stencils

import (
	"pochoir"
	"pochoir/internal/compiler"
	"pochoir/internal/loops"
)

// The Fig. 5 kernels: the Berkeley autotuner's 3D 7-point and 27-point
// stencils [8,41] on a nonperiodic grid with ghost cells. The 7-point
// stencil performs 8 floating-point operations per point, the 27-point
// stencil 30, matching the paper's accounting. Their Pochoir paths run
// specs/pt7.pch and specs/pt27.pch; the loop nests below are the oracle.

const (
	ptAlpha = 0.4   // center weight
	ptBeta  = 0.1   // face weight
	ptGamma = 0.02  // edge weight (27-point only)
	ptDelta = 0.005 // corner weight (27-point only)
)

var pt7Spec, pt27Spec = mustSpec("pt7"), mustSpec("pt27")

func init() {
	register(NewPt7Factory())
	register(NewPt27Factory())
}

// NewPt7Factory returns the 3D 7-point benchmark of Fig. 5.
func NewPt7Factory() Factory { return ptFactory("3D 7-point", 11, pt7Spec, false, 8) }

// NewPt27Factory returns the 3D 27-point benchmark of Fig. 5.
func NewPt27Factory() Factory { return ptFactory("3D 27-point", 12, pt27Spec, true, 30) }

func ptFactory(name string, order int, spec *compiler.Checked, corners bool, flops float64) Factory {
	return Factory{
		Name:       name,
		Order:      order,
		Dims:       3,
		PaperSizes: []int{258, 258, 258},
		PaperSteps: 200,
		New: func(sizes []int, steps int) Instance {
			sizes, steps = defaults(sizes, steps, []int{128, 128, 128}, 50)
			p := &pt{sz: [3]int(sizes), steps: steps, corners: corners}
			return &dslInstance{name: name, spec: spec, sizes: sizes, steps: steps, flops: flops,
				init: p.initStates, loops: p.loops}
		},
		Shape: func() *pochoir.Shape { return spec.Shape },
	}
}

// pt is the ghost-cell loop baseline of either kernel.
type pt struct {
	sz      [3]int
	steps   int
	corners bool // false: 7-point; true: 27-point

	cur, next []float64
}

func (p *pt) initStates() [][]float64 {
	init := make([]float64, prod(p.sz[:]))
	fillRand(init, 7000)
	return [][]float64{init}
}

// update7At and update27 are the per-row inner loops of the baseline. Every
// product is rounded by an explicit conversion, which forbids a fused
// multiply-add (arm64, GOAMD64=v3), so that they compute what the row
// program computes from the specifications, which are in the same order.
func update27(dst []float64, r []float64, base, s0, s1 int) {
	for i := range dst {
		p := base + i
		faces := r[p+s0] + r[p-s0] + r[p+s1] + r[p-s1] + r[p+1] + r[p-1]
		edges := r[p+s0+s1] + r[p+s0-s1] + r[p-s0+s1] + r[p-s0-s1] +
			r[p+s0+1] + r[p+s0-1] + r[p-s0+1] + r[p-s0-1] +
			r[p+s1+1] + r[p+s1-1] + r[p-s1+1] + r[p-s1-1]
		corners := r[p+s0+s1+1] + r[p+s0+s1-1] + r[p+s0-s1+1] + r[p+s0-s1-1] +
			r[p-s0+s1+1] + r[p-s0+s1-1] + r[p-s0-s1+1] + r[p-s0-s1-1]
		dst[i] = float64(ptAlpha*r[p]) + float64(ptBeta*faces) + float64(ptGamma*edges) + float64(ptDelta*corners)
	}
}

func update7At(dst []float64, r []float64, base, s0, s1 int) {
	for i := range dst {
		p := base + i
		dst[i] = float64(ptAlpha*r[p]) + float64(ptBeta*(r[p+s0]+r[p-s0]+r[p+s1]+r[p-s1]+r[p+1]+r[p-1]))
	}
}

func (p *pt) loops(parallel bool) Job {
	q1, q2 := (p.sz[1]+2)*(p.sz[2]+2), p.sz[2]+2
	n2 := p.sz[2]
	return Job{
		Setup: func() {
			n := (p.sz[0] + 2) * q1
			p.cur, p.next = make([]float64, n), make([]float64, n)
			init := p.initStates()[0]
			ghostRows(p.sz, func(d, q int) { copy(p.cur[q:q+n2], init[d:d+n2]) })
		},
		Compute: func() {
			loops.Run(0, p.steps, parallel, p.sz[0], 1, func(t, x0, x1 int) {
				cur, next := p.cur, p.next
				if t%2 == 1 {
					cur, next = next, cur
				}
				for x := x0; x < x1; x++ {
					for y := 0; y < p.sz[1]; y++ {
						base := (x+1)*q1 + (y+1)*q2 + 1
						dst := next[base : base+n2]
						if p.corners {
							update27(dst, cur, base, q1, q2)
						} else {
							update7At(dst, cur, base, q1, q2)
						}
					}
				}
			})
		},
		Result: func() []float64 {
			final := p.cur
			if p.steps%2 == 1 {
				final = p.next
			}
			out := make([]float64, prod(p.sz[:]))
			ghostRows(p.sz, func(d, q int) { copy(out[d:d+n2], final[q:q+n2]) })
			return out
		},
	}
}
