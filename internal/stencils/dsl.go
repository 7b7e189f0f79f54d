package stencils

import (
	"embed"
	"fmt"

	"pochoir"
	"pochoir/internal/compiler"
)

// specs holds the benchmarks written in the specification language.
//
//go:embed specs/*.pch
var specs embed.FS

// mustSpec compiles specs/name.pch.
func mustSpec(name string) *compiler.Checked {
	src, err := specs.ReadFile("specs/" + name + ".pch")
	if err != nil {
		panic(err)
	}
	c, err := compiler.CompileSource(string(src))
	if err != nil {
		panic(fmt.Sprintf("stencils: %s.pch: %v", name, err))
	}
	return c
}

// dslInstance is a benchmark whose Pochoir paths run the stencil compiler's
// instance of its specification, as the paper's Phase 2 does: Pochoir the
// row-program clones (compiler.Instance.Run), PochoirGeneric the checked
// point kernel through Stencil.Run. Both start from the time slots init
// returns, and the benchmark's own ghost-cell loop nests are the oracle they
// are held to.
type dslInstance struct {
	name  string
	spec  *compiler.Checked
	sizes []int
	steps int
	flops float64
	init  func() [][]float64      // the specification's one array at t = 0, 1, ...
	loops func(parallel bool) Job // LoopsSerial and LoopsParallel

	inst *compiler.Instance
}

func (d *dslInstance) Name() string           { return d.name }
func (d *dslInstance) Dims() int              { return len(d.sizes) }
func (d *dslInstance) Sizes() []int           { return d.sizes }
func (d *dslInstance) Steps() int             { return d.steps }
func (d *dslInstance) Points() int64          { return prod(d.sizes) }
func (d *dslInstance) FlopsPerPoint() float64 { return d.flops }
func (d *dslInstance) LoopsSerial() Job       { return d.loops(false) }
func (d *dslInstance) LoopsParallel() Job     { return d.loops(true) }

func (d *dslInstance) Pochoir(opts pochoir.Options) Job {
	return d.job(func() error { return d.inst.Run(d.steps, opts) })
}

func (d *dslInstance) PochoirGeneric(opts pochoir.Options) Job {
	return d.job(func() error {
		d.inst.Stencil.SetOptions(opts)
		return d.inst.Stencil.Run(d.steps, d.inst.Kernel())
	})
}

// PochoirNoInterior is the §4 modular-indexing ablation: the compiled
// boundary clone runs every zoid, the interior ones too.
func (d *dslInstance) PochoirNoInterior(opts pochoir.Options) Job {
	return d.specialized(opts, func(b pochoir.BaseKernels) pochoir.BaseKernels {
		b.Interior = nil
		return b
	})
}

// specialized is Pochoir on the clones edit makes of the compiled pair.
func (d *dslInstance) specialized(opts pochoir.Options, edit func(pochoir.BaseKernels) pochoir.BaseKernels) Job {
	return d.job(func() error {
		d.inst.Stencil.SetOptions(opts)
		return d.inst.Stencil.RunSpecialized(d.steps, edit(d.inst.Clones()))
	})
}

// array is the specification's one array.
func (d *dslInstance) array() *pochoir.Array[float64] {
	return d.inst.Arrays[d.spec.Prog.Arrays[0].Name]
}

func (d *dslInstance) job(run func() error) Job {
	u := d.array
	return Job{
		Setup: func() {
			var err error
			if d.inst, err = d.spec.NewInstance(d.sizes...); err != nil {
				panic(err)
			}
			for t, state := range d.init() {
				if err := u().CopyIn(t, state); err != nil {
					panic(err)
				}
			}
		},
		Compute: func() {
			if err := run(); err != nil {
				panic(err)
			}
		},
		Result: func() []float64 {
			out := make([]float64, d.Points())
			if err := u().CopyOut(d.steps+d.spec.Depth-1, out); err != nil {
				panic(err)
			}
			return out
		},
	}
}
