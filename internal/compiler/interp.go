package compiler

import (
	"fmt"
	"sync"

	"pochoir"
)

// Instance is an executable stencil built from a checked specification. It
// carries the kernel twice. The point kernel (Kernel) evaluates the
// expression tree per point through the checked Array API — the Phase-1
// path, Pochoir-compliant by construction, and what RunChecked and shadow
// verification execute. The row program (rowprog.go) is the same tree
// lowered once to elementwise operations over unit-stride rows; its two
// base-case clones are attached to Stencil, so Run and every supervised run
// of Stencil execute them, bit-identical to the point kernel.
//
// Each form is built on its first use, not by NewInstance: a job that is
// shed, coalesced or expired in the queue pays for neither, and one that is
// never shadow-verified never builds the point kernel.
//
// The instance owns its arrays' boundaries: the clones resolve off-domain
// accesses from the declared kinds, so a boundary function re-registered on
// one of Arrays changes the point kernel's answers and is ignored by Run.
//
// An array the kernel never writes is an input, not run state: Stencil does
// not register it, so checkpoints, restores and spill journals leave every
// one of its time slots as the caller filled them. A checkpoint holds only
// the slots a run reads next, which for a written array is all the state
// there is; an unwritten array's reads cycle through every slot.
type Instance struct {
	Checked *Checked
	Stencil *pochoir.Stencil[float64]
	Arrays  map[string]*pochoir.Array[float64]

	clones pochoir.BaseKernels

	lowerOnce sync.Once
	rows      *rowProgram

	pointOnce sync.Once
	point     []pointStmt
}

// NewInstance allocates arrays of the given spatial sizes, registers
// boundaries per the specification, and assembles the stencil object.
func (c *Checked) NewInstance(sizes ...int) (*Instance, error) {
	if len(sizes) != c.Prog.Dims {
		return nil, fmt.Errorf("compiler: stencil %q has %d dims, got %d sizes",
			c.Prog.Name, c.Prog.Dims, len(sizes))
	}
	inst := &Instance{
		Checked: c,
		Stencil: pochoir.New[float64](c.Shape),
		Arrays:  make(map[string]*pochoir.Array[float64]),
	}
	written := make(map[string]bool, len(c.Prog.Kernel))
	for _, st := range c.Prog.Kernel {
		written[st.LHS.Array] = true
	}
	for _, decl := range c.Prog.Arrays {
		a, err := pochoir.NewArray[float64](c.Depth, sizes...)
		if err != nil {
			return nil, err
		}
		switch decl.Boundary {
		case BoundaryPeriodic:
			a.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
		case BoundaryClamp:
			a.RegisterBoundary(pochoir.NeumannBoundary[float64]())
		case BoundaryConstant:
			a.RegisterBoundary(pochoir.ConstBoundary(decl.Constant))
		default:
			a.RegisterBoundary(pochoir.ZeroBoundary[float64]())
		}
		if written[decl.Name] {
			if err := inst.Stencil.RegisterArray(a); err != nil {
				return nil, err
			}
		}
		inst.Arrays[decl.Name] = a
	}
	// §4's two clones: interior zoids walk their rows in true coordinates,
	// everything else takes the row-splitting boundary clone (rowexec.go).
	// That clone runs an edge row's in-domain span at interior speed, so
	// the walker need not cut rows (WholeRows).
	inst.clones = pochoir.BaseKernels{
		Interior:  func(z pochoir.Zoid) { inst.lowered().exec(z, false) },
		Boundary:  func(z pochoir.Zoid) { inst.lowered().exec(z, true) },
		WholeRows: true,
	}
	inst.Stencil.AttachBaseKernels(inst.clones)
	return inst, nil
}

// lowered returns the row program, building it on the first call. Base cases
// run concurrently, hence the Once; after the first call it costs one atomic
// load per base case.
func (inst *Instance) lowered() *rowProgram {
	inst.lowerOnce.Do(func() { inst.rows = lowerRows(inst) })
	return inst.rows
}

// evalFn evaluates one expression at the kernel point (t, x). idx is the
// evaluation's index scratch, len(x) long: each array access composes its
// coordinates there instead of allocating, and is done with it before any
// other node runs.
type evalFn func(t int, x, idx []int) float64

// compileExpr lowers an expression tree to nested closures.
func (inst *Instance) compileExpr(e Expr) evalFn {
	switch n := e.(type) {
	case *Num:
		v := n.Value
		return func(int, []int, []int) float64 { return v }
	case *Ref:
		v := inst.Checked.Param(n.Name)
		return func(int, []int, []int) float64 { return v }
	case *Access:
		arr := inst.Arrays[n.Array]
		dt := n.DT
		dx := append([]int(nil), n.DX...)
		return func(t int, x, idx []int) float64 {
			for i := range idx {
				idx[i] = x[i] + dx[i]
			}
			return arr.Get(t+dt, idx...)
		}
	case *Unary:
		x := inst.compileExpr(n.X)
		return func(t int, xs, idx []int) float64 { return -x(t, xs, idx) }
	case *Binary:
		l, r := inst.compileExpr(n.L), inst.compileExpr(n.R)
		switch n.Op {
		case '+':
			return func(t int, xs, idx []int) float64 { return l(t, xs, idx) + r(t, xs, idx) }
		case '-':
			return func(t int, xs, idx []int) float64 { return l(t, xs, idx) - r(t, xs, idx) }
		case '*':
			return func(t int, xs, idx []int) float64 { return l(t, xs, idx) * r(t, xs, idx) }
		default:
			return func(t int, xs, idx []int) float64 { return l(t, xs, idx) / r(t, xs, idx) }
		}
	case *Call:
		a, b := inst.compileExpr(n.Args[0]), inst.compileExpr(n.Args[1])
		if n.Name == "max" {
			return func(t int, xs, idx []int) float64 {
				va, vb := a(t, xs, idx), b(t, xs, idx)
				if va >= vb {
					return va
				}
				return vb
			}
		}
		return func(t int, xs, idx []int) float64 {
			va, vb := a(t, xs, idx), b(t, xs, idx)
			if va <= vb {
				return va
			}
			return vb
		}
	}
	panic(fmt.Sprintf("compiler: unknown expression node %T", e))
}

// pointStmt is one kernel statement of the point kernel.
type pointStmt struct {
	arr *pochoir.Array[float64]
	rhs evalFn
}

func (inst *Instance) compileStmts() []pointStmt {
	var stmts []pointStmt
	for _, st := range inst.Checked.Prog.Kernel {
		stmts = append(stmts, pointStmt{
			arr: inst.Arrays[st.LHS.Array],
			rhs: inst.compileExpr(st.RHS),
		})
	}
	return stmts
}

// idxPool holds the point kernel's index scratch, which escapes.
var idxPool = sync.Pool{New: func() any { return new([MaxDSLDims]int) }}

// Kernel returns the checked point kernel in the form Stencil's run methods
// take: every statement evaluated at (t, x) through Array.Get/Set and the
// registered boundary functions. RunChecked and shadow verification execute
// it; its closure trees are built when it first runs.
func (inst *Instance) Kernel() pochoir.Kernel {
	homeDT := inst.Checked.HomeDT
	return func(t int, x []int) {
		inst.pointOnce.Do(func() { inst.point = inst.compileStmts() })
		idx := idxPool.Get().(*[MaxDSLDims]int)
		for _, s := range inst.point {
			s.arr.Set(t+homeDT, s.rhs(t, x, idx[:len(x)]), x...)
		}
		idxPool.Put(idx)
	}
}

// Run executes the stencil for steps time steps on the row-program clones.
func (inst *Instance) Run(steps int, opts pochoir.Options) error {
	inst.Stencil.SetOptions(opts)
	return inst.Stencil.RunSpecialized(steps, inst.clones)
}

// Clones returns the row-program clones Run executes, for a caller that
// runs them, or one of them, through Stencil.RunSpecialized itself.
func (inst *Instance) Clones() pochoir.BaseKernels { return inst.clones }

// RunChecked executes the point kernel with the Pochoir Guarantee enforced:
// any access outside the inferred shape is reported. Because the shape is
// inferred from these very accesses this should never fire; it exists to
// guard the compiler itself and is exercised by the test suite.
func (inst *Instance) RunChecked(steps int) error {
	return inst.Stencil.RunChecked(steps, inst.Kernel())
}
