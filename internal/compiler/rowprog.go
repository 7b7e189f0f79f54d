package compiler

import (
	"sync"

	"pochoir"
)

// rowChunk is the longest unit-stride span one pass of the row program
// covers. A scratch row is rowChunk float64s (2 KiB), so the handful of
// rows a kernel needs stay in L1 while dispatch amortises over the chunk.
const rowChunk = 256

// rowProgram is a checked kernel lowered once per Instance for row-at-a-time
// execution: the expression trees become a flat list of elementwise
// operations whose operands are constants, zero-copy views into the arrays'
// time slots at a precomputed flat offset, or pooled scratch rows. Every AST
// node is still one IEEE operation per point in the tree's own association,
// and every intermediate is stored to a row, so results equal the per-point
// closure tree bit for bit.
//
// Both base-case clones run this one program (see exec in rowexec.go); the
// points whose stencil footprint leaves the domain go through point, the
// closure-tree point kernel, and so through the arrays' boundary functions.
type rowProgram struct {
	dims    int
	sizes   [MaxDSLDims]int
	strides [MaxDSLDims]int
	// reachLo and reachHi bound the kernel's read footprint per dimension:
	// a point x reads within [x-reachLo, x+reachHi].
	reachLo, reachHi [MaxDSLDims]int
	homeDT           int

	views []rowView
	ops   []rowOp
	nrows int // scratch rows the ops need at once

	point []pointStmt // the checked per-point path (applyPoint)
}

// rowView is one (array, time) plane the program touches: dt is relative to
// the time being written, so 0 is a statement's destination and reads are
// negative.
type rowView struct {
	arr *pochoir.Array[float64]
	dt  int
}

type opcode uint8

const (
	opCopy opcode = iota // a statement whose right-hand side is a bare leaf
	opNeg
	opAdd
	opSub
	opMul
	opDiv
	opMax
	opMin
)

type operandKind uint8

const (
	inConst operandKind = iota
	inView              // views[idx] at flat offset off from the row base
	inRow               // scratch row idx
)

type operand struct {
	kind operandKind
	idx  int
	off  int
	val  float64
}

// rowOp is dst = code(a, b); unary codes ignore b. dst may alias a or b:
// every operation is elementwise over the same index range.
type rowOp struct {
	code      opcode
	dst, a, b operand
}

// rowScratch is the per-base-case working set.
type rowScratch struct {
	rows  []float64   // the program's nrows rows of rowChunk, end to end
	slots [][]float64 // views bound to the current time step
	// x is the true coordinates of the current row and idx the point
	// kernel's index scratch. They live here, not on the stack, because the
	// point kernel takes them as slices and would otherwise force a heap
	// allocation per base case.
	x, idx [MaxDSLDims]int
}

// lowerRows lowers the instance's checked kernel. The cost is linear in AST
// nodes and no scratch is allocated until a clone first runs.
func lowerRows(inst *Instance) *rowProgram {
	c := inst.Checked
	p := &rowProgram{dims: c.Prog.Dims, homeDT: c.HomeDT, point: inst.compileStmts()}
	first := inst.Arrays[c.Prog.Arrays[0].Name]
	for i := 0; i < p.dims; i++ {
		p.sizes[i] = first.Size(i)
		p.strides[i] = first.Stride(i)
	}
	for _, a := range c.Reads {
		for i, dx := range a.DX {
			p.reachLo[i] = max(p.reachLo[i], -dx)
			p.reachHi[i] = max(p.reachHi[i], dx)
		}
	}
	lw := lowerer{inst: inst, prog: p}
	for _, st := range c.Prog.Kernel {
		lw.nodes = lw.nodes[:0]
		root := lw.flatten(st.RHS)
		dst := operand{kind: inView, idx: lw.view(st.LHS.Array, 0)}
		lw.emit(root, &dst)
	}
	return p
}

// scratchPool is shared by every program. A served job's Instance runs once,
// so a pool per program would allocate its rows anew for each job, register
// itself with the runtime under a global lock, and keep the finished job's
// grids reachable for two collections; one pool makes the steady state of a
// daemon allocation-free across jobs as well as across base cases. A scratch
// grows to the largest program that used it, which the front door bounds at
// MaxExprDepth+2 rows.
var scratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// getScratch takes a scratch from the pool and sizes it for p.
func (p *rowProgram) getScratch() *rowScratch {
	sc := scratchPool.Get().(*rowScratch)
	if need := p.nrows * rowChunk; len(sc.rows) < need {
		sc.rows = make([]float64, need)
	}
	if need := len(p.views); cap(sc.slots) < need {
		sc.slots = make([][]float64, need)
	}
	sc.slots = sc.slots[:len(p.views)]
	return sc
}

// putScratch returns sc to the pool without the views it was bound to, so a
// pooled scratch never keeps a finished job's arrays alive.
func putScratch(sc *rowScratch) {
	clear(sc.slots)
	scratchPool.Put(sc)
}

// lnode is one AST node in post order: a leaf (l < 0) carries its operand,
// an interior node its children's indices and the scratch rows its subtree
// needs at once.
type lnode struct {
	code opcode
	leaf operand
	l, r int // child indices; -1 when absent
	need int
}

type lowerer struct {
	inst  *Instance
	prog  *rowProgram
	nodes []lnode
	free  []int // scratch rows released by stack discipline
}

func (lw *lowerer) view(array string, dt int) int {
	arr := lw.inst.Arrays[array]
	for i, v := range lw.prog.views {
		if v.arr == arr && v.dt == dt {
			return i
		}
	}
	lw.prog.views = append(lw.prog.views, rowView{arr: arr, dt: dt})
	return len(lw.prog.views) - 1
}

func (lw *lowerer) push(n lnode) int {
	lw.nodes = append(lw.nodes, n)
	return len(lw.nodes) - 1
}

// flatten appends e's subtree in post order and returns the root's index.
// An operation over constants only is folded here with the same run-time
// IEEE operation the executor would perform, so every emitted op has at
// least one row or view operand.
func (lw *lowerer) flatten(e Expr) int {
	leaf := func(o operand) int { return lw.push(lnode{leaf: o, l: -1, r: -1}) }
	switch n := e.(type) {
	case *Num:
		return leaf(operand{val: n.Value})
	case *Ref:
		return leaf(operand{val: lw.inst.Checked.Param(n.Name)})
	case *Access:
		off := 0
		for i, dx := range n.DX {
			off += dx * lw.prog.strides[i]
		}
		return leaf(operand{kind: inView, idx: lw.view(n.Array, n.DT-lw.prog.homeDT), off: off})
	case *Unary:
		x := lw.flatten(n.X)
		if c, ok := lw.constant(x); ok {
			return leaf(operand{val: -c})
		}
		return lw.push(lnode{code: opNeg, l: x, r: -1, need: max(lw.nodes[x].need, 1)})
	case *Binary:
		return lw.binary(binaryCode(n.Op), n.L, n.R)
	case *Call:
		code := opMin
		if n.Name == "max" {
			code = opMax
		}
		return lw.binary(code, n.Args[0], n.Args[1])
	}
	panic("compiler: unknown expression node")
}

func binaryCode(op byte) opcode {
	switch op {
	case '+':
		return opAdd
	case '-':
		return opSub
	case '*':
		return opMul
	}
	return opDiv
}

func (lw *lowerer) binary(code opcode, le, re Expr) int {
	l, r := lw.flatten(le), lw.flatten(re)
	if a, ok := lw.constant(l); ok {
		if b, ok := lw.constant(r); ok {
			return lw.push(lnode{leaf: operand{val: scalarOp(code, a, b)}, l: -1, r: -1})
		}
	}
	// Sethi–Ullman: a leaf needs no row, and evaluating the needier child
	// first lets the other reuse what it freed — so a left-deep chain of
	// any length runs in one row.
	nl, nr := lw.nodes[l].need, lw.nodes[r].need
	need := max(nl, nr, 1)
	if nl == nr && nl > 0 {
		need = nl + 1
	}
	return lw.push(lnode{code: code, l: l, r: r, need: need})
}

func (lw *lowerer) constant(i int) (float64, bool) {
	n := &lw.nodes[i]
	return n.leaf.val, n.l < 0 && n.leaf.kind == inConst
}

// scalarOp is the per-point semantics of each binary node; the row loops in
// rowexec.go are these same expressions over slices.
func scalarOp(code opcode, a, b float64) float64 {
	switch code {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	case opMul:
		return a * b
	case opDiv:
		return a / b
	case opMax:
		if a >= b {
			return a
		}
		return b
	}
	if a <= b {
		return a
	}
	return b
}

// alloc hands out a released row when there is one, so nrows is the most
// rows ever live at once.
func (lw *lowerer) alloc() int {
	if n := len(lw.free); n > 0 {
		row := lw.free[n-1]
		lw.free = lw.free[:n-1]
		return row
	}
	lw.prog.nrows++
	return lw.prog.nrows - 1
}

func (lw *lowerer) release(o operand) {
	if o.kind == inRow {
		lw.free = append(lw.free, o.idx)
	}
}

// emit appends the ops computing node i and returns where the result lives.
// With dst set (a statement's root) the final op writes there directly;
// otherwise the result takes over an operand's row or a fresh one.
func (lw *lowerer) emit(i int, dst *operand) operand {
	n := lw.nodes[i]
	if n.l < 0 {
		if dst != nil {
			lw.prog.ops = append(lw.prog.ops, rowOp{code: opCopy, dst: *dst, a: n.leaf})
			return *dst
		}
		return n.leaf
	}
	var a, b operand
	switch {
	case n.r < 0:
		a = lw.emit(n.l, nil)
	case lw.nodes[n.l].need >= lw.nodes[n.r].need:
		a = lw.emit(n.l, nil)
		b = lw.emit(n.r, nil)
	default:
		b = lw.emit(n.r, nil)
		a = lw.emit(n.l, nil)
	}
	lw.release(a)
	lw.release(b)
	var out operand
	if dst != nil {
		out = *dst
	} else {
		out = operand{kind: inRow, idx: lw.alloc()}
	}
	lw.prog.ops = append(lw.prog.ops, rowOp{code: n.code, dst: out, a: a, b: b})
	return out
}
