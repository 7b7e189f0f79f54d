package compiler

import (
	"sync"
	"sync/atomic"

	"pochoir"
)

// rowChunk is the longest unit-stride span one pass of the row program
// covers. A scratch row is rowChunk float64s (2 KiB), so the handful of
// rows a kernel needs stay in L1 while dispatch amortises over the chunk.
const rowChunk = 256

// rowProgram is a checked kernel lowered once per Instance for row-at-a-time
// execution: the expression trees become a flat list of elementwise
// operations whose operands are constants, zero-copy views into the arrays'
// time slots, or pooled scratch rows. A left-deep chain of + and - is one
// opSum (see sum), every other AST node one op; either way each point sees
// the tree's own IEEE operations in the tree's own association, so results
// equal the per-point closure tree bit for bit.
//
// Both base-case clones run this one program on every point (see exec in
// rowexec.go). Where a view operand points is a table lookup: offs where the
// whole footprint is in domain, else what the boundary clone rebinds it to.
type rowProgram struct {
	dims    int
	sizes   [MaxDSLDims]int
	strides [MaxDSLDims]int
	// reachLo and reachHi bound the kernel's read footprint per dimension:
	// a point x reads within [x-reachLo, x+reachHi].
	reachLo, reachHi [MaxDSLDims]int
	homeDT           int

	views []rowView
	refs  []viewRef // every view operand of ops, in lowering order
	offs  []int     // refs' flat offsets from the point being written
	ops   []rowOp
	args  []operand // the ops' operands, end to end
	coefs []float64 // opSum multiplies args[i] by coefs[i]
	nrows int       // scratch rows the ops need at once

	flatRows atomic.Int64 // rows flat has run, summed per base case (see putScratch)
}

// rowView is one (array, time) plane the program touches: dt is relative to
// the time being written, so 0 is a statement's destination and reads are
// negative. kind is the array's declared boundary, and fill the row an
// operand is bound to where a zero or constant boundary supplies the value.
type rowView struct {
	arr  *pochoir.Array[float64]
	dt   int
	kind BoundaryKind
	fill []float64
}

// viewRef is one access: the view it reads (or writes) and its offset vector.
type viewRef struct {
	view int
	dx   [MaxDSLDims]int
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
	opSum // ((c0*x0 + c1*x1) + c2*x2) ... over its k terms
)

// maxSumTerms is the longest opSum; a longer chain continues in a second op
// whose first term is the first's result.
const maxSumTerms = 9

type operandKind uint8

const (
	inConst operandKind = iota
	inView              // views[idx], wherever the binding in force puts refs[ref]
	inRow               // scratch row idx
)

type operand struct {
	kind operandKind
	idx  int
	ref  int
	val  float64
}

// rowOp is dst = code(args[t0:t0+k]): one operand for a unary code, two for
// a binary one, up to maxSumTerms for opSum. dst may alias an operand: every
// operation is elementwise over the same index range.
type rowOp struct {
	code  opcode
	dst   operand
	t0, k int
}

// term is one operand of an op being emitted, and for opSum the coefficient
// it is multiplied by.
type term struct {
	c float64
	x operand
}

// rowScratch is the per-base-case working set.
type rowScratch struct {
	rows  []float64   // the program's nrows rows of rowChunk, end to end
	slots [][]float64 // views bound to the current time step
	bound []int       // the boundary clone's binding of refs (see rebind)
	flat  int64       // rows flat has run in the current base case
}

// zeroRow is the fill of every zero-boundary view.
var zeroRow [rowChunk]float64

// lowerRows lowers the instance's checked kernel. The cost is linear in AST
// nodes and no scratch is allocated until a clone first runs.
func lowerRows(inst *Instance) *rowProgram {
	c := inst.Checked
	p := &rowProgram{dims: c.Prog.Dims, homeDT: c.HomeDT}
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
	// Sized for the repository's specs, so that lowering one grows nothing.
	n := len(c.Reads) + 4*len(c.Prog.Kernel)
	p.refs, p.offs = make([]viewRef, 0, 2*n), make([]int, 0, 2*n)
	p.args, p.coefs = make([]operand, 0, 2*n), make([]float64, 0, 2*n)
	lw := lowerer{inst: inst, prog: p, nodes: make([]lnode, 0, 4*n), terms: make([]lterm, 0, 4*n)}
	for _, st := range c.Prog.Kernel {
		lw.nodes = lw.nodes[:0]
		lw.terms = lw.terms[:0]
		root := lw.flatten(st.RHS)
		dst := lw.access(st.LHS.Array, 0, nil)
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
// MaxExprDepth+2 rows, maxSumTerms more that edgeRow or ends may rebind
// to, and one a gathered chunk's result waits in to be scattered.
var scratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// getScratch takes a scratch from the pool and sizes it for p.
func (p *rowProgram) getScratch() *rowScratch {
	sc := scratchPool.Get().(*rowScratch)
	if need := (p.nrows + maxSumTerms + 1) * rowChunk; len(sc.rows) < need {
		sc.rows = make([]float64, need)
	}
	if need := len(p.views); cap(sc.slots) < need {
		sc.slots = make([][]float64, need)
	}
	sc.slots = sc.slots[:len(p.views)]
	if need := len(p.refs); cap(sc.bound) < need {
		sc.bound = make([]int, need)
	}
	sc.bound = sc.bound[:len(p.refs)]
	return sc
}

// putScratch returns sc to the pool without the views it was bound to, so a
// pooled scratch never keeps a finished job's arrays alive, and adds the rows
// the base case flattened to p's count: tests read it to see that flat ran.
func (p *rowProgram) putScratch(sc *rowScratch) {
	if sc.flat > 0 {
		p.flatRows.Add(sc.flat)
		sc.flat = 0
	}
	clear(sc.slots)
	sc.bound = sc.bound[:0]
	scratchPool.Put(sc)
}

// lnode is one node of the lowered tree in post order: a leaf (k == 0)
// carries its operand, an interior node its k operands — one for opNeg, two
// for a binary code, up to maxSumTerms for opSum — as a list of lterms from
// the last, l, back to the first. rows counts the operands that are
// themselves interior nodes, whose values take a scratch row each, and need
// the rows evaluating those takes at once.
type lnode struct {
	code opcode
	leaf operand
	l, k int
	rows int
	need int
}

// lterm is one operand of an interior node: the value of node — for opSum
// times c — after the operand prev (unset at the first).
type lterm struct {
	c          float64
	node, prev int
}

type lowerer struct {
	inst  *Instance
	prog  *rowProgram
	nodes []lnode
	terms []lterm
	free  []int // scratch rows released by stack discipline
}

func (lw *lowerer) view(array string, dt int) int {
	arr := lw.inst.Arrays[array]
	for i, v := range lw.prog.views {
		if v.arr == arr && v.dt == dt {
			return i
		}
	}
	decl := lw.inst.Checked.Array(array)
	v := rowView{arr: arr, dt: dt, kind: decl.Boundary}
	switch v.kind {
	case BoundaryZero:
		v.fill = zeroRow[:]
	case BoundaryConstant:
		v.fill = make([]float64, rowChunk)
		fill(v.fill, decl.Constant)
	}
	lw.prog.views = append(lw.prog.views, v)
	return len(lw.prog.views) - 1
}

// access is the operand for array at time offset dt (relative to the time
// being written) and spatial offset dx, nil meaning the point itself.
func (lw *lowerer) access(array string, dt int, dx []int) operand {
	p := lw.prog
	r := viewRef{view: lw.view(array, dt)}
	off := 0
	for i, d := range dx {
		r.dx[i] = d
		off += d * p.strides[i]
	}
	p.refs = append(p.refs, r)
	p.offs = append(p.offs, off)
	return operand{kind: inView, idx: r.view, ref: len(p.refs) - 1}
}

func (lw *lowerer) push(n lnode) int {
	lw.nodes = append(lw.nodes, n)
	return len(lw.nodes) - 1
}

// rowsOf is the scratch rows node i's subtree needs at once. Sethi–Ullman: a
// leaf needs none, and evaluating the needier operand first lets the other
// reuse what it freed — so a left-deep chain of any length runs in one row.
func (lw *lowerer) rowsOf(i int) int {
	if n := &lw.nodes[i]; n.k > 0 {
		return max(n.need, 1)
	}
	return 0
}

// with is the interior node n with the operand c times node i added.
func (lw *lowerer) with(n lnode, c float64, i int) lnode {
	lw.terms = append(lw.terms, lterm{c: c, node: i, prev: n.l})
	n.l, n.k = len(lw.terms)-1, n.k+1
	if need := lw.rowsOf(i); need > 0 {
		n.rows++
		if need == n.need {
			need++
		}
		n.need = max(n.need, need)
	}
	return n
}

// flatten appends e's subtree in post order and returns the root's index.
// An operation over constants only is folded here with the same run-time
// IEEE operation the executor would perform, so every emitted op has at
// least one row or view operand.
func (lw *lowerer) flatten(e Expr) int {
	switch n := e.(type) {
	case *Num:
		return lw.push(lnode{leaf: operand{val: n.Value}})
	case *Ref:
		return lw.push(lnode{leaf: operand{val: lw.inst.Checked.Param(n.Name)}})
	case *Access:
		return lw.push(lnode{leaf: lw.access(n.Array, n.DT-lw.prog.homeDT, n.DX)})
	case *Unary:
		x := lw.flatten(n.X)
		if c, ok := lw.constant(x); ok {
			return lw.push(lnode{leaf: operand{val: -c}})
		}
		return lw.push(lw.with(lnode{code: opNeg}, 0, x))
	case *Binary:
		return lw.binary(binaryCode[n.Op], n.L, n.R)
	case *Call:
		code := opMin
		if n.Name == "max" {
			code = opMax
		}
		return lw.binary(code, n.Args[0], n.Args[1])
	}
	panic("compiler: unknown expression node")
}

var binaryCode = [256]opcode{'+': opAdd, '-': opSub, '*': opMul, '/': opDiv}

func (lw *lowerer) binary(code opcode, le, re Expr) int {
	l, r := lw.flatten(le), lw.flatten(re)
	a, lconst := lw.constant(l)
	b, rconst := lw.constant(r)
	switch {
	case lconst && rconst:
		var v [1]float64
		binaryRC(code, v[:], []float64{a}, b)
		return lw.push(lnode{leaf: operand{val: v[0]}})
	case lconst || rconst || (code != opAdd && code != opSub):
		return lw.push(lw.with(lw.with(lnode{code: code}, 0, l), 0, r))
	}
	return lw.sum(code, l, r)
}

func (lw *lowerer) constant(i int) (float64, bool) {
	n := &lw.nodes[i]
	return n.leaf.val, n.k == 0 && n.leaf.kind == inConst
}

// sum is the node for l ± r, neither a constant: the chain l ends extended
// by the term r, or a new chain with l as its first term. A chain is one
// opSum, evaluated in AST order with the accumulator in a register — the
// tree's own arithmetic, because x - c*y == x + (-c)*y, -(c*y) == (-c)*y and
// 1*x == x exactly in IEEE (rounding is symmetric in sign), NaN payloads
// aside, and a term absorbs only signs and one multiplication by a constant.
// A chain holds at most two terms that take a row, so it needs exactly the
// rows the binary tree would, and maxSumTerms in all; past either it is the
// first term of the chain that continues it. A constant is not a term: it
// stays a binary op on the chain so far.
func (lw *lowerer) sum(code opcode, l, r int) int {
	c := 1.0
	if code == opSub {
		c = -1
	}
	c, r = lw.term(c, r)
	s := lw.nodes[l]
	if s.code != opSum || s.k == maxSumTerms || (s.rows == 2 && lw.nodes[r].k > 0) {
		lc, ln := lw.term(1, l)
		s = lw.with(lnode{code: opSum}, lc, ln)
	}
	return lw.push(lw.with(s, c, r))
}

// term splits c times node i into a coefficient and what it multiplies.
func (lw *lowerer) term(c float64, i int) (float64, int) {
	for scaled := false; ; {
		n := &lw.nodes[i]
		if n.k == 0 || n.code == opSum {
			return c, i
		}
		b := lw.terms[n.l]
		switch {
		case n.code == opNeg:
			c, i = -c, b.node
			continue
		case n.code == opMul && !scaled:
			scaled = true
			a := lw.terms[b.prev]
			if v, ok := lw.constant(a.node); ok {
				c, i = c*v, b.node
				continue
			}
			if v, ok := lw.constant(b.node); ok {
				c, i = c*v, a.node
				continue
			}
		}
		return c, i
	}
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

// emit appends the ops computing node i and returns where the result lives:
// the operands that take a row first, the needier first, then the node's own
// op. With dst set (a statement's root) that op writes there directly;
// otherwise the result takes over an operand's row or a fresh one.
func (lw *lowerer) emit(i int, dst *operand) operand {
	n := lw.nodes[i]
	if n.k == 0 && dst == nil {
		return n.leaf
	}
	ts := [maxSumTerms]term{{x: n.leaf}}
	var at, node [2]int // the operands that take a row: index in ts and node, last first
	rows := 0
	for j, t := n.k-1, n.l; j >= 0; j, t = j-1, lw.terms[t].prev {
		lt := lw.terms[t]
		ts[j] = term{c: lt.c, x: lw.nodes[lt.node].leaf}
		if lw.nodes[lt.node].k > 0 {
			at[rows], node[rows] = j, lt.node
			rows++
		}
	}
	if rows == 2 && lw.rowsOf(node[1]) >= lw.rowsOf(node[0]) {
		at[0], at[1], node[0], node[1] = at[1], at[0], node[1], node[0]
	}
	for i := 0; i < rows; i++ {
		ts[at[i]].x = lw.emit(node[i], nil)
	}
	p := lw.prog
	op := rowOp{code: n.code, t0: len(p.args), k: max(n.k, 1)}
	for _, t := range ts[:op.k] {
		p.args = append(p.args, t.x)
		p.coefs = append(p.coefs, t.c)
		if t.x.kind == inRow {
			lw.free = append(lw.free, t.x.idx)
		}
	}
	if dst != nil {
		op.dst = *dst
	} else {
		op.dst = operand{kind: inRow, idx: lw.alloc()}
	}
	p.ops = append(p.ops, op)
	return op.dst
}
