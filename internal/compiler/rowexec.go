package compiler

import (
	"math"

	"pochoir"
)

// exec is both base-case clones (§4, code cloning): it applies the kernel to
// every point of z, time step by time step. The interior clone (wrap false)
// receives only zoids whose every access is in domain and walks their rows
// in true coordinates. The boundary clone (wrap true) receives the rest: it
// reduces coordinates modulo the extents, splits each row where it wraps,
// and runs the same row program, an operand whose access would leave the
// domain rebound to where the array's boundary kind says the value is.
func (p *rowProgram) exec(z pochoir.Zoid, wrap bool) {
	sc := p.getScratch()
	d := p.dims
	var lo, hi [MaxDSLDims]int
	copy(lo[:d], z.Lo[:d])
	copy(hi[:d], z.Hi[:d])
	for t := z.T0; t < z.T1; t++ {
		for i, v := range p.views {
			sc.slots[i] = v.arr.Slot(t + v.dt)
		}
		p.step(sc, &lo, &hi, wrap)
		for i := 0; i < d; i++ {
			lo[i] += z.DLo[i]
			hi[i] += z.DHi[i]
		}
	}
	p.putScratch(sc)
}

// step sweeps one time step's box [lo, hi) row by row: an odometer over the
// outer dimensions, the unit-stride dimension handed to a row routine, or a
// run of whole rows along dimension d-2 that binds in domain handed to flat.
func (p *rowProgram) step(sc *rowScratch, lo, hi *[MaxDSLDims]int, wrap bool) {
	d := p.dims
	for i := 0; i < d; i++ {
		if lo[i] >= hi[i] {
			return
		}
	}
	last := d - 1
	w := p.reachLo[last] + p.reachHi[last] // flat takes whole rows with a point out of reach of both ends
	flat := d > 1 && hi[last]-lo[last] == p.sizes[last] && p.sizes[last] > w && w <= rowChunk
	var vx, x [MaxDSLDims]int // virtual and true coordinates of the row
	// rewind puts outer dimension i back at the low edge of the box.
	rewind := func(i int) {
		vx[i] = lo[i]
		x[i] = lo[i]
		if wrap {
			x[i] = modIdx(lo[i], p.sizes[i])
		}
	}
	for i := 0; i < last; i++ {
		rewind(i)
	}
	for {
		base := 0
		for i := 0; i < last; i++ {
			base += x[i] * p.strides[i]
		}
		rows := 0
		if flat { // up to the box's edge along d-2
			rows = p.inDomainRows(&x, hi[last-1]-vx[last-1])
		}
		switch {
		case rows > 0:
			p.flat(sc, base, rows)
			sc.flat += int64(rows)
			vx[last-1], x[last-1] = vx[last-1]+rows-1, x[last-1]+rows-1
		case wrap:
			p.wrappedRow(sc, &x, lo[last], hi[last])
		default:
			p.span(sc, p.offs, false, base, lo[last], hi[last]-lo[last])
		}
		i := last - 1
		for ; i >= 0; i-- {
			vx[i]++
			if vx[i] < hi[i] {
				x[i]++
				if wrap && x[i] == p.sizes[i] {
					x[i] = 0
				}
				break
			}
			rewind(i)
		}
		if i < 0 {
			return
		}
	}
}

// inDomainRows is how many rows from outer coordinates x on, at most most,
// bind every operand in domain.
func (p *rowProgram) inDomainRows(x *[MaxDSLDims]int, most int) int {
	y := p.dims - 2
	for i := 0; i <= y; i++ {
		if x[i] < p.reachLo[i] || x[i] >= p.sizes[i]-p.reachHi[i] {
			return 0
		}
	}
	return min(most, p.sizes[y]-p.reachHi[y]-x[y])
}

func modIdx(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// wrappedRow runs the row at true outer coordinates x over the virtual
// unit-stride range [vlo, vhi), cut where it wraps into in-domain pieces. A
// row whose outer coordinates are within reach of an edge runs rebound;
// where a piece comes within reach of its own ends, span deals with it.
func (p *rowProgram) wrappedRow(sc *rowScratch, x *[MaxDSLDims]int, vlo, vhi int) {
	last := p.dims - 1
	n := p.sizes[last]
	at, base, rebound := p.offs, 0, false
	for i := 0; i < last; i++ {
		rebound = rebound || x[i] < p.reachLo[i] || x[i] >= p.sizes[i]-p.reachHi[i]
		base += x[i] * p.strides[i]
	}
	if rebound {
		at, base = p.rebind(sc, x), 0
	}
	for v := vlo; v < vhi; {
		a := modIdx(v, n)
		b := min(n, a+vhi-v)
		v += b - a
		p.span(sc, at, rebound, base, a, b-a)
	}
}

// filled is the binding of an operand that reads its view's fill row.
const filled = math.MinInt

// rebind binds every view operand for the row at true outer coordinates x to
// its flat offset at unit-stride coordinate 0. A coordinate that leaves the
// domain is wrapped (periodic) or clamped to the edge (clamp), or puts the
// operand on the fill row (zero, constant) — what the array's declared
// boundary function answers. edgeRow does the same for the unit stride.
func (p *rowProgram) rebind(sc *rowScratch, x *[MaxDSLDims]int) []int {
	last := p.dims - 1
refs:
	for r := range p.refs {
		ref := &p.refs[r]
		off := ref.dx[last]
		for i := 0; i < last; i++ {
			c, n := x[i]+ref.dx[i], p.sizes[i]
			if c < 0 || c >= n {
				switch p.views[ref.view].kind {
				case BoundaryPeriodic:
					c = modIdx(c, n)
				case BoundaryClamp:
					c = min(max(c, 0), n-1)
				default:
					sc.bound[r] = filled
					continue refs
				}
			}
			off += c * p.strides[i]
		}
		sc.bound[r] = off
	}
	return sc.bound
}

// chunk is the at most rowChunk points one pass of the ops covers: n of
// them, view operand ref at flat offset base+at[ref] and unit-stride
// coordinate x, or (at nil) n ends of rows x on from base (see ends). halo
// counts the rows edgeRow or ends made up for the current op.
type chunk struct {
	*rowScratch
	at      []int
	base, x int
	n       int
	halo    int
}

// span runs the row program over n unit-stride points from coordinate x,
// rowChunk at a time, base the flat offset of coordinate 0 under binding at.
func (p *rowProgram) span(sc *rowScratch, at []int, rebound bool, base, x, n int) {
	last := p.dims - 1
	c := chunk{rowScratch: sc, at: at}
	for ; n > 0; x, n = x+rowChunk, n-rowChunk {
		c.base, c.x, c.n = base+x, x, min(n, rowChunk)
		// Where the boundary may come into a view operand.
		p.run(&c, rebound || x < p.reachLo[last] || x+c.n > p.sizes[last]-p.reachHi[last])
	}
}

// flat runs rows whole rows from flat offset base, which bind every operand
// in domain, as one span from reachLo into the first row to reachHi short of
// the last row's end. A point within reach of its row's end reads the next
// row, and its provisional value is overwritten when the reach-wide ends of
// all the rows run, gathered into chunks (DESIGN.md, "The row executor").
func (p *rowProgram) flat(sc *rowScratch, base, rows int) {
	last := p.dims - 1
	c := chunk{rowScratch: sc, at: p.offs}
	for x, end := base+p.reachLo[last], base+rows*p.sizes[last]-p.reachHi[last]; x < end; x += c.n {
		c.base, c.n = x, min(end-x, rowChunk-x%rowChunk) // chunks aligned in the slot
		p.run(&c, false)
	}
	c.at, c.base = nil, base
	w := p.reachLo[last] + p.reachHi[last]
	for x := 0; w > 0 && x < rows; x += rowChunk / w {
		c.x, c.n = x, min(rows-x, rowChunk/w)*w
		p.run(&c, false)
	}
}

// run applies the ops to one chunk. Multi-statement kernels go statement by
// statement: reads are strictly earlier than the write time, so none sees
// another's.
func (p *rowProgram) run(c *chunk, edge bool) {
	var xs [maxSumTerms][]float64
	for i := range p.ops {
		op := &p.ops[i]
		c.halo = 0
		args := p.args[op.t0 : op.t0+op.k]
		for j := range args {
			switch o := &args[j]; {
			case o.kind == inConst:
			case c.at == nil && o.kind == inView:
				xs[j] = p.ends(c, o, nil)
			case edge && o.kind == inView:
				xs[j] = p.edgeRow(c, o)
			default:
				xs[j] = c.rowOf(o)
			}
		}
		dst := c.rows[(p.nrows+maxSumTerms)*rowChunk:][:c.n] // a gathered result, to scatter
		if c.at != nil || op.dst.kind == inRow {
			dst = c.rowOf(&op.dst) // never off domain
		}
		switch a, b := &args[0], &args[len(args)-1]; {
		case op.code == opSum:
			sumRows(dst, p.coefs[op.t0:op.t0+op.k], &xs)
		case op.code == opCopy && a.kind == inConst:
			fill(dst, a.val)
		case op.code == opCopy:
			copy(dst, xs[0])
		case op.code == opNeg:
			negR(dst, xs[0])
		case a.kind == inConst:
			binaryCR(op.code, dst, a.val, xs[1])
		case b.kind == inConst:
			binaryRC(op.code, dst, xs[0], b.val)
		default:
			binaryRR(op.code, dst, xs[0], xs[1])
		}
		if c.at == nil && op.dst.kind == inView {
			p.ends(c, &op.dst, dst)
		}
	}
}

// rowOf is the chunk's elements of a row operand or an in-domain view one.
func (c *chunk) rowOf(o *operand) []float64 {
	if o.kind == inRow {
		return c.rows[o.idx*rowChunk:][:c.n]
	}
	off := c.base + c.at[o.ref]
	return c.slots[o.idx][off : off+c.n]
}

// edgeRow is rowOf for a view operand the boundary may come into. One whose
// accesses leave the unit-stride extent is rebound to a scratch row made up
// of the part in domain and, element by element, what lies beyond (see
// rebind).
func (p *rowProgram) edgeRow(c *chunk, o *operand) []float64 {
	v, off := &p.views[o.idx], c.at[o.ref]
	if off == filled {
		return v.fill[:c.n]
	}
	off += c.base
	src := c.slots[o.idx]
	n := p.sizes[p.dims-1]
	s := c.x + p.refs[o.ref].dx[p.dims-1] // unit-stride coordinate of the first access
	if s >= 0 && s+c.n <= n {
		return src[off : off+c.n]
	}
	row := c.rows[(p.nrows+c.halo)*rowChunk:][:c.n]
	c.halo++
	beyond := func(j int) float64 {
		switch v.kind {
		case BoundaryPeriodic:
			return src[off-s+modIdx(s+j, n)]
		case BoundaryClamp:
			return src[off-s+min(max(s+j, 0), n-1)]
		}
		return v.fill[0]
	}
	// row[j0:j1] is in domain.
	j0, j1 := min(max(-s, 0), c.n), min(max(n-s, 0), c.n)
	for j := 0; j < j0; j++ {
		row[j] = beyond(j)
	}
	if j0 < j1 {
		copy(row[j0:j1], src[off+j0:off+j1])
	}
	for j := j1; j < c.n; j++ {
		row[j] = beyond(j)
	}
	return row
}

// ends is rowOf and its inverse for view operand o of a gathered chunk: the
// reach-wide ends of rows x to x+n/w, row after row, low end first. It
// stores vals to the ends' points, or with vals nil loads what o reads at
// each into a scratch row, resolving the boundary as edgeRow does.
func (p *rowProgram) ends(c *chunk, o *operand, vals []float64) (row []float64) {
	last := p.dims - 1
	n, lo, w := p.sizes[last], p.reachLo[last], p.reachLo[last]+p.reachHi[last]
	v, dx, src := &p.views[o.idx], p.refs[o.ref].dx[last], c.slots[o.idx]
	if vals == nil {
		row = c.rows[(p.nrows+c.halo)*rowChunk:][:c.n]
		c.halo++
	}
	for k := 0; k < w; k++ {
		s := k + dx // the unit-stride coordinate end k reads
		if k >= lo {
			s += n - w
		}
		switch {
		case s >= 0 && s < n:
		case v.kind == BoundaryPeriodic:
			s = modIdx(s, n)
		case v.kind == BoundaryClamp:
			s = min(max(s, 0), n-1)
		default:
			for j := k; j < c.n; j += w {
				row[j] = v.fill[0]
			}
			continue
		}
		at := c.base + c.x*n + p.offs[o.ref] - dx + s
		if vals != nil {
			for j := k; j < c.n; j, at = j+w, at+n {
				src[at] = vals[j]
			}
			continue
		}
		for j := k; j < c.n; j, at = j+w, at+n {
			row[j] = src[at]
		}
	}
	return row
}

// The loops below are the whole arithmetic of the executor. Each performs
// the IEEE operations of the source expression in its operand order, every
// product and partial sum rounded by an explicit conversion, which forbids a
// fused multiply-add (arm64, GOAMD64=v3). maxOf and minOf are the point
// kernel's: the first argument on a tie, the second if either is NaN.

// mac is one step of a chain: the accumulator plus a rounded product.
func mac(s, c, x float64) float64 { return float64(s + float64(c*x)) }

// sumRows is opSum over the coefficients c, whose operands are x[:len(c)].
// Where the CPU has AVX2 it runs sumK, each lane of which does what these
// loops do; elsewhere the loops run, and under test they are sumK's oracle.
func sumRows(dst, c []float64, x *[maxSumTerms][]float64) {
	n := len(dst)
	if useVector {
		for j := range c {
			x[j] = x[j][:n] // sumK's bounds, checked before it runs
		}
		sumK(dst, x, c)
		return
	}
	x0, x1, c0, c1 := x[0][:n], x[1][:n], c[0], c[1]
	switch len(c) {
	case 2:
		for i := range dst {
			dst[i] = mac(float64(c0*x0[i]), c1, x1[i])
		}
	case 3:
		x2, c2 := x[2][:n], c[2]
		for i := range dst {
			dst[i] = mac(mac(float64(c0*x0[i]), c1, x1[i]), c2, x2[i])
		}
	case 4:
		x2, x3, c2, c3 := x[2][:n], x[3][:n], c[2], c[3]
		for i := range dst {
			dst[i] = mac(mac(mac(float64(c0*x0[i]), c1, x1[i]), c2, x2[i]), c3, x3[i])
		}
	case 5:
		x2, x3, x4, c2, c3, c4 := x[2][:n], x[3][:n], x[4][:n], c[2], c[3], c[4]
		for i := range dst {
			dst[i] = mac(mac(mac(mac(float64(c0*x0[i]), c1, x1[i]), c2, x2[i]), c3, x3[i]), c4, x4[i])
		}
	case 6:
		x2, x3, x4, x5, c2, c3, c4, c5 := x[2][:n], x[3][:n], x[4][:n], x[5][:n], c[2], c[3], c[4], c[5]
		for i := range dst {
			dst[i] = mac(mac(mac(mac(mac(float64(c0*x0[i]), c1, x1[i]), c2, x2[i]), c3, x3[i]), c4, x4[i]), c5, x5[i])
		}
	case 7:
		x2, x3, x4, x5, x6, c2, c3, c4, c5, c6 := x[2][:n], x[3][:n], x[4][:n], x[5][:n], x[6][:n], c[2], c[3], c[4], c[5], c[6]
		for i := range dst {
			dst[i] = mac(mac(mac(mac(mac(mac(float64(c0*x0[i]), c1, x1[i]), c2, x2[i]), c3, x3[i]), c4, x4[i]), c5, x5[i]), c6, x6[i])
		}
	case 8:
		x2, x3, x4, x5, x6, x7, c2, c3, c4, c5, c6, c7 := x[2][:n], x[3][:n], x[4][:n], x[5][:n], x[6][:n], x[7][:n], c[2], c[3], c[4], c[5], c[6], c[7]
		for i := range dst {
			dst[i] = mac(mac(mac(mac(mac(mac(mac(float64(c0*x0[i]), c1, x1[i]), c2, x2[i]), c3, x3[i]), c4, x4[i]), c5, x5[i]), c6, x6[i]), c7, x7[i])
		}
	case 9:
		x2, x3, x4, x5, x6, x7, x8, c2, c3, c4, c5, c6, c7, c8 := x[2][:n], x[3][:n], x[4][:n], x[5][:n], x[6][:n], x[7][:n], x[8][:n], c[2], c[3], c[4], c[5], c[6], c[7], c[8]
		for i := range dst {
			dst[i] = mac(mac(mac(mac(mac(mac(mac(mac(float64(c0*x0[i]), c1, x1[i]), c2, x2[i]), c3, x3[i]), c4, x4[i]), c5, x5[i]), c6, x6[i]), c7, x7[i]), c8, x8[i])
		}
	}
}

func maxOf(a, b float64) float64 {
	if a >= b {
		return a
	}
	return b
}

func minOf(a, b float64) float64 {
	if a <= b {
		return a
	}
	return b
}

func fill(dst []float64, c float64) {
	for i := range dst {
		dst[i] = c
	}
}

func negR(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = -a[i]
	}
}

func binaryRR(code opcode, dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch code {
	case opAdd:
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	case opSub:
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
	case opMul:
		for i := range dst {
			dst[i] = a[i] * b[i]
		}
	case opDiv:
		for i := range dst {
			dst[i] = a[i] / b[i]
		}
	case opMax:
		for i := range dst {
			dst[i] = maxOf(a[i], b[i])
		}
	case opMin:
		for i := range dst {
			dst[i] = minOf(a[i], b[i])
		}
	}
}

func binaryRC(code opcode, dst, a []float64, c float64) {
	a = a[:len(dst)]
	switch code {
	case opAdd:
		for i := range dst {
			dst[i] = a[i] + c
		}
	case opSub:
		for i := range dst {
			dst[i] = a[i] - c
		}
	case opMul:
		for i := range dst {
			dst[i] = a[i] * c
		}
	case opDiv:
		for i := range dst {
			dst[i] = a[i] / c
		}
	case opMax:
		for i := range dst {
			dst[i] = maxOf(a[i], c)
		}
	case opMin:
		for i := range dst {
			dst[i] = minOf(a[i], c)
		}
	}
}

func binaryCR(code opcode, dst []float64, c float64, b []float64) {
	b = b[:len(dst)]
	switch code {
	case opAdd:
		for i := range dst {
			dst[i] = c + b[i]
		}
	case opSub:
		for i := range dst {
			dst[i] = c - b[i]
		}
	case opMul:
		for i := range dst {
			dst[i] = c * b[i]
		}
	case opDiv:
		for i := range dst {
			dst[i] = c / b[i]
		}
	case opMax:
		for i := range dst {
			dst[i] = maxOf(c, b[i])
		}
	case opMin:
		for i := range dst {
			dst[i] = minOf(c, b[i])
		}
	}
}
