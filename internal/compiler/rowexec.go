package compiler

import "pochoir"

// exec is both base-case clones (§4, code cloning): it applies the kernel to
// every point of z, time step by time step. The interior clone (wrap false)
// receives only zoids whose every access is in domain and walks their rows
// in true coordinates. The boundary clone (wrap true) receives the rest: it
// reduces coordinates modulo the extents, splits each row where it wraps,
// runs the span whose whole footprint is in domain through the same row
// program, and hands the remaining edge points to the checked point kernel.
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
		p.step(sc, t-p.homeDT, &lo, &hi, wrap)
		for i := 0; i < d; i++ {
			lo[i] += z.DLo[i]
			hi[i] += z.DHi[i]
		}
	}
	putScratch(sc)
}

// step sweeps one time step's box [lo, hi) row by row: an odometer over the
// outer dimensions, the unit-stride dimension handed to a row routine. kt is
// the kernel's time argument for the per-point path.
func (p *rowProgram) step(sc *rowScratch, kt int, lo, hi *[MaxDSLDims]int, wrap bool) {
	d := p.dims
	for i := 0; i < d; i++ {
		if lo[i] >= hi[i] {
			return
		}
	}
	last := d - 1
	var vx [MaxDSLDims]int // virtual coordinates of the row; sc.x holds the true ones
	x := &sc.x
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
		if wrap {
			p.wrappedRow(sc, kt, lo[last], hi[last])
		} else {
			base := 0
			for i := 0; i < last; i++ {
				base += x[i] * p.strides[i]
			}
			p.span(sc, base+lo[last], hi[last]-lo[last])
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

func modIdx(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// wrappedRow runs the row at true outer coordinates sc.x over the virtual
// unit-stride range [vlo, vhi). The range is cut where it wraps; within each
// in-domain piece the points at least reachLo from the low edge and reachHi
// from the high edge form the fast span, and the rest are edge points. A row
// whose outer coordinates are themselves within reach of an edge is all edge
// points, as is any row of an extent smaller than the footprint.
func (p *rowProgram) wrappedRow(sc *rowScratch, kt int, vlo, vhi int) {
	x := &sc.x
	last := p.dims - 1
	n := p.sizes[last]
	fastLo, fastHi := p.reachLo[last], n-p.reachHi[last]
	base := 0
	for i := 0; i < last; i++ {
		if x[i] < p.reachLo[i] || x[i] >= p.sizes[i]-p.reachHi[i] {
			fastHi = fastLo // empty fast span
		}
		base += x[i] * p.strides[i]
	}
	for v := vlo; v < vhi; {
		a := modIdx(v, n)
		b := min(n, a+vhi-v)
		v += b - a
		// [a, b) is in domain; [fa, fb) is its fast part.
		fa, fb := min(max(a, fastLo), b), min(b, fastHi)
		if fa >= fb {
			fa, fb = b, b
		}
		p.points(sc, kt, a, fa)
		p.span(sc, base+fa, fb-fa)
		p.points(sc, kt, fb, b)
	}
}

// points applies the checked point kernel along the unit-stride range
// [a, b) of the row at sc.x.
func (p *rowProgram) points(sc *rowScratch, kt, a, b int) {
	d := p.dims
	x, idx := sc.x[:d], sc.idx[:d]
	for x[d-1] = a; x[d-1] < b; x[d-1]++ {
		p.applyPoint(kt, x, idx)
	}
}

// span runs the row program over n unit-stride points starting at flat
// offset base, rowChunk at a time. Multi-statement kernels go statement by
// statement per chunk: reads are strictly earlier than the common write
// time, so no statement sees another's output.
func (p *rowProgram) span(sc *rowScratch, base, n int) {
	for ; n > 0; base, n = base+rowChunk, n-rowChunk {
		m := min(n, rowChunk)
		for i := range p.ops {
			op := &p.ops[i]
			dst := sc.rowOf(&op.dst, base, m)
			switch {
			case op.code == opCopy:
				if op.a.kind == inConst {
					fill(dst, op.a.val)
				} else {
					copy(dst, sc.rowOf(&op.a, base, m))
				}
			case op.code == opNeg:
				negR(dst, sc.rowOf(&op.a, base, m))
			case op.a.kind == inConst:
				binaryCR(op.code, dst, op.a.val, sc.rowOf(&op.b, base, m))
			case op.b.kind == inConst:
				binaryRC(op.code, dst, sc.rowOf(&op.a, base, m), op.b.val)
			default:
				binaryRR(op.code, dst, sc.rowOf(&op.a, base, m), sc.rowOf(&op.b, base, m))
			}
		}
	}
}

// rowOf resolves a non-constant operand to its n elements for the chunk at
// flat offset base.
func (sc *rowScratch) rowOf(o *operand, base, n int) []float64 {
	if o.kind == inRow {
		return sc.rows[o.idx*rowChunk:][:n]
	}
	at := base + o.off
	return sc.slots[o.idx][at : at+n]
}

// The loops below are the whole arithmetic of the executor. Each performs
// one IEEE operation per element and stores it, in the operand order of the
// source expression — nothing here may be rewritten as a compound
// expression such as a*b+c, which arm64 would fuse. max and min keep the
// point kernel's >= and <= tie and NaN behaviour.

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
			if va, vb := a[i], b[i]; va >= vb {
				dst[i] = va
			} else {
				dst[i] = vb
			}
		}
	case opMin:
		for i := range dst {
			if va, vb := a[i], b[i]; va <= vb {
				dst[i] = va
			} else {
				dst[i] = vb
			}
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
			if va := a[i]; va >= c {
				dst[i] = va
			} else {
				dst[i] = c
			}
		}
	case opMin:
		for i := range dst {
			if va := a[i]; va <= c {
				dst[i] = va
			} else {
				dst[i] = c
			}
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
			if vb := b[i]; c >= vb {
				dst[i] = c
			} else {
				dst[i] = vb
			}
		}
	case opMin:
		for i := range dst {
			if vb := b[i]; c <= vb {
				dst[i] = c
			} else {
				dst[i] = vb
			}
		}
	}
}
