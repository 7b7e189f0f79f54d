package main

import (
	"fmt"
	"math"
)

// The oracle is independent of everything it judges. Library results are
// compared with the stencils package's plain serial loop nest (no engine,
// no scheduler, no grid accessors); served checksums are compared with the
// hand-written loop nests below, which share no code with the compiler, the
// interpreter, the grid package or the gateway.

// resultTolerance is the absolute tolerance internal/stencils' own tests
// allow between two execution paths when they are not bit-identical.
const resultTolerance = 1e-9

// hashFloats is FNV-64a over the little-endian bit patterns of xs — the
// same fingerprint the gateway serves as a job's checksum.
func hashFloats(xs []float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range xs {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= prime
			b >>= 8
		}
	}
	return h
}

// reference is an oracle result with its fingerprint.
type reference struct {
	values []float64
	hash   uint64
}

func newReference(values []float64) reference {
	return reference{values: values, hash: hashFloats(values)}
}

// matches reports whether got equals the reference: bit-identical by hash,
// else element-wise within resultTolerance.
func (r reference) matches(got []float64) bool {
	if len(got) != len(r.values) {
		return false
	}
	if hashFloats(got) == r.hash {
		return true
	}
	for i, v := range got {
		if d := math.Abs(v - r.values[i]); !(d <= resultTolerance) {
			return false
		}
	}
	return true
}

// gatewayInit is a copy of the gateway's deterministic initial condition
// for array number ai at time slot t: a pure function of (seed, ai, t, flat
// index) with values in [0,1).
func gatewayInit(buf []float64, seed int64, ai, t int) {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(ai)<<32 + uint64(t)
	for i := range buf {
		h ^= uint64(i) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xbf58476d1ce4e5b9
		buf[i] = float64(h>>11) / float64(1<<53)
	}
}

// checksumString renders a fingerprint the way the gateway serves it.
func checksumString(h uint64) string { return fmt.Sprintf("%016x", h) }

// The two served specs. The reference loop nests below evaluate exactly
// these expression trees, left to right, with an explicit float64 rounding
// after every operation so no platform may fuse a multiply-add.
const (
	heat2dSpec = `stencil heat2d {
  dims: 2;
  param CX = 0.125;
  param CY = 0.125;
  array u;
  boundary u: periodic;
  kernel {
    u(t+1, x, y) = u(t, x, y)
      + CX * (u(t, x+1, y) - 2*u(t, x, y) + u(t, x-1, y))
      + CY * (u(t, x, y+1) - 2*u(t, x, y) + u(t, x, y-1));
  }
}`
	heat1dSpec = `stencil heat1d {
  dims: 1;
  array u;
  boundary u: periodic;
  kernel {
    u(t+1, x) = 0.25*u(t, x-1) + 0.5*u(t, x) + 0.25*u(t, x+1);
  }
}`
)

// refHeat2DPeriodic computes the checksum a served heat2dSpec job must
// report for an X×Y torus after steps time steps from the seeded field.
func refHeat2DPeriodic(seed int64, X, Y, steps int) string {
	const cx, cy = 0.125, 0.125
	cur, next := make([]float64, X*Y), make([]float64, X*Y)
	gatewayInit(cur, seed, 0, 0)
	for t := 0; t < steps; t++ {
		for x := 0; x < X; x++ {
			row, rowM, rowP := x*Y, ((x+X-1)%X)*Y, ((x+1)%X)*Y
			for y := 0; y < Y; y++ {
				ym, yp := (y+Y-1)%Y, (y+1)%Y
				c := cur[row+y]
				twoC := float64(2 * c)
				lapX := float64(float64(cur[rowP+y]-twoC) + cur[rowM+y])
				lapY := float64(float64(cur[row+yp]-twoC) + cur[row+ym])
				next[row+y] = float64(float64(c+float64(cx*lapX)) + float64(cy*lapY))
			}
		}
		cur, next = next, cur
	}
	return checksumString(hashFloats(cur))
}

// refHeat1DPeriodic is the same for heat1dSpec on a ring of X points.
func refHeat1DPeriodic(seed int64, X, steps int) string {
	cur, next := make([]float64, X), make([]float64, X)
	gatewayInit(cur, seed, 0, 0)
	for t := 0; t < steps; t++ {
		for x := 0; x < X; x++ {
			l, c, r := cur[(x+X-1)%X], cur[x], cur[(x+1)%X]
			next[x] = float64(float64(float64(0.25*l)+float64(0.5*c)) + float64(0.25*r))
		}
		cur, next = next, cur
	}
	return checksumString(hashFloats(cur))
}

// refHeat2DZero advances the seeded field `steps` steps of the 2D heat
// equation with a zero Dirichlet boundary, using a ghost-cell halo — the
// reference for the phase1-spill closure kernel.
func refHeat2DZero(init []float64, X, Y, steps int) []float64 {
	const cx, cy = 0.125, 0.125
	py := Y + 2
	cur, next := make([]float64, (X+2)*py), make([]float64, (X+2)*py)
	for x := 0; x < X; x++ {
		copy(cur[(x+1)*py+1:(x+1)*py+1+Y], init[x*Y:(x+1)*Y])
	}
	for t := 0; t < steps; t++ {
		for x := 1; x <= X; x++ {
			for y := 1; y <= Y; y++ {
				i := x*py + y
				c := cur[i]
				twoC := float64(2 * c)
				lapX := float64(float64(cur[i+py]-twoC) + cur[i-py])
				lapY := float64(float64(cur[i+1]-twoC) + cur[i-1])
				next[i] = float64(float64(c+float64(cx*lapX)) + float64(cy*lapY))
			}
		}
		cur, next = next, cur
	}
	out := make([]float64, X*Y)
	for x := 0; x < X; x++ {
		copy(out[x*Y:(x+1)*Y], cur[(x+1)*py+1:(x+1)*py+1+Y])
	}
	return out
}
