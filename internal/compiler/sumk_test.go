package compiler

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// haveVector is whether this CPU runs sumK. A test that flips useVector puts
// it back to this.
var haveVector = useVector

// vectorPaths are the settings of useVector a differential check runs under:
// sumK and the Go loops where the CPU has AVX2, the Go loops alone elsewhere.
func vectorPaths() []bool {
	if haveVector {
		return []bool{true, false}
	}
	return []bool{false}
}

// specials are the operands and coefficients where IEEE arithmetic has
// corners: signed zeros and infinities, subnormals, magnitudes whose products
// overflow (1e300·1e300) or underflow to a subnormal or to zero (1e-160·1e-160,
// 1e-300·1e-300), and a NaN, whose payload sameBits ignores.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	5e-324, -2.5e-310, 2.2250738585072014e-308,
	1e300, -1e300, math.MaxFloat64, 1e-160, -1e-160, 1e-300,
	math.NaN(), 1, -1, 0.1,
}

// sumBoth runs sumRows over c and x into a dst of n points on sumK and on
// the Go loops. dst starts 8 bytes past an allocation; alias ≥ 0 makes it
// operand alias, as when an op writes the scratch row it reads.
func sumBoth(c []float64, x [maxSumTerms][]float64, n, alias int) (vector, scalar []float64) {
	defer func() { useVector = haveVector }()
	run := func(on bool) []float64 {
		x := x
		dst := make([]float64, 1+n)[1:]
		if alias >= 0 {
			copy(dst, x[alias])
			x[alias] = dst
		}
		useVector = on
		sumRows(dst, c, &x)
		return dst
	}
	return run(true), run(false)
}

// TestSumRowsVectorMatchesScalar holds sumK against the Go loops, bit for
// bit, for every term count and every chunk length up to 300 — the 16-, 4-
// and 1-wide parts in every combination — over operands that start at every
// offset from an allocation and values from specials.
func TestSumRowsVectorMatchesScalar(t *testing.T) {
	if !haveVector {
		t.Skip("no AVX2: sumRows has only its Go loops")
	}
	rng := rand.New(rand.NewSource(26))
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return math.Ldexp(rng.NormFloat64(), rng.Intn(64)-32)
	}
	for k := 2; k <= maxSumTerms; k++ {
		for n := 0; n <= 300; n++ {
			c := make([]float64, k)
			var x [maxSumTerms][]float64
			for j := range c {
				c[j] = value()
				off := rng.Intn(4)
				buf := make([]float64, off+n+rng.Intn(3))
				for i := range buf {
					buf[i] = value()
				}
				x[j] = buf[off:]
			}
			alias := -1
			if n%5 == 0 {
				alias = rng.Intn(k)
			}
			got, want := sumBoth(c, x, n, alias)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("k %d n %d alias %d: point %d is %v (%#x) on sumK, %v (%#x) on the Go loops\ncoefficients %v\noperands %v",
					k, n, alias, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), c, column(x[:k], i))
			}
		}
	}
}

// column is point i of each operand.
func column(x [][]float64, i int) []float64 {
	var out []float64
	for _, r := range x {
		out = append(out, r[i])
	}
	return out
}

// FuzzSumRows is TestSumRowsVectorMatchesScalar over fuzzed bit patterns:
// the coefficients and then the operands are read from bits, 8 bytes each,
// round and round; k, n and the operands' offset come from the integers.
func FuzzSumRows(f *testing.F) {
	var seed []byte
	for _, v := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(1), uint16(17))
	f.Add(seed[:64], uint8(7), uint16(256))
	f.Add([]byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0x7f}, uint8(0x33), uint16(5))
	f.Fuzz(func(t *testing.T, bits []byte, k uint8, n uint16) {
		if !haveVector {
			t.Skip("no AVX2: sumRows has only its Go loops")
		}
		if len(bits) < 8 {
			t.Skip()
		}
		terms, points, off := 2+int(k)%(maxSumTerms-1), int(n)%(2*rowChunk+1), int(k>>4)%4
		word := func(w int) float64 {
			at := 8 * (w % (len(bits) / 8))
			return math.Float64frombits(binary.LittleEndian.Uint64(bits[at:]))
		}
		c := make([]float64, terms)
		var x [maxSumTerms][]float64
		w := 0
		for j := range c {
			c[j] = word(w)
			w++
		}
		for j := range c {
			x[j] = make([]float64, off+points)[off:]
			for i := range x[j] {
				x[j][i] = word(w)
				w++
			}
		}
		got, want := sumBoth(c, x, points, -1)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("k %d n %d: point %d is %#x on sumK, %#x on the Go loops\ncoefficients %v\noperands %v",
				terms, points, i, math.Float64bits(got[i]), math.Float64bits(want[i]), c, column(x[:terms], i))
		}
	})
}

// BenchmarkSumRows times one opSum over a chunk of rowChunk points, whose
// k+1 rows (at most 20 KiB) stay in L1: the arithmetic rate of the primitive
// on each path, in GFLOP/s of k multiplications and k-1 additions a point.
func BenchmarkSumRows(b *testing.B) {
	for _, k := range []int{3, 5, 9} {
		c := make([]float64, k)
		var x [maxSumTerms][]float64
		for j := range c {
			c[j] = 1 / float64(j+2)
			x[j] = make([]float64, rowChunk)
			for i := range x[j] {
				x[j][i] = float64(i*(j+1)) / rowChunk
			}
		}
		dst := make([]float64, rowChunk)
		for _, vector := range []bool{true, false} {
			name := map[bool]string{true: "vector", false: "scalar"}[vector]
			b.Run(fmt.Sprintf("k=%d/%s", k, name), func(b *testing.B) {
				if vector && !haveVector {
					b.Skip("no AVX2")
				}
				defer func() { useVector = haveVector }()
				useVector = vector
				for i := 0; i < b.N; i++ {
					sumRows(dst, c, &x)
				}
				b.ReportMetric(float64((2*k-1)*rowChunk*b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
