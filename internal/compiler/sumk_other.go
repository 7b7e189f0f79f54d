//go:build !amd64

package compiler

// useVector stays false: sumRows runs its Go loops.
var useVector bool

func sumK(dst []float64, x *[maxSumTerms][]float64, c []float64) {
	panic("compiler: sumK without AVX2")
}
