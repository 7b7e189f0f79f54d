package compiler

// useVector has sumRows run opSum through sumK. It is set once, from the
// CPU, and otherwise changed only by tests holding the two paths together.
var useVector = hasAVX2()

// hasAVX2 reports whether this CPU has AVX2 and the OS saves YMM state.
func hasAVX2() bool

// sumK is sumRows' loops in AVX2 (sumk_amd64.s).
//
//go:noescape
func sumK(dst []float64, x *[maxSumTerms][]float64, c []float64)
