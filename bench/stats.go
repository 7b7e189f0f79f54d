package main

import (
	"math"
	"sort"
)

// median returns the sample median (mean of the middle pair for even n) and
// 0 for an empty sample. The input is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the q-quantile (q in [0,1]) of xs by linear
// interpolation between closest ranks — the definition under which the
// 0.5-quantile of an even sample is the mean of its middle pair. It returns
// 0 for an empty sample and does not modify the input.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
