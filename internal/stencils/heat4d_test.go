package stencils

import "testing"

func TestHeat4DAllPaths(t *testing.T) {
	f := NewHeat4DFactory()
	checkAllPaths(t, func() Instance { return f.New([]int{9, 8, 10, 11}, 7) }, true)
}
