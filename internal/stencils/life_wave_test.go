package stencils

import (
	"testing"

	"pochoir"
)

func TestLifeAllPaths(t *testing.T) {
	f := NewLifeFactory()
	checkAllPaths(t, func() Instance { return f.New([]int{53, 49}, 28) }, true)
}

// TestLifeGlider verifies Life semantics absolutely: a glider on an empty
// torus translates by (1,1) every 4 generations.
func TestLifeGlider(t *testing.T) {
	const N, steps = 16, 8 // two full glider periods
	sh := LifeShape()
	st := pochoir.New[uint8](sh)
	u := pochoir.MustArray[uint8](sh.Depth(), N, N)
	u.RegisterBoundary(pochoir.PeriodicBoundary[uint8]())
	st.MustRegisterArray(u)
	glider := [][2]int{{1, 2}, {2, 3}, {3, 1}, {3, 2}, {3, 3}}
	for _, p := range glider {
		u.Set(0, 1, p[0], p[1])
	}
	kern := pochoir.K2(func(tt, x, y int) {
		n := u.Get(tt, x-1, y-1) + u.Get(tt, x-1, y) + u.Get(tt, x-1, y+1) +
			u.Get(tt, x, y-1) + u.Get(tt, x, y+1) +
			u.Get(tt, x+1, y-1) + u.Get(tt, x+1, y) + u.Get(tt, x+1, y+1)
		u.Set(tt+1, lifeRule(u.Get(tt, x, y), n), x, y)
	})
	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}
	live := 0
	for x := 0; x < N; x++ {
		for y := 0; y < N; y++ {
			v := u.Get(steps, x, y)
			live += int(v)
			want := uint8(0)
			for _, p := range glider {
				if x == p[0]+steps/4 && y == p[1]+steps/4 {
					want = 1
				}
			}
			if v != want {
				t.Fatalf("cell (%d,%d) = %d, want %d", x, y, v, want)
			}
		}
	}
	if live != 5 {
		t.Fatalf("glider should have 5 live cells, got %d", live)
	}
}

func TestWave3DAllPaths(t *testing.T) {
	f := NewWave3DFactory()
	checkAllPaths(t, func() Instance { return f.New([]int{22, 18, 20}, 13) }, true)
}

func TestWave3DShape(t *testing.T) {
	cells := [][]int{{1, 0, 0, 0}, {0, 0, 0, 0}, {-1, 0, 0, 0},
		{0, 1, 0, 0}, {0, -1, 0, 0}, {0, 0, 1, 0}, {0, 0, -1, 0}, {0, 0, 0, 1}, {0, 0, 0, -1}}
	checkShape(t, NewWave3DFactory(), cells)
}
