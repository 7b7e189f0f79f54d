package grid

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pochoir/internal/shape"
)

// refArray is the naive model the checked accessors are held to: strides
// multiplied out of the extents, the slot of t by %, one flat slice.
type refArray struct {
	sizes, strides []int
	slots, total   int
	data           []float64
}

func newRefArray(depth int, sizes []int) *refArray {
	r := &refArray{sizes: sizes, strides: make([]int, len(sizes)), slots: depth + 1, total: 1}
	for k := len(sizes) - 1; k >= 0; k-- {
		r.strides[k] = r.total
		r.total *= sizes[k]
	}
	r.data = make([]float64, r.slots*r.total)
	return r
}

func (r *refArray) inDomain(idx []int) bool {
	for k, x := range idx {
		if x < 0 || x >= r.sizes[k] {
			return false
		}
	}
	return true
}

// at is the element holding time t at the in-domain index idx.
func (r *refArray) at(t int, idx []int) *float64 {
	i := ((t % r.slots) + r.slots) % r.slots * r.total
	for k, x := range idx {
		i += x * r.strides[k]
	}
	return &r.data[i]
}

func (r *refArray) wrapped(idx []int) []int {
	w := make([]int, len(idx))
	for k, x := range idx {
		w[k] = ((x % r.sizes[k]) + r.sizes[k]) % r.sizes[k]
	}
	return w
}

func (r *refArray) clamped(idx []int) []int {
	c := make([]int, len(idx))
	for k, x := range idx {
		c[k] = max(0, min(x, r.sizes[k]-1))
	}
	return c
}

// refCells is a rank-dimensional shape of the given depth: the home cell,
// the centre and its axis neighbours one step back, and the centre depth
// steps back.
func refCells(rank, depth int) [][]int {
	cell := func(dt, k, d int) []int {
		c := make([]int, rank+1)
		c[0] = dt
		if k >= 0 {
			c[1+k] = d
		}
		return c
	}
	cells := [][]int{cell(1, -1, 0), cell(0, -1, 0)}
	for k := 0; k < rank; k++ {
		cells = append(cells, cell(0, k, 1), cell(0, k, -1))
	}
	if depth > 1 {
		cells = append(cells, cell(1-depth, -1, 0))
	}
	return cells
}

// TestAccessorsMatchReference holds Get, Set, GetPeriodic, GetClamped and
// Slot to refArray on random accesses: depths 1-3 (2, 3 and 4 slots, so
// slots found by mask and by division), ranks 1-5 (5 is past the inline
// geometry), times -5..5 and around 2⁴⁰, indices in and off the domain under
// zero, periodic and clamping boundary functions, with shape checking off
// and on. With checking on, every Get and Set must record a violation
// exactly when its offset from the home point is not a declared cell.
func TestAccessorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	times := []int{-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 1 << 40, 1<<40 + 1, 1<<40 + 2}
	for depth := 1; depth <= 3; depth++ {
		for rank := 1; rank <= 5; rank++ {
			for _, bnd := range []string{"zero", "periodic", "clamp"} {
				for _, check := range []bool{false, true} {
					sizes := make([]int, rank)
					for k := range sizes {
						sizes[k] = 1 + rng.Intn(min(5, 1+12/rank))
					}
					name := fmt.Sprintf("depth%d/sizes%v/%s/check=%v", depth, sizes, bnd, check)
					accessorRounds(t, name, rng, depth, sizes, bnd, check, times)
				}
			}
		}
	}
}

func accessorRounds(t *testing.T, name string, rng *rand.Rand, depth int, sizes []int, bnd string, check bool, times []int) {
	a := MustNewArray[float64](depth, sizes...)
	ref := newRefArray(depth, sizes)
	var gotT int
	var gotIdx []int
	a.RegisterBoundary(map[string]Boundary[float64]{
		"zero": func(_ *Array[float64], tt int, idx []int) float64 {
			gotT, gotIdx = tt, idx
			return -1
		},
		"periodic": func(arr *Array[float64], tt int, idx []int) float64 { return arr.GetPeriodic(tt, idx...) },
		"clamp":    func(arr *Array[float64], tt int, idx []int) float64 { return arr.GetClamped(tt, idx...) },
	}[bnd])
	cells := refCells(len(sizes), depth)
	if check {
		a.EnableShapeCheck(shape.MustNew(len(sizes), cells))
	}
	for op := 0; op < 300; op++ {
		tt := times[rng.Intn(len(times))]
		idx := make([]int, len(sizes))
		for k, n := range sizes {
			idx[k] = rng.Intn(n)
			if rng.Intn(6) == 0 {
				idx[k] = []int{-2, -1, n, n + 1}[rng.Intn(4)]
			}
		}
		violates := false
		if check {
			// Half the time, reach the access from a home point through a
			// declared cell; otherwise any home point will do.
			home := make([]int, len(idx))
			homeT := tt - rng.Intn(depth+1)
			copy(home, idx)
			if rng.Intn(2) == 0 {
				c := cells[rng.Intn(len(cells))]
				homeT = tt - c[0]
				for k := range home {
					home[k] = idx[k] - c[1+k]
				}
			} else {
				home[rng.Intn(len(home))] += rng.Intn(3) - 1
			}
			a.SetHome(homeT, home)
			off := []int{tt - homeT}
			for k := range idx {
				off = append(off, idx[k]-home[k])
			}
			violates = !slices.ContainsFunc(cells, func(c []int) bool { return slices.Equal(c, off) })
		}
		in := ref.inDomain(idx)
		switch kind := rng.Intn(4); kind {
		case 0: // Set
			v := float64(op + 1)
			if !in {
				if !panics(func() { a.Set(tt, v, idx...) }) {
					t.Fatalf("%s: Set(%d, %v) off-domain did not panic", name, tt, idx)
				}
				break
			}
			a.Set(tt, v, idx...)
			*ref.at(tt, idx) = v
		case 1: // Get
			gotIdx = nil
			got := a.Get(tt, idx...)
			var want float64
			switch {
			case in:
				want = *ref.at(tt, idx)
			case bnd == "zero":
				want = -1
				if gotT != tt || !slices.Equal(gotIdx, idx) {
					t.Fatalf("%s: Get(%d, %v) handed the boundary function t=%d idx=%v", name, tt, idx, gotT, gotIdx)
				}
			case bnd == "periodic":
				want = *ref.at(tt, ref.wrapped(idx))
			default:
				want = *ref.at(tt, ref.clamped(idx))
			}
			if got != want {
				t.Fatalf("%s: Get(%d, %v) = %v, want %v", name, tt, idx, got, want)
			}
		case 2:
			if got, want := a.GetPeriodic(tt, idx...), *ref.at(tt, ref.wrapped(idx)); got != want {
				t.Fatalf("%s: GetPeriodic(%d, %v) = %v, want %v", name, tt, idx, got, want)
			}
			continue
		case 3:
			if got, want := a.GetClamped(tt, idx...), *ref.at(tt, ref.clamped(idx)); got != want {
				t.Fatalf("%s: GetClamped(%d, %v) = %v, want %v", name, tt, idx, got, want)
			}
			continue
		}
		if check {
			if err := a.CheckErr(); (err != nil) != violates {
				t.Fatalf("%s: access t=%d idx=%v: violation %v, want one: %v", name, tt, idx, err, violates)
			}
			a.EnableShapeCheck(a.checkShape) // clear the recorded violation
		}
	}
	for s := 0; s < ref.slots; s++ {
		if got, want := a.Slot(s), ref.data[s*ref.total:(s+1)*ref.total]; !slices.Equal(got, want) {
			t.Fatalf("%s: Slot(%d) = %v, want %v", name, s, got, want)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestIndexRankPanics: an index with fewer or more coordinates than the
// array's rank panics with a message naming the rank, and writes nothing.
// A short index must not read or write another point (on a 4×4 array,
// Get(0, 1) is not the value at (1, 0)), and a long one must not die on a
// bare runtime index error.
func TestIndexRankPanics(t *testing.T) {
	for _, sizes := range [][]int{{4}, {4, 4}, {3, 4, 5}} {
		for _, depth := range []int{1, 2} {
			a := MustNewArray[float64](depth, sizes...)
			a.RegisterBoundary(func(*Array[float64], int, []int) float64 { return -1 })
			for s := 0; s < a.Slots(); s++ {
				for i := range a.Slot(s) {
					a.Slot(s)[i] = float64(1 + i)
				}
			}
			before := slices.Clone(a.data)
			var idxs [][]int
			if len(sizes) > 1 {
				idxs = append(idxs, make([]int, len(sizes)-1))
			}
			idxs = append(idxs, make([]int, len(sizes)+1))
			for _, idx := range idxs {
				idx[0] = 1
				for name, use := range map[string]func(){
					"Get":         func() { a.Get(0, idx...) },
					"Set":         func() { a.Set(0, 9, idx...) },
					"GetPeriodic": func() { a.GetPeriodic(0, idx...) },
					"GetClamped":  func() { a.GetClamped(0, idx...) },
				} {
					msg := func() (msg string) {
						defer func() { msg = fmt.Sprint(recover()) }()
						use()
						return "no panic"
					}()
					if want := fmt.Sprintf("rank %d", len(sizes)); !strings.Contains(msg, want) {
						t.Errorf("sizes %v depth %d: %s with index %v: %q, want a panic naming %q", sizes, depth, name, idx, msg, want)
					}
				}
			}
			if !slices.Equal(a.data, before) {
				t.Errorf("sizes %v depth %d: an index of the wrong rank wrote to the array", sizes, depth)
			}
		}
	}
}
