package stencils

import (
	"math"
	"testing"

	"pochoir"
)

func TestLCSAllPaths(t *testing.T) {
	f := NewLCSFactory()
	checkAllPaths(t, func() Instance { return f.New([]int{301}, 620) }, true)
}

// TestLCSKnownAnswer compares the stencil formulation against the textbook
// O(nm) dynamic program.
func TestLCSKnownAnswer(t *testing.T) {
	inst := NewLCSFactory().New([]int{121}, 260).(*lcs) // n=120, m=140
	if inst.n+inst.m > inst.steps+1 {
		t.Fatalf("workload does not reach D(n,m): n=%d m=%d steps=%d", inst.n, inst.m, inst.steps)
	}
	final := inst.Pochoir(pochoir.Options{}).Run()
	got := inst.Score(final)

	// Direct DP on the same sequences.
	n, m := inst.n, inst.m
	d := make([][]int, n+1)
	for i := range d {
		d[i] = make([]int, m+1)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			best := d[i-1][j]
			if d[i][j-1] > best {
				best = d[i][j-1]
			}
			diag := d[i-1][j-1]
			if inst.seqA[i-1] == inst.seqB[j-1] {
				diag++
			}
			if diag > best {
				best = diag
			}
			d[i][j] = best
		}
	}
	if got != float64(d[n][m]) {
		t.Fatalf("stencil LCS = %v, direct DP = %d", got, d[n][m])
	}
	if d[n][m] == 0 {
		t.Fatal("degenerate test: LCS should be nonzero for random 4-letter sequences")
	}
}

func TestPSAAllPaths(t *testing.T) {
	f := NewPSAFactory()
	checkAllPaths(t, func() Instance { return f.New([]int{281}, 580) }, true)
}

// TestPSAKnownAnswer compares the anti-diagonal stencil against a direct
// 2D Gotoh implementation.
func TestPSAKnownAnswer(t *testing.T) {
	inst := NewPSAFactory().New([]int{101}, 220).(*psa) // n=100, m=120
	final := inst.Pochoir(pochoir.Options{}).Run()
	got := inst.Score(final)

	n, m := inst.n, inst.m
	alloc := func() [][]float64 {
		g := make([][]float64, n+1)
		for i := range g {
			g[i] = make([]float64, m+1)
		}
		return g
	}
	M, X, Y := alloc(), alloc(), alloc()
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			switch {
			case i == 0 && j == 0:
				M[0][0], X[0][0], Y[0][0] = 0, psaNegInf, psaNegInf
			case j == 0:
				M[i][0] = psaNegInf
				X[i][0] = -(psaOpen + float64(i-1)*psaExtend)
				Y[i][0] = psaNegInf
			case i == 0:
				M[0][j] = psaNegInf
				X[0][j] = psaNegInf
				Y[0][j] = -(psaOpen + float64(j-1)*psaExtend)
			default:
				M[i][j] = inst.score(i, j) + max3(M[i-1][j-1], X[i-1][j-1], Y[i-1][j-1])
				X[i][j] = max2(M[i-1][j]-psaOpen, X[i-1][j]-psaExtend)
				Y[i][j] = max2(M[i][j-1]-psaOpen, Y[i][j-1]-psaExtend)
			}
		}
	}
	want := max3(M[n][m], X[n][m], Y[n][m])
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("stencil PSA = %v, direct Gotoh = %v", got, want)
	}
	if want <= psaNegInf/2 {
		t.Fatal("degenerate: alignment score should be finite")
	}
}

func TestAPOPAllPaths(t *testing.T) {
	f := NewAPOPFactory()
	checkAllPaths(t, func() Instance { return f.New([]int{3000}, 700) }, true)
}

// TestAPOPProperties: an American option is worth at least its immediate
// exercise value everywhere, never more than the strike, and is
// nonincreasing in the asset price.
func TestAPOPProperties(t *testing.T) {
	inst := NewAPOPFactory().New([]int{2000}, 900).(*apop)
	final := inst.Pochoir(pochoir.Options{}).Run()
	prev := math.Inf(1)
	for i, v := range final {
		if p := inst.payoff(i); v < p-1e-9 {
			t.Fatalf("value %g below payoff %g at %d (early exercise violated)", v, p, i)
		}
		if v > apopStrike+1e-9 {
			t.Fatalf("put worth %g > strike at %d", v, i)
		}
		if v > prev+1e-9 {
			t.Fatalf("put value increased with asset price at %d", i)
		}
		prev = v
	}
	// Time value: at the money the option must be worth strictly more
	// than immediate exercise.
	atm := inst.PriceAtStrike(final)
	if atm <= 0 {
		t.Fatalf("at-the-money American put should have positive value, got %g", atm)
	}
}

func TestRNAAllPaths(t *testing.T) {
	f := NewRNAFactory()
	checkAllPaths(t, func() Instance { return f.New([]int{40, 40}, 60) }, true)
}

// TestRNAKnownAnswer compares the sweep formulation with a direct DP over
// the same (bifurcation-free) recurrence.
func TestRNAKnownAnswer(t *testing.T) {
	inst := NewRNAFactory().New([]int{64, 64}, 63).(*rna)
	final := inst.Pochoir(pochoir.Options{}).Run()

	n := inst.n
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			at := func(ii, jj int) float64 {
				if ii < 0 || ii >= n || jj < 0 || jj >= n || jj < ii {
					return 0
				}
				return d[ii][jj]
			}
			best := at(i+1, j)
			if v := at(i, j-1); v > best {
				best = v
			}
			if inst.pair(i, j) {
				if v := at(i+1, j-1) + 1; v > best {
					best = v
				}
			}
			d[i][j] = best
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if final[i*n+j] != d[i][j] {
				t.Fatalf("N(%d,%d): stencil %v, direct %v", i, j, final[i*n+j], d[i][j])
			}
		}
	}
	if inst.Score(final) == 0 {
		t.Fatal("degenerate: random sequence should admit pairings")
	}
}

func TestPt7AllPaths(t *testing.T) {
	f := NewPt7Factory()
	checkAllPaths(t, func() Instance { return f.New([]int{24, 20, 22}, 12) }, true)
}

func TestPt27AllPaths(t *testing.T) {
	f := NewPt27Factory()
	checkAllPaths(t, func() Instance { return f.New([]int{20, 22, 24}, 11) }, true)
}

func TestPtShapes(t *testing.T) {
	for _, corners := range []bool{false, true} {
		cells := [][]int{{1, 0, 0, 0}}
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if corners || dx*dx+dy*dy+dz*dz <= 1 {
						cells = append(cells, []int{0, dx, dy, dz})
					}
				}
			}
		}
		f, want := NewPt7Factory(), 8 // home + 7
		if corners {
			f, want = NewPt27Factory(), 28 // home + 27
		}
		if len(cells) != want {
			t.Fatalf("%s: built %d cells, want %d", f.Name, len(cells), want)
		}
		checkShape(t, f, cells)
	}
}

// TestAllBenchmarksTinyAgree runs every registered benchmark at a tiny
// scale through all four paths — a safety net for any benchmark whose
// dedicated test above might rot.
func TestAllBenchmarksTinyAgree(t *testing.T) {
	tiny := map[string]struct {
		sizes []int
		steps int
	}{
		"Heat 2":      {[]int{20, 24}, 10},
		"Heat 2p":     {[]int{20, 20}, 12},
		"Heat 4":      {[]int{6, 7, 6, 8}, 5},
		"Life 2p":     {[]int{18, 18}, 9},
		"Wave 3":      {[]int{10, 12, 10}, 6},
		"LBM 3":       {[]int{8, 8, 10}, 5},
		"RNA 2":       {[]int{24, 24}, 30},
		"PSA 1":       {[]int{61}, 130},
		"LCS 1":       {[]int{61}, 130},
		"APOP":        {[]int{500}, 120},
		"3D 7-point":  {[]int{12, 10, 12}, 6},
		"3D 27-point": {[]int{10, 12, 10}, 6},
	}
	for _, f := range All() {
		cfg, ok := tiny[f.Name]
		if !ok {
			t.Errorf("no tiny config for %q — add one", f.Name)
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			checkAllPaths(t, func() Instance { return f.New(cfg.sizes, cfg.steps) }, true)
		})
	}
}
