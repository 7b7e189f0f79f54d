package zoid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// levelsOf collects a hyperspace cut's subzoids per dependency level through
// the enumerator, cross-checking Left against what Next delivers.
func levelsOf(t *testing.T, z Zoid, cuts []Cut) (levels [][]Zoid, total int) {
	t.Helper()
	var hc HyperCut
	hc.Init(&z, cuts)
	sub := z
	for l := 0; l <= hc.NumCut; l++ {
		hc.Start(l)
		var zs []Zoid
		for want := hc.Left(); hc.Next(&sub); want-- {
			if hc.Left() != want-1 {
				t.Fatalf("level %d: Left() = %d after a Next, want %d", l, hc.Left(), want-1)
			}
			zs = append(zs, sub)
		}
		if hc.Left() != 0 || hc.Next(&sub) {
			t.Fatalf("level %d: enumeration did not end cleanly", l)
		}
		levels = append(levels, zs)
		total += len(zs)
	}
	if total != hc.Total() {
		t.Fatalf("enumerated %d subzoids, Total() = %d", total, hc.Total())
	}
	return levels, total
}

// TestHyperspaceCutCounts verifies Lemma 1's structural claims: cutting k
// dimensions yields 3^k subzoids (4 per circle-cut dimension) spread over
// exactly k+1 dependency levels, and the level populations follow the
// binomial pattern implied by the dep formula.
func TestHyperspaceCutCounts(t *testing.T) {
	for k := 1; k <= 4; k++ {
		sizes := make([]int, k)
		for i := range sizes {
			sizes[i] = 64
		}
		z := Box(0, 4, sizes)
		cuts := make([]Cut, k)
		for i := range cuts {
			cuts[i] = Cut{Dim: i, Slope: 1}
		}
		levels, total := levelsOf(t, z, cuts)
		want := 1
		for i := 0; i < k; i++ {
			want *= 3
		}
		if total != want {
			t.Fatalf("k=%d: %d subzoids, want %d", k, total, want)
		}
		if len(levels) != k+1 {
			t.Fatalf("k=%d: %d levels, want %d", k, len(levels), k+1)
		}
		for l, zs := range levels {
			if len(zs) == 0 {
				t.Fatalf("k=%d: level %d empty", k, l)
			}
			// Level l holds C(k,l) gray-choices x 2^(k-l) black-choices.
			binom := 1
			for i := 0; i < l; i++ {
				binom = binom * (k - i) / (i + 1)
			}
			wantL := binom << (k - l)
			if len(zs) != wantL {
				t.Fatalf("k=%d level %d: %d zoids, want %d", k, l, len(zs), wantL)
			}
		}
	}
}

func TestHyperspaceCutVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		d := 1 + rng.Intn(3)
		z := randomZoid(rng, d, 1)
		var cuts []Cut
		for i := 0; i < d; i++ {
			if z.CanSpaceCut(i, 1, 0) {
				cuts = append(cuts, Cut{Dim: i, Slope: 1})
			}
		}
		if len(cuts) == 0 {
			continue
		}
		levels, _ := levelsOf(t, z, cuts)
		var vol int64
		for _, zs := range levels {
			for _, s := range zs {
				vol += s.Volume()
			}
		}
		if vol != z.Volume() {
			t.Fatalf("hyperspace cut volume %d != parent %d for %v", vol, z.Volume(), z)
		}
	}
}

func TestHyperspaceCutDisjointCover(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tested := 0
	for iter := 0; iter < 500 && tested < 40; iter++ {
		z := randomZoid(rng, 2, 1)
		if z.Volume() > 30000 {
			continue
		}
		var cuts []Cut
		for i := 0; i < 2; i++ {
			if z.CanSpaceCut(i, 1, 0) {
				cuts = append(cuts, Cut{Dim: i, Slope: 1})
			}
		}
		if len(cuts) != 2 {
			continue
		}
		tested++
		levels, _ := levelsOf(t, z, cuts)
		var all []Zoid
		for _, zs := range levels {
			all = append(all, zs...)
		}
		checkDisjointCover(t, z, all)
	}
	if tested < 10 {
		t.Fatalf("only exercised %d hyperspace cuts", tested)
	}
}

// TestDependencyLevelsRespectDataFlow is the heart of Lemma 1: for every
// pair of points p (in subzoid A) and q (in subzoid B) where p at time t
// depends on q at time t-1 (within slope distance), either A == B or
// level(B) < level(A). In particular, same-level subzoids are independent.
func TestDependencyLevelsRespectDataFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	slope := 1
	tested := 0
	for iter := 0; iter < 600 && tested < 30; iter++ {
		z := randomZoid(rng, 2, slope)
		if z.Volume() > 15000 || z.Height() < 2 {
			continue
		}
		var cuts []Cut
		for i := 0; i < 2; i++ {
			if z.CanSpaceCut(i, slope, 0) {
				cuts = append(cuts, Cut{Dim: i, Slope: slope})
			}
		}
		if len(cuts) == 0 {
			continue
		}
		tested++
		levels, _ := levelsOf(t, z, cuts)
		type owner struct{ level, id int }
		find := func(tt, x, y int) (owner, bool) {
			for l, zs := range levels {
				for id, c := range zs {
					if c.Contains(tt, []int{x, y}) {
						return owner{l, l*1000 + id}, true
					}
				}
			}
			return owner{}, false
		}
		for tt := z.T0 + 1; tt < z.T1; tt++ {
			dt := tt - z.T0
			for x := z.Lo[0] + z.DLo[0]*dt; x < z.Hi[0]+z.DHi[0]*dt; x++ {
				for y := z.Lo[1] + z.DLo[1]*dt; y < z.Hi[1]+z.DHi[1]*dt; y++ {
					p, ok := find(tt, x, y)
					if !ok {
						t.Fatalf("point (%d,%d,%d) not covered", tt, x, y)
					}
					for dx := -slope; dx <= slope; dx++ {
						for dy := -slope; dy <= slope; dy++ {
							q, ok := find(tt-1, x+dx, y+dy)
							if !ok {
								continue // dependency satisfied outside this cut
							}
							if q.id != p.id && q.level >= p.level {
								t.Fatalf("dependency violation: (%d,%d,%d)@L%d reads (%d,%d,%d)@L%d in %v",
									tt, x, y, p.level, tt-1, x+dx, y+dy, q.level, z)
							}
						}
					}
				}
			}
		}
	}
	if tested < 10 {
		t.Fatalf("only exercised %d zoids", tested)
	}
}

// TestCircleCutDependencies checks the unified-periodic cut: grays depend
// on blacks but blacks never depend on grays or each other, including
// across the wrapped seam.
func TestCircleCutDependencies(t *testing.T) {
	n, h, slope := 24, 6, 1
	z := Box(0, h, []int{n})
	sub, contrib := z.CircleCut(0, slope, n)
	find := func(tt, x int) (int, int) { // returns (piece index, contribution)
		for i, c := range sub {
			if c.Contains(tt, []int{x}) || c.Contains(tt, []int{x + n}) {
				return i, contrib[i]
			}
		}
		t.Fatalf("point (%d,%d) unowned", tt, x)
		return -1, -1
	}
	for tt := 1; tt < h; tt++ {
		for x := 0; x < n; x++ {
			pi, pc := find(tt, x)
			for dx := -slope; dx <= slope; dx++ {
				qx := ((x+dx)%n + n) % n
				qi, qc := find(tt-1, qx)
				if qi != pi && qc >= pc {
					t.Fatalf("circle-cut dependency violation: (%d,%d) piece %d (c=%d) reads (%d,%d) piece %d (c=%d)",
						tt, x, pi, pc, tt-1, qx, qi, qc)
				}
			}
		}
	}
}

// TestHyperspaceWithCircleCut combines a circle cut with a trisection in a
// single hyperspace cut and validates volume and data-flow ordering.
func TestHyperspaceWithCircleCut(t *testing.T) {
	nx, ny, h := 24, 40, 5
	z := Box(0, h, []int{nx, ny})
	// Pretend dim 0 is a full periodic circle and dim 1 was already
	// trisected down to a plain trapezoid: cut both.
	cuts := []Cut{
		{Dim: 0, Slope: 1, Kind: CutCircle, Size: nx},
		{Dim: 1, Slope: 1, Kind: CutTrisect},
	}
	levels, total := levelsOf(t, z, cuts)
	if total != 4*3 {
		t.Fatalf("expected 12 subzoids, got %d", total)
	}
	if len(levels) != 3 {
		t.Fatalf("expected 3 levels, got %d", len(levels))
	}
	var vol int64
	for _, zs := range levels {
		for _, s := range zs {
			vol += s.Volume()
		}
	}
	if vol != z.Volume() {
		t.Fatalf("volume %d != %d", vol, z.Volume())
	}
	// Data-flow check with dim-0 wraparound and dim-1 plain.
	type owner struct{ level, id int }
	find := func(tt, x, y int) (owner, bool) {
		for l, zs := range levels {
			for id, c := range zs {
				for _, xx := range [...]int{x, x + nx} {
					if c.Contains(tt, []int{xx, y}) {
						return owner{l, l*1000 + id}, true
					}
				}
			}
		}
		return owner{}, false
	}
	for tt := 1; tt < h; tt++ {
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				p, ok := find(tt, x, y)
				if !ok {
					t.Fatalf("point (%d,%d,%d) unowned", tt, x, y)
				}
				for dx := -1; dx <= 1; dx++ {
					for dy := -1; dy <= 1; dy++ {
						qx := ((x+dx)%nx + nx) % nx
						qy := y + dy
						if qy < 0 || qy >= ny {
							continue // nonperiodic edge in dim 1
						}
						q, ok := find(tt-1, qx, qy)
						if !ok {
							continue
						}
						if q.id != p.id && q.level >= p.level {
							t.Fatalf("violation at (%d,%d,%d)@L%d <- (%d,%d,%d)@L%d",
								tt, x, y, p.level, tt-1, qx, qy, q.level)
						}
					}
				}
			}
		}
	}
}

// Property: SpaceCut never changes height or the untouched dimensions.
func TestSpaceCutPreservesOtherDims(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		z := randomZoid(rng, 3, 1)
		i := rng.Intn(3)
		if !z.CanSpaceCut(i, 1, 0) {
			return true
		}
		sub, _ := z.SpaceCut(i, 1)
		for _, s := range sub {
			if s.T0 != z.T0 || s.T1 != z.T1 {
				return false
			}
			for d := 0; d < 3; d++ {
				if d == i {
					continue
				}
				if s.Lo[d] != z.Lo[d] || s.Hi[d] != z.Hi[d] ||
					s.DLo[d] != z.DLo[d] || s.DHi[d] != z.DHi[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHyperCutMatchesPieceProduct holds the enumerator against the
// definition it replaces: materialise every combination of per-dimension
// pieces from SpaceCut and CircleCut, bucket by summed contribution in
// ascending piece-code order (first cut dimension fastest), and require the
// enumeration to deliver exactly those zoids, level by level, in that order.
func TestHyperCutMatchesPieceProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	circles := 0
	defer func() {
		if circles == 0 && !t.Failed() {
			t.Error("no circle cut was exercised")
		}
	}()
	for iter, tested := 0, 0; tested < 200; iter++ {
		if iter > 5000 {
			t.Fatalf("only exercised %d cuts", tested)
		}
		d := 1 + rng.Intn(4)
		z := randomZoid(rng, d, 1)
		var cuts []Cut
		var pieces [][]Zoid
		var contribs [][]int
		for i := 0; i < d; i++ {
			if n := z.Hi[i]; z.IsFullCircle(i, n) && z.CanCircleCut(i, 1, n, 0) && rng.Intn(2) == 0 {
				sub, con := z.CircleCut(i, 1, n)
				cuts = append(cuts, Cut{Dim: i, Slope: 1, Kind: CutCircle, Size: n})
				circles++
				pieces, contribs = append(pieces, sub[:]), append(contribs, con[:])
			} else if z.CanSpaceCut(i, 1, 0) {
				sub, upright := z.SpaceCut(i, 1)
				con := []int{1, 0, 1}
				if upright {
					con = []int{0, 1, 0}
				}
				cuts = append(cuts, Cut{Dim: i, Slope: 1})
				pieces, contribs = append(pieces, sub[:]), append(contribs, con)
			}
		}
		if len(cuts) == 0 {
			continue
		}
		tested++
		want := make([][]Zoid, len(cuts)+1)
		digits := make([]int, len(cuts))
		for done := false; !done; {
			sz, dep := z, 0
			for j, c := range cuts {
				p := pieces[j][digits[j]]
				sz.Lo[c.Dim], sz.Hi[c.Dim] = p.Lo[c.Dim], p.Hi[c.Dim]
				sz.DLo[c.Dim], sz.DHi[c.Dim] = p.DLo[c.Dim], p.DHi[c.Dim]
				dep += contribs[j][digits[j]]
			}
			want[dep] = append(want[dep], sz)
			done = true
			for j := range digits {
				if digits[j]++; digits[j] < len(pieces[j]) {
					done = false
					break
				}
				digits[j] = 0
			}
		}
		got, _ := levelsOf(t, z, cuts)
		for l := range want {
			if len(got[l]) != len(want[l]) {
				t.Fatalf("%v cuts %+v level %d: %d subzoids, want %d", z, cuts, l, len(got[l]), len(want[l]))
			}
			for i := range want[l] {
				if got[l][i] != want[l][i] {
					t.Fatalf("%v cuts %+v level %d #%d:\n got  %v\n want %v", z, cuts, l, i, got[l][i], want[l][i])
				}
			}
		}
	}
}
