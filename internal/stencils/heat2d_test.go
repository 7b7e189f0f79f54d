package stencils

import (
	"fmt"
	"testing"

	"pochoir"
	"pochoir/internal/core"
)

func TestHeat2DPeriodicAllPaths(t *testing.T) {
	f := NewHeat2DFactory(true)
	checkAllPaths(t, func() Instance { return f.New([]int{59, 47}, 33) }, true)
}

func TestHeat2DNonperiodicAllPaths(t *testing.T) {
	f := NewHeat2DFactory(false)
	checkAllPaths(t, func() Instance { return f.New([]int{48, 52}, 30) }, true)
}

// heat2Ablations is what the §4 and Fig. 13 ablations need of an instance.
type heat2Ablations interface {
	Instance
	PochoirNoInterior(pochoir.Options) Job
	PochoirMacroShadow(pochoir.Options) Job
}

// checkAblation holds one ablation job of both variants, under TRAP and
// STRAP, bit for bit against the serial loops. Its cutoffs cut rows, so
// that interior zoids exist.
func checkAblation(t *testing.T, name string, job func(heat2Ablations, pochoir.Options) Job) {
	t.Helper()
	for _, periodic := range []bool{false, true} {
		f := NewHeat2DFactory(periodic)
		ref := f.New([]int{40, 40}, 20).LoopsSerial().Run()
		for _, alg := range []core.Algorithm{core.TRAP, core.STRAP} {
			opts := pochoir.Options{Algorithm: alg, TimeCutoff: 2, SpaceCutoff: []int{8, 8}, Grain: 1}
			got := job(f.New([]int{40, 40}, 20).(heat2Ablations), opts).Run()
			agree(t, fmt.Sprintf("%s/%s/%v", f.Name, name, alg), ref, got, true)
		}
	}
}

func TestHeat2DNoInteriorAblation(t *testing.T) {
	checkAblation(t, "NoInterior", heat2Ablations.PochoirNoInterior)
	// Cut rows make interior zoids, and the ablation runs none of them on
	// the interior clone.
	for _, c := range []struct {
		job      func(heat2Ablations, pochoir.Options) Job
		interior bool
	}{{heat2Ablations.Pochoir, true}, {heat2Ablations.PochoirNoInterior, false}} {
		rec := pochoir.NewRecorder()
		c.job(NewHeat2DFactory(true).New([]int{40, 40}, 20).(heat2Ablations),
			pochoir.Options{SpaceCutoff: []int{8, 8}, Telemetry: rec}).Run()
		if st := rec.Snapshot(); st.Bases == 0 || (st.InteriorBases > 0) != c.interior {
			t.Fatalf("the interior clone ran %d of %d base cases; want it to run: %v", st.InteriorBases, st.Bases, c.interior)
		}
	}
}

func TestHeat2DMacroShadow(t *testing.T) {
	checkAblation(t, "macro-shadow", heat2Ablations.PochoirMacroShadow)
}

// TestHeat2DOddSizes runs both variants on every engine, serial and
// parallel, over extents that defeat power-of-two cuts and over degenerate
// ones. Under whole rows every row of these grids wraps, so the boundary
// clone computes nearly all of them.
func TestHeat2DOddSizes(t *testing.T) {
	for _, periodic := range []bool{false, true} {
		f := NewHeat2DFactory(periodic)
		for _, sz := range [][]int{{17, 23}, {1, 7}, {7, 1}, {2, 2}, {3, 130}, {130, 3}} {
			ref := f.New(sz, 11).LoopsSerial().Run()
			for _, alg := range []core.Algorithm{core.TRAP, core.STRAP, core.LOOPS} {
				for _, serial := range []bool{true, false} {
					got := f.New(sz, 11).Pochoir(pochoir.Options{Algorithm: alg, Serial: serial, Grain: 1}).Run()
					agree(t, fmt.Sprintf("%s/%v/%v/serial=%v", f.Name, sz, alg, serial), ref, got, true)
				}
			}
		}
	}
}
