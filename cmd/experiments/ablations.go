package main

import (
	"fmt"
	"slices"
	"time"

	"pochoir"
	"pochoir/internal/benchdef"
	"pochoir/internal/stencils"
	"pochoir/internal/tune"
)

// ablationInstance is a Heat 2p instance with its §4 and Fig. 13
// ablations.
type ablationInstance interface {
	stencils.Instance
	PochoirMacroShadow(pochoir.Options) stencils.Job
	PochoirNoInterior(pochoir.Options) stencils.Job
}

// heat2p builds a Heat 2p instance, and the serial loops' result every
// ablation job is held to.
func heat2p(sizes []int, steps int) (func() ablationInstance, []float64) {
	f := stencils.NewHeat2DFactory(true)
	mk := func() ablationInstance { return f.New(sizes, steps).(ablationInstance) }
	return mk, mk().LoopsSerial().Run()
}

// cutRows is the §4 geometry the ablations compare clones in: base cases
// of 100x100 points, rows cut. Under the compiled clones' default whole
// rows every zoid touches the boundary, and no interior clone runs.
func cutRows() pochoir.Options {
	_, space := pochoir.DefaultCoarsening(2)
	return pochoir.Options{SpaceCutoff: space}
}

// timeExact is timeJob, and panics unless the job's result is ref bit for
// bit.
func timeExact(name string, j stencils.Job, ref []float64) time.Duration {
	d := timeJob(j)
	if !slices.Equal(j.Result(), ref) {
		panic(fmt.Sprintf("%s: result differs from the serial loops", name))
	}
	return d
}

// runFig13 regenerates Fig. 13: throughput (grid points per second) of two
// interior clones on the 2D periodic heat equation across grid sizes, each
// beside the compiled boundary clone, in the cut-rows geometry. The paper
// compares the compiler's split-pointer and split-macro-shadow styles and
// shows split-pointer ahead across the sweep (1.2e8 .. 5.3e9 points/s on
// their hardware); here the compiler's interior clone is the row program,
// split-pointer's successor.
func runFig13() {
	header("Fig. 13: interior-clone styles, 2D periodic heat (points/s)")
	ns := []int{100, 200, 400, 800, 1600}
	steps := 200
	if *quick {
		ns = []int{100, 200, 400}
		steps = 50
	}
	fmt.Printf("%8s %16s %20s %8s\n", "N", "row program", "split-macro-shadow", "ratio")
	for _, n := range ns {
		mk, ref := heat2p([]int{n, n}, steps)
		dP := timeExact("row program", mk().Pochoir(cutRows()), ref)
		dM := timeExact("split-macro-shadow", mk().PochoirMacroShadow(cutRows()), ref)
		updates := float64(n*n) * float64(steps)
		fmt.Printf("%8d %16.3g %20.3g %7.2fx\n",
			n, updates/dP.Seconds(), updates/dM.Seconds(), dM.Seconds()/dP.Seconds())
	}
	footer()
}

// runMod regenerates the §4 modular-indexing ablation: the same Pochoir
// computation with the interior clone disabled, so the compiled boundary
// clone runs every zoid, both in the cut-rows geometry. The paper measured
// a 2.3x degradation at 5000^2 x 5000. The default whole-rows run, where
// the boundary clone runs every zoid anyway, is printed beside them.
func runMod() {
	header("§4 ablation: code cloning vs the boundary clone everywhere")
	sizes, steps := []int{1000, 1000}, 100
	if *quick {
		sizes, steps = []int{300, 300}, 40
	}
	mk, ref := heat2p(sizes, steps)
	cloned := timeExact("code cloning", mk().Pochoir(cutRows()), ref)
	modAll := timeExact("boundary clone everywhere", mk().PochoirNoInterior(cutRows()), ref)
	whole := timeExact("whole rows", mk().Pochoir(pochoir.Options{}), ref)
	fmt.Printf("%-36s %10s\n", "with interior clone (code cloning):", seconds(cloned))
	fmt.Printf("%-36s %10s\n", "boundary clone on every zoid:", seconds(modAll))
	fmt.Printf("%-36s %10s\n", "default, whole rows:", seconds(whole))
	fmt.Printf("%-36s %9.1fx   (paper: 2.3x)\n", "degradation:", modAll.Seconds()/cloned.Seconds())
	footer()
}

// runCoarsen regenerates the §4 coarsening ablation: recursion down to
// single grid points vs the paper's heuristic cutoffs vs an intermediate
// setting. The paper reports a 36x gap between pointwise recursion and
// proper coarsening on the 2D heat equation.
func runCoarsen() {
	header("§4 ablation: base-case coarsening, 2D periodic heat")
	f := stencils.NewHeat2DFactory(true)
	sizes, steps := []int{500, 500}, 50
	if *quick {
		sizes, steps = []int{200, 200}, 20
	}
	var base time.Duration
	for i, c := range benchdef.CoarseningAblation {
		opts := pochoir.Options{TimeCutoff: c.TimeCutoff, SpaceCutoff: c.SpaceCutoff, Grain: c.Grain}
		d := timeJob(f.New(sizes, steps).Pochoir(opts))
		if i == 0 {
			base = d
			fmt.Printf("%-34s %10s\n", c.Name, seconds(d))
			continue
		}
		fmt.Printf("%-34s %10s   %6.1fx faster than pointwise\n",
			c.Name, seconds(d), base.Seconds()/d.Seconds())
	}
	fmt.Println("(paper: proper coarsening is 36x faster than pointwise recursion)")
	footer()
}

// runTune runs the coordinate-descent autotuner (the ISAT substitute) on
// the 2D heat equation and reports the configuration it selects.
func runTune() {
	header("§4 autotuning: coarsening search (ISAT substitute)")
	f := stencils.NewHeat2DFactory(true)
	sizes, steps := []int{500, 500}, 40
	if *quick {
		sizes, steps = []int{200, 200}, 16
	}
	eval := func(c tune.Config) time.Duration {
		opts := pochoir.Options{TimeCutoff: c.TimeCutoff, SpaceCutoff: c.SpaceCutoff}
		return timeJob(f.New(sizes, steps).Pochoir(opts))
	}
	res := tune.Search(2, tune.Config{TimeCutoff: 5, SpaceCutoff: []int{100, 100}}, eval, tune.Options{
		TimeCandidates:  []int{1, 2, 5, 10},
		SpaceCandidates: []int{16, 50, 100, 200},
		MaxPasses:       2,
	})
	fmt.Printf("best: time cutoff %d, space cutoffs %v (%s; %d configurations timed)\n",
		res.Best.TimeCutoff, res.Best.SpaceCutoff, seconds(res.BestCost), res.Evals)
	footer()
}
