package main

import (
	"fmt"

	"pochoir"
	"pochoir/internal/benchdef"
	"pochoir/internal/cachesim"
	"pochoir/internal/cilkview"
	"pochoir/internal/core"
	"pochoir/internal/shape"
	"pochoir/internal/stencils"
)

// runFig9 regenerates Fig. 9: the parallelism (T1/T-infinity, measured by
// the work/span analyzer standing in for Cilkview) of hyperspace cuts
// (TRAP) vs serial space cuts (STRAP) on uncoarsened recursions.
// (a) 2D nonperiodic heat, space-time 1000*N^2; (b) 3D nonperiodic wave,
// space-time 1000*N^3. A cross-check then sets one instrumented Heat 2p
// run's achieved parallelism beside the parallelism predicted for the
// recursion it made.
func runFig9() {
	header("Fig. 9(a): parallelism, 2D heat (space-time 1000*N^2, uncoarsened)")
	ns := benchdef.Fig9Sweep2D
	if *quick {
		ns = benchdef.Fig9Sweep2DQuick
	}
	fmt.Printf("%8s %18s %18s %8s\n", "N", "Hyperspace (TRAP)", "Space cut (STRAP)", "ratio")
	for _, n := range ns {
		pt := analyze(2, n, benchdef.Fig9Steps, core.TRAP)
		ps := analyze(2, n, benchdef.Fig9Steps, core.STRAP)
		fmt.Printf("%8d %18.1f %18.1f %7.2fx\n", n, pt, ps, pt/ps)
	}
	fmt.Println("(paper at N=6400: TRAP 1887 vs STRAP 52)")
	footer()

	header("Fig. 9(b): parallelism, 3D wave (space-time 1000*N^3, uncoarsened)")
	ns = benchdef.Fig9Sweep3D
	if *quick {
		ns = benchdef.Fig9Sweep3DQuick
	}
	fmt.Printf("%8s %18s %18s %8s\n", "N", "Hyperspace (TRAP)", "Space cut (STRAP)", "ratio")
	for _, n := range ns {
		pt := analyze(3, n, benchdef.Fig9Steps, core.TRAP)
		ps := analyze(3, n, benchdef.Fig9Steps, core.STRAP)
		fmt.Printf("%8d %18.1f %18.1f %7.2fx\n", n, pt, ps, pt/ps)
	}
	fmt.Println("(paper at N=800: TRAP 337 vs STRAP 23)")
	footer()

	sizes, steps := []int{512, 512}, 64
	if *quick {
		sizes, steps = []int{256, 256}, 16
	}
	header(fmt.Sprintf("Fig. 9 cross-check: achieved vs predicted parallelism, Heat 2p (%dx%d, %d steps)", sizes[0], sizes[1], steps))
	rec := pochoir.NewRecorder()
	timeJob(stencils.NewHeat2DFactory(true).New(sizes, steps).Pochoir(pochoir.Options{Telemetry: rec}))
	st := rec.Snapshot()
	// The replay is the run's own recursion: TRAP under the §4 heuristic,
	// with dimension 1 never cut because the compiled clones run whole rows.
	w := cilkview.Config(2, sizes[0], 1, true, core.TRAP)
	tc, sc := pochoir.DefaultCoarsening(2)
	w.TimeCutoff, w.SpaceCutoff[0], w.SpaceCutoff[1] = tc, sc[0], 1<<30
	m := cilkview.New(w, cilkview.DefaultCosts()).Analyze(1, 1+steps)
	if m.Bases != st.Bases {
		panic(fmt.Sprintf("fig9: cilkview replays %d base cases, the run made %d", m.Bases, st.Bases))
	}
	fmt.Printf("run:      %d base cases, %d spawns; achieved parallelism %.2f (busy %.3fs / wall %.3fs, %d core(s))\n",
		st.Bases, st.Spawns, st.AchievedParallelism(), st.BusyTotal().Seconds(), st.Wall.Seconds(), goMaxProcs())
	fmt.Printf("cilkview: %d base cases, %d spawns; predicted parallelism T1/Tinf %.1f\n",
		m.Bases, m.Spawns, m.Parallelism())
	footer()
}

func analyze(dims, n, steps int, alg core.Algorithm) float64 {
	w := cilkview.Config(dims, n, 1, false, alg)
	a := cilkview.New(w, cilkview.DefaultCosts())
	return a.Analyze(1, 1+steps).Parallelism()
}

// runFig10 regenerates Fig. 10: cache-miss ratios of TRAP, STRAP, and
// LOOPS under the ideal-cache model. The paper measured hardware counters
// with perf on full-size grids; the simulation uses a scaled cache
// (M=4096 points, B=8 points — a 32 KB L1 with 64-byte lines, in doubles)
// and scaled space-time so the trace stays tractable. The qualitative
// content is the same: LOOPS misses at a high flat rate once N^2 >> M,
// while the two trapezoidal orders coincide at a far lower rate.
func runFig10() {
	const mPoints, bPoints = benchdef.Fig10CacheM, benchdef.Fig10CacheB
	heat := shape.MustNew(2, [][]int{
		{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
	})
	header("Fig. 10(a): cache-miss ratio, 2D heat (ideal cache M=4096, B=8)")
	ns := []int{64, 128, 256, 512, 1024}
	steps := 64
	if *quick {
		ns = []int{64, 128, 256}
		steps = 24
	}
	fmt.Printf("%8s %12s %12s %12s\n", "N", "Hyperspace", "Space cut", "Loops")
	for _, n := range ns {
		rTrap := trace(heat, []int{n, n}, steps, mPoints, bPoints, core.TRAP)
		rStrap := trace(heat, []int{n, n}, steps, mPoints, bPoints, core.STRAP)
		tr := cachesim.NewTracer(cachesim.New(mPoints, bPoints), heat, []int{n, n})
		rLoops := cachesim.TraceLoops(tr, steps)
		fmt.Printf("%8d %12.4f %12.4f %12.4f\n", n, rTrap, rStrap, rLoops)
	}
	footer()

	// The 3D experiment needs a larger model cache: with only M^(1/3)=16
	// points per tile side the cache-oblivious advantage drowns in line
	// fragmentation. M=32768 points (a 256 KB cache of doubles) gives
	// tile side 32, still far below the grids swept.
	const mPoints3 = benchdef.Fig10CacheM3D
	header("Fig. 10(b): cache-miss ratio, 3D wave (ideal cache M=32768, B=8)")
	wave := shape.MustNew(3, [][]int{
		{1, 0, 0, 0}, {0, 0, 0, 0}, {-1, 0, 0, 0},
		{0, 1, 0, 0}, {0, -1, 0, 0}, {0, 0, 1, 0}, {0, 0, -1, 0}, {0, 0, 0, 1}, {0, 0, 0, -1},
	})
	ns3 := []int{32, 64, 96, 128}
	steps3 := 24
	if *quick {
		ns3 = []int{32, 64}
		steps3 = 12
	}
	fmt.Printf("%8s %12s %12s %12s\n", "N", "Hyperspace", "Space cut", "Loops")
	for _, n := range ns3 {
		rTrap := trace(wave, []int{n, n, n}, steps3, mPoints3, bPoints, core.TRAP)
		rStrap := trace(wave, []int{n, n, n}, steps3, mPoints3, bPoints, core.STRAP)
		tr := cachesim.NewTracer(cachesim.New(mPoints3, bPoints), wave, []int{n, n, n})
		rLoops := cachesim.TraceLoops(tr, steps3)
		fmt.Printf("%8d %12.4f %12.4f %12.4f\n", n, rTrap, rStrap, rLoops)
	}
	fmt.Println("(paper: loops plateau near 0.86 (2D) / 0.99 (3D) on hardware LLC counters;")
	fmt.Println(" the two cache-oblivious orders coincide well below the loops curve)")
	footer()
}

func trace(sh *shape.Shape, sizes []int, steps, m, b int, alg core.Algorithm) float64 {
	w := &core.Walker{NDims: len(sizes), Algorithm: alg, TimeCutoff: 1}
	for i, n := range sizes {
		w.Sizes[i] = n
		w.Slopes[i] = sh.Slope(i)
		w.Reach[i] = sh.Reach(i)
	}
	tr := cachesim.NewTracer(cachesim.New(m, b), sh, sizes)
	r, err := cachesim.TraceWalker(w, tr, steps)
	if err != nil {
		panic(err)
	}
	return r
}
