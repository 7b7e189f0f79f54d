package pochoir_test

// Telemetry invariant tests against the public API: whatever decomposition
// the engine picks (TRAP's hyperspace cuts, STRAP's one-dimension-at-a-time
// trisections, serial or parallel execution), the base cases it counts
// must partition space-time exactly — total point updates == steps x grid
// volume — and so must the base spans the run's trace records.

import (
	"strconv"
	"sync"
	"testing"

	"pochoir"
	"pochoir/internal/stencils"
)

// telemetryConfigs covers TRAP vs STRAP crossed with serial vs parallel.
var telemetryConfigs = []struct {
	name string
	opts pochoir.Options
}{
	{"TRAP", pochoir.Options{}},
	{"TRAP/serial", pochoir.Options{Serial: true}},
	{"STRAP", pochoir.Options{Algorithm: 1}},
	{"STRAP/serial", pochoir.Options{Algorithm: 1, Serial: true}},
}

// TestTelemetryCoversSpaceTime: for every engine configuration, the sum of
// base-case zoid volumes equals steps x grid volume on both a floating
// point kernel (Heat 2p) and an integer one (Life 2p).
func TestTelemetryCoversSpaceTime(t *testing.T) {
	workloads := []struct {
		factory stencils.Factory
		sizes   []int
		steps   int
	}{
		{stencils.NewHeat2DFactory(true), []int{96, 96}, 24},
		{stencils.NewLifeFactory(), []int{64, 64}, 16},
	}
	for _, w := range workloads {
		for _, cfg := range telemetryConfigs {
			t.Run(w.factory.Name+"/"+cfg.name, func(t *testing.T) {
				rec, tr := pochoir.NewRecorder(), newTrace()
				opts := cfg.opts
				opts.Telemetry, opts.Trace = rec, tr
				// Small cutoffs force deep recursion so every cut kind
				// actually fires on this grid size.
				opts.TimeCutoff, opts.SpaceCutoff, opts.Grain = 2, []int{16, 16}, 1
				w.factory.New(w.sizes, w.steps).Pochoir(opts).Run()

				st := rec.Snapshot()
				want := int64(w.sizes[0]) * int64(w.sizes[1]) * int64(w.steps)
				if st.BasePoints != want {
					t.Errorf("base-case point updates = %d, want steps x volume = %d", st.BasePoints, want)
				}
				if st.Bases == 0 || st.Zoids() < st.Bases {
					t.Errorf("implausible decomposition: %d bases of %d zoids", st.Bases, st.Zoids())
				}
				if cfg.opts.Serial && st.Spawns != 0 {
					t.Errorf("serial run spawned %d goroutines", st.Spawns)
				}
				// The trace partitions space-time too, unless its cap cut
				// the walk short: then it counts what it did not store.
				snap := tr.Snapshot()
				sums := walkSums(t, snap)
				if len(sums) != 1 {
					t.Fatalf("%d walk spans, want 1", len(sums))
				}
				if dropped := sums[0].walk.Attr("dropped_spans"); dropped != "0" {
					if n, _ := strconv.ParseInt(dropped, 10, 64); int64(len(snap.Spans))-2+n != st.Zoids() {
						t.Errorf("%d spans stored + %d dropped, want %d zoids", len(snap.Spans)-2, n, st.Zoids())
					}
				} else if sums[0].points != want || sums[0].bases != st.Bases {
					t.Errorf("walk spans %+v, want %d bases over %d points", sums[0], st.Bases, want)
				}
			})
		}
	}
}

// TestLastRunStatsDelta: on a resumed stencil, LastRunStats must describe
// only the most recent Run even though the recorder accumulates across
// runs.
func TestLastRunStatsDelta(t *testing.T) {
	const n = 48
	rec := pochoir.NewRecorder()
	sh := pochoir.MustShape(1, [][]int{{1, 0}, {0, 0}, {0, 1}, {0, -1}})
	st := pochoir.NewWithOptions[float64](sh, pochoir.Options{Telemetry: rec})
	u := pochoir.MustArray[float64](sh.Depth(), n)
	u.RegisterBoundary(pochoir.ZeroBoundary[float64]())
	st.MustRegisterArray(u)
	kern := pochoir.K1(func(tt, i int) {
		u.Set(tt+1, 0.5*(u.Get(tt, i-1)+u.Get(tt, i+1)), i)
	})

	if err := st.Run(10, kern); err != nil {
		t.Fatal(err)
	}
	first := st.LastRunStats()
	if first == nil || first.BasePoints != int64(n)*10 {
		t.Fatalf("first run stats: %+v, want %d point updates", first, n*10)
	}
	if err := st.Run(6, kern); err != nil {
		t.Fatal(err)
	}
	second := st.LastRunStats()
	if second.BasePoints != int64(n)*6 {
		t.Fatalf("second run stats cover %d point updates, want only the resumed run's %d",
			second.BasePoints, n*6)
	}
	if total := rec.Snapshot().BasePoints; total != int64(n)*16 {
		t.Fatalf("recorder total %d, want cumulative %d", total, n*16)
	}
}

// TestLastRunStatsNilWithoutRecorder: no telemetry configured, no stats.
func TestLastRunStatsNilWithoutRecorder(t *testing.T) {
	sh := pochoir.MustShape(1, [][]int{{1, 0}, {0, 0}})
	st := pochoir.New[float64](sh)
	u := pochoir.MustArray[float64](sh.Depth(), 8)
	u.RegisterBoundary(pochoir.ZeroBoundary[float64]())
	st.MustRegisterArray(u)
	if err := st.Run(2, pochoir.K1(func(tt, i int) { u.Set(tt+1, u.Get(tt, i), i) })); err != nil {
		t.Fatal(err)
	}
	if st.LastRunStats() != nil {
		t.Fatal("LastRunStats must be nil when Options.Telemetry is unset")
	}
}

// TestRecorderSharedAcrossConcurrentStencils: two stencils share one
// recorder and run at once. Each walk counts into its own shards, so every
// LastRunStats covers only its own run, the recorder's total is the sum of
// both stencils' work, and snapshots taken mid-run are race-free.
func TestRecorderSharedAcrossConcurrentStencils(t *testing.T) {
	const X, Y, runs, steps = 96, 96, 4, 4
	rec := pochoir.NewRecorder()
	stop := make(chan struct{})
	snapped := make(chan int64)
	go func() {
		var last int64
		for {
			select {
			case <-stop:
				snapped <- last
				return
			default:
				last = max(last, rec.Snapshot().BasePoints)
			}
		}
	}()
	var wg sync.WaitGroup
	points := make([]int64, 2)
	for i := range points {
		st, _, kern := heatStencil(t, pochoir.Options{Telemetry: rec}, X, Y, int64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range runs {
				if err := st.Run(steps, kern); err != nil {
					t.Error(err)
					return
				}
				if got := st.LastRunStats().BasePoints; got != steps*X*Y {
					t.Errorf("stencil %d: LastRunStats covers %d points, want its own run's %d", i, got, steps*X*Y)
				}
				points[i] += st.LastRunStats().BasePoints
			}
		}()
	}
	wg.Wait()
	close(stop)
	if mid := <-snapped; mid > 2*runs*steps*X*Y {
		t.Errorf("a snapshot read %d points, more than both stencils made", mid)
	}
	for i, p := range points {
		if p != runs*steps*X*Y {
			t.Errorf("stencil %d: LastRunStats sum to %d points, want steps × volume = %d", i, p, runs*steps*X*Y)
		}
	}
	if total := rec.Snapshot().BasePoints; total != points[0]+points[1] {
		t.Errorf("recorder total %d, want the two stencils' %d + %d", total, points[0], points[1])
	}
}
