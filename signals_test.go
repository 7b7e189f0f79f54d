package pochoir_test

// Cross-signal agreement: one run with every walker sink armed, and the sinks
// must tell the same story. Telemetry, the live metrics, the progress
// estimator, the flight record and the trace each count the run's base-case
// points on their own; all five must equal steps × grid volume, which the
// decomposition partitions exactly. The registry's walker counters are
// folded from the walk's telemetry Stats, so telemetry's zoid, per-clone
// base, spawn and inline counts equal them by construction; the checks that
// compare independent sources are the per-clone counts against the flight
// record's, the base count against the trace's base spans, the registry's
// base-volume histogram against the flight record's volumes, and its
// fork-depth count against the spawns.

import (
	"fmt"
	"sync"
	"testing"

	"pochoir"
	"pochoir/internal/core"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
)

// heatND builds a periodic d-dimensional heat stencil (home, centre and ±1 in
// every dimension) over sizes, returning it with its point kernel.
func heatND(t *testing.T, opts pochoir.Options, sizes []int) (*pochoir.Stencil[float64], pochoir.Kernel) {
	t.Helper()
	d := len(sizes)
	cells := [][]int{make([]int, d+1), make([]int, d+1)}
	cells[0][0] = 1
	for i := 1; i <= d; i++ {
		for _, off := range []int{1, -1} {
			c := make([]int, d+1)
			c[i] = off
			cells = append(cells, c)
		}
	}
	sh := pochoir.MustShape(d, cells)
	st := pochoir.NewWithOptions[float64](sh, opts)
	u := pochoir.MustArray[float64](sh.Depth(), sizes...)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(u)
	kern := pochoir.Kernel(func(tt int, x []int) {
		var n [pochoir.MaxDims]int
		copy(n[:], x)
		c := u.Get(tt, x...)
		sum := -2 * float64(d) * c
		for i := 0; i < d; i++ {
			n[i] = x[i] + 1
			sum += u.Get(tt, n[:d]...)
			n[i] = x[i] - 1
			sum += u.Get(tt, n[:d]...)
			n[i] = x[i]
		}
		u.Set(tt+1, c+0.05*sum, x...)
	})
	return st, kern
}

func TestSignalsAgree(t *testing.T) {
	const ring = 1 << 13 // events per flight lane: more than any case records
	t.Cleanup(func() { flight.SetDefaultRing(0) })
	for _, c := range []struct {
		sizes       []int
		steps       int
		spaceCutoff []int
	}{
		{[]int{40, 36}, 12, []int{8, 8}},
		{[]int{8, 8, 8, 8}, 6, []int{4, 4, 4, 4}},
	} {
		for _, alg := range []core.Algorithm{core.TRAP, core.STRAP, core.LOOPS} {
			for _, serial := range []bool{true, false} {
				name := fmt.Sprintf("%dD/%v/serial=%v", len(c.sizes), alg, serial)
				t.Run(name, func(t *testing.T) {
					fr := flight.SetDefaultRing(ring)
					tel := pochoir.NewRecorder()
					reg := pochoir.NewMetrics()
					met := metrics.NewRunMetrics(reg)
					tr := newTrace()
					st, kern := heatND(t, pochoir.Options{
						Algorithm: alg, Serial: serial, Grain: 1, TimeCutoff: 2,
						SpaceCutoff: c.spaceCutoff, Telemetry: tel, Metrics: reg, Trace: tr,
					}, c.sizes)
					// Every base case reads the progress estimator after its
					// points were added, so the largest reading is what the
					// walk reported before the run's Finish could round it up.
					var (
						mu       sync.Mutex
						progDone int64
					)
					exec := st.GenericBase(kern)
					read := func(z pochoir.Zoid) {
						exec(z)
						mu.Lock()
						defer mu.Unlock()
						for _, p := range reg.ProgressSnapshot() {
							progDone = max(progDone, p.PointsDone)
						}
					}
					if err := st.RunSpecialized(c.steps, pochoir.BaseKernels{Interior: read, Boundary: read}); err != nil {
						t.Fatal(err)
					}

					want := int64(c.steps)
					for _, n := range c.sizes {
						want *= int64(n)
					}
					evs := fr.Snapshot()
					if uint64(len(evs)) != fr.TotalRecorded() {
						t.Fatalf("flight ring wrapped: %d of %d events readable", len(evs), fr.TotalRecorded())
					}
					var flightPoints, flightInterior, flightBases int64
					for _, ev := range evs {
						if ev.Kind == flight.EvBase {
							flightBases++
							flightPoints += ev.A2 >> 1
							flightInterior += ev.A2 & 1
						}
					}
					ts := st.LastRunStats()
					walks := walkSums(t, tr.Snapshot())
					if len(walks) != 1 || walks[0].walk.Attr("dropped_spans") != "0" {
						t.Fatalf("trace holds %d walks, want 1 with every span stored", len(walks))
					}
					if walks[0].bases != ts.Bases {
						t.Errorf("trace base spans = %d, telemetry Bases = %d", walks[0].bases, ts.Bases)
					}
					for _, got := range []struct {
						signal string
						points int64
					}{
						{"telemetry BasePoints", ts.BasePoints},
						{"pochoir_base_points_total", met.BasePoints.Value()},
						{"progress done", progDone},
						{"flight EvBase volumes", flightPoints},
						{"trace base-span volumes", walks[0].points},
					} {
						if got.points != want {
							t.Errorf("%s = %d, want steps × volume = %d", got.signal, got.points, want)
						}
					}
					if z := met.Zoids.Value(); ts.Zoids() != z {
						t.Errorf("telemetry Zoids() = %d, pochoir_zoids_total = %d", ts.Zoids(), z)
					}
					if ts.Spawns != met.Spawns.Value() || ts.Inlines != met.Inlines.Value() {
						t.Errorf("spawned/inlined: telemetry %d/%d, metrics %d/%d",
							ts.Spawns, ts.Inlines, met.Spawns.Value(), met.Inlines.Value())
					}
					in, bd := met.BaseInterior.Value(), met.BaseBoundary.Value()
					if ts.InteriorBases != in || ts.BoundaryBases() != bd {
						t.Errorf("interior/boundary bases: telemetry %d/%d, metrics %d/%d",
							ts.InteriorBases, ts.BoundaryBases(), in, bd)
					}
					if flightInterior != in || flightBases-flightInterior != bd {
						t.Errorf("interior/boundary bases: flight %d/%d, metrics %d/%d",
							flightInterior, flightBases-flightInterior, in, bd)
					}
					if p := met.EnginePoints[alg].Value(); p != want {
						t.Errorf("pochoir_engine_points_total{engine=%q} = %d, want steps × volume = %d", alg, p, want)
					}
					if n := met.ForkDepth.Count(); n != ts.Spawns {
						t.Errorf("pochoir_fork_depth_count = %d, telemetry Spawns = %d", n, ts.Spawns)
					}
					// The registry's le bins against the flight record's own
					// base volumes, binned here by the bounds' definition.
					bounds, counts := met.BaseVolume.Buckets()
					wantBins := make([]int64, len(counts))
					for _, ev := range evs {
						if ev.Kind == flight.EvBase {
							v, b := ev.A2>>1, 0
							for b < len(bounds) && v > bounds[b] {
								b++
							}
							wantBins[b]++
						}
					}
					if fmt.Sprint(counts) != fmt.Sprint(wantBins) {
						t.Errorf("pochoir_base_volume_points buckets %v, flight EvBase volumes bin to %v", counts, wantBins)
					}
					if met.BaseVolume.Sum() != flightPoints || met.BaseVolume.Count() != flightBases {
						t.Errorf("pochoir_base_volume_points _sum/_count = %d/%d, flight EvBase volumes %d over %d bases",
							met.BaseVolume.Sum(), met.BaseVolume.Count(), flightPoints, flightBases)
					}
					if ts.Bases == 0 || ts.Zoids() <= ts.Bases && alg != core.LOOPS {
						t.Errorf("implausible decomposition: %d bases of %d zoids", ts.Bases, ts.Zoids())
					}
				})
			}
		}
	}
}
