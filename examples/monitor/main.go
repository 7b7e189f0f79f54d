// Monitor: watching a Pochoir run live. The heat equation again, but with a
// metrics registry armed through Options.Metrics and the embedded monitor
// server listening: while the run executes, any HTTP client can scrape
//
//	/metrics        Prometheus text exposition (zoids, cuts, base-case
//	                points, per-engine throughput, each added once per
//	                supervised segment; supervisor counters)
//	/statusz        JSON snapshot of every metric + process vitals
//	/progressz      live percent-complete, point rate, and ETA
//	/debug/pprof/   the standard Go runtime profiles
//	/debug/vars     expvar
//
// This program runs repeated supervised iterations of the workload so there
// is something live to watch, prints its own progress samples, and keeps
// the server up until the iterations finish — point a browser or
//
//	curl http://<addr>/metrics
//	curl http://<addr>/progressz
//
// at the printed address while it runs.
//
// Run with:
//
//	go run ./examples/monitor                      # ephemeral port
//	go run ./examples/monitor -addr 127.0.0.1:8080 # fixed port
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"pochoir"
)

func main() {
	var (
		n     = flag.Int("n", 384, "grid side length")
		steps = flag.Int("steps", 64, "time steps per iteration")
		iters = flag.Int("iters", 3, "supervised iterations to run")
		addr  = flag.String("addr", "127.0.0.1:0", "monitor listen address")
	)
	flag.Parse()
	const cx, cy = 0.125, 0.125

	// One registry can outlive and span any number of runs and stencils;
	// counters are cumulative across all of them.
	reg := pochoir.NewMetrics()
	mon, err := pochoir.ServeMonitor(*addr, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()
	fmt.Printf("monitor: %s  (try: curl %s/metrics; curl %s/progressz)\n\n",
		mon.URL(), mon.URL(), mon.URL())

	sh := pochoir.MustShape(2, [][]int{
		{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
	})
	heat := pochoir.NewWithOptions[float64](sh, pochoir.Options{Metrics: reg})
	u := pochoir.MustArray[float64](sh.Depth(), *n, *n)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	heat.MustRegisterArray(u)

	rng := rand.New(rand.NewSource(1))
	for x := 0; x < *n; x++ {
		for y := 0; y < *n; y++ {
			u.Set(0, rng.Float64(), x, y)
		}
	}
	kern := pochoir.K2(func(t, x, y int) {
		c := u.Get(t, x, y)
		u.Set(t+1, c+
			cx*(u.Get(t, x+1, y)-2*c+u.Get(t, x-1, y))+
			cy*(u.Get(t, x, y+1)-2*c+u.Get(t, x, y-1)), x, y)
	})

	// Print the same progress any scraper of /progressz would see.
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for _, p := range reg.ProgressSnapshot() {
					if p.Active {
						fmt.Printf("  %s: %5.1f%%  %6.1f Mpts/s  ETA %.2fs\n",
							p.Label, p.Percent, p.RateMpts, p.ETASeconds)
					}
					break
				}
			}
		}
	}()

	for i := 0; i < *iters; i++ {
		rep, err := heat.RunSupervised(context.Background(), *steps, kern,
			pochoir.SupervisePolicy{SegmentSteps: *steps / 4})
		if err != nil {
			log.Fatalf("iteration %d: %v", i, err)
		}
		fmt.Printf("iteration %d done: %d steps in %d segments\n", i, rep.StepsDone, len(rep.Segments))
	}
	close(done)

	fmt.Printf("\nfinal /progressz view:\n")
	for _, p := range reg.ProgressSnapshot() {
		fmt.Printf("  run %d (%s): %.0f%% of %d points, ok=%v\n",
			p.ID, p.Label, p.Percent, p.PointsTotal, p.OK)
	}
	fmt.Printf("\nscrape %s/metrics for the cumulative counters (%d iterations of %d steps).\n",
		mon.URL(), *iters, *steps)
}
