package sched_test

// Pins the runtime guarantee the continuous-profiling subsystem rests on:
// goroutines the scheduler spawns inherit the spawner's pprof label set,
// so CPU samples taken on worker goroutines attribute to the labels the
// gateway and supervisor applied upstream. If a future runtime or
// scheduler change broke inheritance, per-tenant attribution would
// silently collapse into the unlabeled bucket — this test turns that into
// a loud failure.

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"pochoir/internal/profile"
	"pochoir/internal/sched"
)

// labelBurnSink keeps the burn loop's result alive; several workers store
// to it at once.
var labelBurnSink atomic.Uint64

func labelBurn(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1.0001
	for time.Now().Before(deadline) {
		for i := 0; i < 10000; i++ {
			x = math.Sqrt(x*x + 1.0001)
		}
	}
	labelBurnSink.Store(math.Float64bits(x))
}

func TestSpawnedWorkersInheritProfilerLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("tenant", "sched-label-test"), func(context.Context) {
		// Three of the four burns run on spawned goroutines, so most
		// samples land on workers the calling goroutine did not run.
		burn := func() { labelBurn(150 * time.Millisecond) }
		var rg sched.Region
		defer rg.Wait()
		for i := 0; i < 3; i++ {
			rg.Go(burn)
		}
		burn()
	})
	pprof.StopCPUProfile()

	rep, err := profile.Analyze(buf.Bytes(), 10)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.CPUSeconds <= 0 {
		t.Skip("no CPU samples landed (starved CI runner)")
	}
	var labeled float64
	for _, ls := range rep.ByLabel["tenant"] {
		if ls.Value == "sched-label-test" {
			labeled = ls.Share
		}
	}
	// The burn dominates the process during the window; if inheritance
	// broke, its samples would carry no tenant label at all.
	if labeled < 0.5 {
		t.Fatalf("spawned workers carried the label on only %.0f%% of CPU, want >=50%%: %+v",
			100*labeled, rep.ByLabel["tenant"])
	}
}
