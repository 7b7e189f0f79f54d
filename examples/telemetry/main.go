// Telemetry: observing a Pochoir run. The Fig. 6 heat equation again, but
// executed with an execution-telemetry recorder attached: the engine counts
// every cut decision, base-case invocation, and spawn choice in per-worker
// shards, and this program prints the aggregate stats report
// (decomposition counters, base-case volume histogram, achieved
// parallelism). With -trace it also records the run into a causal trace
// and writes it as Chrome trace-event JSON: the recursive decomposition as
// a span tree under a "walk" span, one track per worker.
//
// Run with:
//
//	go run ./examples/telemetry                    # stats report only
//	go run ./examples/telemetry -trace trace.json  # + Perfetto-loadable trace
//
// Load the trace at chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"pochoir"
)

func main() {
	var (
		n     = flag.Int("n", 256, "grid side length")
		steps = flag.Int("steps", 64, "time steps")
		trace = flag.String("trace", "", "write a Chrome trace-event JSON to `FILE`")
	)
	flag.Parse()
	const cx, cy = 0.125, 0.125

	sh := pochoir.MustShape(2, [][]int{
		{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
	})

	// Attach a recorder through Options.Telemetry, and for -trace a trace
	// through Options.Trace; everything else is the ordinary quickstart
	// program.
	opts := pochoir.Options{Telemetry: pochoir.NewRecorder()}
	if *trace != "" {
		opts.Trace = pochoir.NewTracer(pochoir.TracerConfig{}).StartTrace("heat", pochoir.TraceContext{})
	}
	heat := pochoir.NewWithOptions[float64](sh, opts)
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
	if err := heat.Run(*steps, kern); err != nil {
		log.Fatal(err)
	}

	// LastRunStats summarizes just this Run (the recorder itself keeps
	// accumulating across resumed runs).
	st := heat.LastRunStats()
	fmt.Printf("2D heat, %dx%d torus, %d steps — instrumented run\n\n", *n, *n, *steps)
	st.WriteReport(os.Stdout)

	want := int64(*n) * int64(*n) * int64(*steps)
	if st.BasePoints != want {
		log.Fatalf("decomposition did not cover space-time: %d point updates, want %d", st.BasePoints, want)
	}
	fmt.Printf("\nok: base cases covered exactly steps x grid volume = %d point updates\n", want)

	if *trace != "" {
		var buf bytes.Buffer
		if err := pochoir.WriteChromeTrace(&buf, opts.Trace); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*trace, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s — load it at chrome://tracing or https://ui.perfetto.dev\n", *trace)
	}
}
