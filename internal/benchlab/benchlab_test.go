package benchlab

import (
	"path/filepath"
	"testing"
	"time"
)

// TestCollectFusesSignals: a one-benchmark quick session produces one run
// per engine with all four signals present and mutually consistent.
func TestCollectFusesSignals(t *testing.T) {
	rep, err := Collect(Config{
		Profile:    "quick",
		Benchmarks: []string{"Heat 2"},
		Budget:     30 * time.Millisecond,
		MaxReps:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Version != Version {
		t.Fatalf("report not schema-versioned: %q v%d", rep.Schema, rep.Version)
	}
	if rep.Host.CPUs <= 0 || rep.Host.GoVersion == "" {
		t.Fatalf("missing host provenance: %+v", rep.Host)
	}
	if len(rep.Runs) != len(Engines) {
		t.Fatalf("got %d runs, want one per engine (%d)", len(rep.Runs), len(Engines))
	}
	seen := map[string]bool{}
	for _, r := range rep.Runs {
		seen[r.Engine] = true
		if r.Wall.Reps < 3 || r.Wall.MedianSeconds <= 0 {
			t.Fatalf("%s: wall stats not measured: %+v", r.Key(), r.Wall)
		}
		if r.Wall.MinSeconds > r.Wall.MedianSeconds || r.Wall.MedianSeconds > r.Wall.MaxSeconds {
			t.Fatalf("%s: median outside [min,max]: %+v", r.Key(), r.Wall)
		}
		if r.Telemetry == nil {
			t.Fatalf("%s: no telemetry signal", r.Key())
		}
		// The decomposition partitions space-time exactly: the instrumented
		// repetition's point updates must equal the workload's updates.
		if r.Telemetry.BasePoints != r.Updates {
			t.Fatalf("%s: telemetry saw %d point updates, workload is %d",
				r.Key(), r.Telemetry.BasePoints, r.Updates)
		}
		if r.Cilkview == nil || r.Cilkview.Work <= 0 || r.Cilkview.Span <= 0 {
			t.Fatalf("%s: no cilkview signal: %+v", r.Key(), r.Cilkview)
		}
		if r.Engine == "LOOPS" && r.Cilkview.Parallelism != 1 {
			t.Fatalf("LOOPS cilkview parallelism %f, want 1", r.Cilkview.Parallelism)
		}
		if r.CacheSim == nil || r.CacheSim.Accesses <= 0 {
			t.Fatalf("%s: no cache signal: %+v", r.Key(), r.CacheSim)
		}
		if ratio := r.CacheSim.MissRatio; ratio <= 0 || ratio > 1 {
			t.Fatalf("%s: miss ratio %f out of (0,1]", r.Key(), ratio)
		}
	}
	for _, alg := range Engines {
		if !seen[alg.String()] {
			t.Fatalf("engine %v missing from report", alg)
		}
	}
}

// TestCollectDSLRow: the served path has its rows — the
// specification-language Heat 2p on each of dslBoxes, wall clock only, under
// TRAP and LOOPS.
func TestCollectDSLRow(t *testing.T) {
	for name, w := range dslBoxes {
		rep, err := Collect(Config{
			Profile:    "quick",
			Benchmarks: []string{name},
			Budget:     30 * time.Millisecond,
			MaxReps:    3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Runs) != 2 || rep.Runs[0].Key() != name+"/TRAP" || rep.Runs[1].Key() != name+"/LOOPS" {
			t.Fatalf("got runs %+v, want %s under TRAP and LOOPS", rep.Runs, name)
		}
		for _, r := range rep.Runs {
			if r.Updates != w.Updates() || r.Wall.Reps < 3 || r.Wall.MedianMpts <= 0 {
				t.Fatalf("%s: not measured on %v×%d: %+v", r.Key(), w.Sizes, w.Steps, r)
			}
		}
	}
}

// TestReportRoundTrip: WriteFile/ReadFile preserve the document, and a
// foreign schema is refused.
func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{
		Schema: Schema, Version: Version, Profile: "quick", Host: Host(),
		Runs: []Run{{
			Benchmark: "Heat 2", Engine: "TRAP", Sizes: []int{300, 300}, Steps: 30,
			Updates: 2700000,
			Wall:    WallStats{Reps: 5, MedianSeconds: 0.1, MADSeconds: 0.001},
		}},
	}
	path := filepath.Join(dir, "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 1 || back.Runs[0].Key() != "Heat 2/TRAP" ||
		back.Runs[0].Wall.MedianSeconds != 0.1 {
		t.Fatalf("round trip mangled report: %+v", back)
	}

	rep.Schema = "somebody-elses/v9"
	bad := filepath.Join(dir, "bad.json")
	if err := rep.WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// TestMedianMAD: the robust statistics behave on known samples.
func TestMedianMAD(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median %f, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median %f, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Fatalf("empty median %f, want 0", got)
	}
	// {1,2,3,4,100}: median 3, |dev| {2,1,0,1,97} -> MAD 1: the outlier
	// moves the mean but not the robust pair.
	if got := MAD([]float64{1, 2, 3, 4, 100}); got != 1 {
		t.Fatalf("MAD %f, want 1", got)
	}
}

// TestUnknownBenchmark: a typo fails fast instead of silently skipping.
func TestUnknownBenchmark(t *testing.T) {
	if _, err := Collect(Config{Benchmarks: []string{"Heat 9"}}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Collect(Config{Profile: "nope"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
