package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// toyScale shrinks every workload so the smoke test runs the benchmark's
// real code paths — engines, supervisor, spill, daemon, oracle — in seconds.
var toyScale = scale{
	heat2p:       box{[]int{64, 64}, 8},
	heat4:        box{[]int{8, 8, 8, 8}, 4},
	phase1:       box{[]int{32, 32}, 4},
	serveCompute: box{[]int{24, 24}, 4},
	serveSmall:   box{[]int{16}, 4},
	serveWarmup:  3,
}

// TestWorkloadsSmoke runs all five workloads at toy scale, untraced and
// traced, with the oracle on: an API change that would break the ruler
// fails `go test ./...`.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches pochoird")
	}
	pochoird, err := buildDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/end-to-end"
			specs := endToEnd
			if trace {
				name, specs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				res, err := runWorkload(w, 7, 0.2, trace, toyScale, pochoird, traceOut, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(specs) {
					t.Fatalf("reported %d metrics, declared %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.Name]
					if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", s.Name, m, ok, s.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, must be positive", s.Name, m.Value)
					}
				}
				if trace {
					data, err := os.ReadFile(traceOut)
					if err != nil {
						t.Fatal(err)
					}
					var tr struct {
						TraceEvents []chromeEvent `json:"traceEvents"`
					}
					if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
						t.Fatalf("trace.json: %d events, err %v", len(tr.TraceEvents), err)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json — what the driver
// reads — in step with the tables this program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, decl.Workloads[i].Name, w.Name)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || decl.RunSeconds < 1 || len(decl.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", decl.Paths, decl.RunSeconds, decl.Command)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{3}, 0.9, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{5, 1, 3}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{[]float64{10, 20}, 0.25, 12.5},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{9, 7, 8}
	if median(xs) != 8 || xs[0] != 9 {
		t.Errorf("median(%v) = %g; input must stay unsorted", xs, median(xs))
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "rep", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "run", Parent: 0, Start: 10 * ms, End: 60 * ms},
		{Name: "run", Parent: 0, Start: 50 * ms, End: 80 * ms},    // overlaps its sibling
		{Name: "base", Parent: 1, Start: 20 * ms, End: 30 * ms},   // grandchild
		{Name: "late", Parent: 0, Start: 90 * ms, End: 120 * ms},  // sticks out of its parent
		{Name: "alone", Parent: -1, Start: 5 * ms, End: 6 * ms},   // second root
		{Name: "orphan", Parent: 99, Start: 1 * ms, End: 2 * ms},  // parent index out of range
		{Name: "empty", Parent: 0, Start: 95 * ms, End: 95 * ms},  // zero length
		{Name: "base", Parent: 2, Start: 70 * ms, End: 75 * ms},   // same name, other parent
		{Name: "outside", Parent: 1, Start: 0, End: 5 * ms},       // wholly before its parent
		{Name: "nested", Parent: 0, Start: 15 * ms, End: 55 * ms}, // inside the first run's cover
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		// rep: 100 − union([10,80] ∪ [90,100]) = 100 − 80
		"rep": 20 * ms,
		// runs: (50 − 10) + (30 − 5)
		"run":     65 * ms,
		"base":    15 * ms,
		"late":    30 * ms,
		"alone":   1 * ms,
		"orphan":  1 * ms,
		"empty":   0,
		"outside": 5 * ms,
		"nested":  40 * ms,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	total, calls := totalTimes(spans)
	if total["run"] != 80*ms || calls["run"] != 2 || calls["base"] != 2 {
		t.Errorf("totalTimes run=%v calls=%v", total["run"], calls)
	}
}

func TestSpanRecorderNilAndOpen(t *testing.T) {
	var none *spanRecorder
	id := none.start(1, -1, "x")
	none.end(id)
	none.add(1, -1, "y", 0, 1)
	if d := none.time(1, -1, "z", func() {}); d < 0 {
		t.Error("negative duration")
	}
	rec := newSpanRecorder()
	root := rec.start(1, -1, "root")
	rec.start(1, root, "left-open")
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].End != spans[1].Start || spans[1].Parent != root {
		t.Errorf("snapshot %+v", spans)
	}
}

// TestOracleLoopNests pins the hand-written references to values computed
// by hand for a grid small enough to check on paper, so the oracle cannot
// drift together with the code it judges.
func TestOracleLoopNests(t *testing.T) {
	// 1D ring of 4 points, one step of 0.25*l + 0.5*c + 0.25*r.
	cur := make([]float64, 4)
	gatewayInit(cur, 1, 0, 0)
	want := make([]float64, 4)
	for x := range want {
		// Rounded after every operation, as the reference promises.
		want[x] = float64(float64(0.25*cur[(x+3)%4])+float64(0.5*cur[x])) + float64(0.25*cur[(x+1)%4])
	}
	if got := refHeat1DPeriodic(1, 4, 1); got != checksumString(hashFloats(want)) {
		t.Errorf("refHeat1DPeriodic = %s, want %s", got, checksumString(hashFloats(want)))
	}
	// Zero-boundary 2D heat: a single hot corner gives an eighth to each
	// of its two neighbours and as much to the halo.
	init := make([]float64, 9)
	init[0] = 1
	out := refHeat2DZero(init, 3, 3, 1)
	if out[0] != 1-4*0.125 || out[1] != 0.125 || out[3] != 0.125 || out[4] != 0 {
		t.Errorf("refHeat2DZero = %v", out)
	}
	if a, b := refHeat2DPeriodic(5, 6, 6, 3), refHeat2DPeriodic(5, 6, 6, 3); a != b || a == refHeat2DPeriodic(6, 6, 6, 3) {
		t.Errorf("refHeat2DPeriodic must depend on the seed and nothing else: %s %s", a, b)
	}
	ref := newReference([]float64{1, 2, 3})
	if !ref.matches([]float64{1, 2, 3}) || !ref.matches([]float64{1, 2, 3 + 1e-12}) ||
		ref.matches([]float64{1, 2, 3.1}) || ref.matches([]float64{1, 2}) || ref.matches([]float64{1, 2, math.NaN()}) {
		t.Error("reference.matches")
	}
}

func TestJobSeedsDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 100000; i++ {
		s := jobSeed(42, i)
		if seen[s] {
			t.Fatalf("job %d repeats seed %d", i, s)
		}
		seen[s] = true
	}
	if jobSeed(1, 0) == jobSeed(2, 0) {
		t.Error("run seed does not change job seeds")
	}
}
