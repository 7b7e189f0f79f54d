package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pochoir/internal/core"
	"pochoir/internal/telemetry"
)

// TestCounterConcurrentExact is the -race registry concurrency test:
// GOMAXPROCS goroutines hammer one counter and the total must be exact: no
// increment may be lost or double-counted.
func TestCounterConcurrentExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_concurrent_total", "concurrency test")
	g := r.Gauge("test_concurrent_gauge", "concurrency test")
	h := r.Histogram("test_concurrent_hist", "concurrency test", 16)

	workers := runtime.GOMAXPROCS(0) * 4
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(2)
				g.Add(1)
				h.Observe(seed%1000 + 1)
			}
		}(int64(w))
	}
	// Concurrent scrapes must be safe while increments run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("concurrent scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	want := int64(workers * perWorker * 2)
	if got := c.Value(); got != want {
		t.Fatalf("counter sum = %d, want %d", got, want)
	}
	if got := g.Value(); got != float64(workers*perWorker) {
		t.Fatalf("gauge sum = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != int64(workers*perWorker) {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	_, counts := h.Buckets()
	var bucketSum int64
	for _, n := range counts {
		bucketSum += n
	}
	if bucketSum != h.Count() {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count())
	}
}

func TestGaugeOps(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "g")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("Set: got %v", g.Value())
	}
	g.Inc()
	g.Dec()
	g.Add(-1.5)
	if g.Value() != 2 {
		t.Fatalf("Add: got %v", g.Value())
	}
	g.SetMax(1)
	if g.Value() != 2 {
		t.Fatalf("SetMax lowered the gauge: %v", g.Value())
	}
	g.SetMax(10)
	if g.Value() != 10 {
		t.Fatalf("SetMax: got %v", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "h", 4) // bounds 1,2,4,8 then +Inf
	for _, v := range []int64{0, 1, 2, 3, 4, 8, 9, 100} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || bounds[3] != 8 {
		t.Fatalf("bounds = %v", bounds)
	}
	// 0,1 -> le=1; 2 -> le=2; 3,4 -> le=4; 8 -> le=8; 9,100 -> +Inf
	want := []int64{2, 1, 2, 1, 2}
	for i, n := range want {
		if counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], n, counts)
		}
	}
	if h.Sum() != 127 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_dup_total", "dup")
	b := r.Counter("test_dup_total", "dup")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	l1 := r.Counter("test_labeled_total", "dup", Label{"k", "v1"})
	l2 := r.Counter("test_labeled_total", "dup", Label{"k", "v2"})
	if l1 == l2 {
		t.Fatal("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("test_dup_total", "dup")
}

// TestPrometheusGolden pins the exposition format: deterministic order,
// HELP/TYPE comments, cumulative histogram buckets, progress gauges.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_events_total", "Events processed.", Label{"kind", "cut"})
	c.Add(7)
	g := r.Gauge("app_workers", "Active workers.")
	g.Set(3)
	h := r.Histogram("app_sizes", "Size distribution.", 3) // 1,2,4,+Inf
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)
	p := r.StartProgress("golden", 200)
	p.Add(50)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		`# HELP app_events_total Events processed.`,
		`# TYPE app_events_total counter`,
		`app_events_total{kind="cut"} 7`,
		`# HELP app_sizes Size distribution.`,
		`# TYPE app_sizes histogram`,
		`app_sizes_bucket{le="1"} 1`,
		`app_sizes_bucket{le="2"} 1`,
		`app_sizes_bucket{le="4"} 2`,
		`app_sizes_bucket{le="+Inf"} 3`,
		`app_sizes_sum 104`,
		`app_sizes_count 3`,
		`# HELP app_workers Active workers.`,
		`# TYPE app_workers gauge`,
		`app_workers 3`,
	}, "\n") + "\n"
	if !strings.HasPrefix(got, want) {
		t.Fatalf("exposition prefix mismatch:\n--- got ---\n%s\n--- want prefix ---\n%s", got, want)
	}
	for _, line := range []string{
		"pochoir_progress_percent 25\n",
		"pochoir_progress_points_done 50\n",
		"pochoir_progress_points_total 200\n",
		"pochoir_progress_active 1\n",
	} {
		if !strings.Contains(got, line) {
			t.Fatalf("exposition missing %q:\n%s", line, got)
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("golden exposition fails its own validator: %v", err)
	}
}

// TestPrometheusGoldenSupervisorSpill pins the durable-spill and
// cross-process-resume instruments on /statusz: both outcome labels of
// each family are pre-registered (a scrape sees "error"/"cold_start" at 0
// before anything goes wrong), and the byte/time/corruption counters
// expose exactly as named in README and EXPERIMENTS.md.
func TestPrometheusGoldenSupervisorSpill(t *testing.T) {
	r := NewRegistry()
	sm := NewSupervisorMetrics(r)
	sm.Spills.Add(4)
	sm.SpillBytes.Add(1 << 20)
	sm.SpillNS.Add(2500)
	sm.ResumeRestored.Inc()
	sm.ResumeCorrupt.Add(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, line := range []string{
		`pochoir_sup_spills_total{outcome="ok"} 4` + "\n",
		`pochoir_sup_spills_total{outcome="error"} 0` + "\n",
		"pochoir_sup_spill_bytes_total 1048576\n",
		"pochoir_sup_spill_ns_total 2500\n",
		`pochoir_resume_total{outcome="restored"} 1` + "\n",
		`pochoir_resume_total{outcome="cold_start"} 0` + "\n",
		"pochoir_resume_corrupt_entries_total 2\n",
	} {
		if !strings.Contains(got, line) {
			t.Fatalf("exposition missing %q:\n%s", line, got)
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("supervisor exposition fails the validator: %v", err)
	}
	// Get-or-create: a second resolution against the same registry must
	// return the same underlying counters, not panic on re-registration.
	if NewSupervisorMetrics(r).Spills.Value() != 4 {
		t.Fatal("re-resolved instrument set lost the counts")
	}
}

// TestPrometheusGoldenProfiler pins the continuous profiler's exposition:
// the self-metrics (capture counts by kind, ring evictions, decode and
// capture errors — both kinds pre-registered so a scrape sees heap at 0
// before the first snapshot) and the per-tenant CPU attribution gauge,
// exactly as named in README and EXPERIMENTS.md. CPU seconds are
// fractional, so the family is a gauge that only ever accumulates.
func TestPrometheusGoldenProfiler(t *testing.T) {
	r := NewRegistry()
	pm := NewProfilerMetrics(r)
	pm.Captures.Add(6)
	pm.Evictions.Add(2)
	pm.DecodeErrors.Add(1)
	r.Gauge("pochoir_tenant_cpu_seconds_total",
		"Cumulative CPU seconds attributed to each tenant by the continuous profiler.",
		Label{"tenant", "acme"}).Add(1.5)
	r.Gauge("pochoir_tenant_cpu_seconds_total",
		"Cumulative CPU seconds attributed to each tenant by the continuous profiler.",
		Label{"tenant", "batch"}).Add(0.25)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, line := range []string{
		`pochoir_profile_captures_total{kind="cpu"} 6` + "\n",
		`pochoir_profile_captures_total{kind="heap"} 0` + "\n",
		"pochoir_profile_ring_evictions_total 2\n",
		"pochoir_profile_decode_errors_total 1\n",
		"pochoir_profile_capture_errors_total 0\n",
		`pochoir_tenant_cpu_seconds_total{tenant="acme"} 1.5` + "\n",
		`pochoir_tenant_cpu_seconds_total{tenant="batch"} 0.25` + "\n",
	} {
		if !strings.Contains(got, line) {
			t.Fatalf("exposition missing %q:\n%s", line, got)
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("profiler exposition fails the validator: %v", err)
	}
	if NewProfilerMetrics(r).Captures.Value() != 6 {
		t.Fatal("re-resolved profiler set lost the counts")
	}
}

func TestCheckExposition(t *testing.T) {
	valid := []byte(strings.Join([]string{
		"# HELP x_total stuff",
		"# TYPE x_total counter",
		`x_total{a="b",c="d\"e"} 12`,
		"# TYPE h histogram",
		`h_bucket{le="+Inf"} 3`,
		"h_sum 10",
		"h_count 3",
		"# TYPE g gauge",
		"g -1.5e-3",
		"g2 NaN",
		"# TYPE g2 gauge",
	}, "\n"))
	// g2 precedes its TYPE — that variant must fail; fix the order first.
	bad := valid
	valid = []byte(strings.Replace(string(valid), "g2 NaN\n# TYPE g2 gauge", "# TYPE g2 gauge\ng2 NaN", 1))
	if err := CheckExposition(valid); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if err := CheckExposition(bad); err == nil {
		t.Fatal("sample before TYPE accepted")
	}
	cases := map[string]string{
		"empty":          "",
		"comments only":  "# TYPE x counter",
		"bad name":       "# TYPE x counter\n1x 3",
		"no value":       "# TYPE x counter\nx",
		"bad value":      "# TYPE x counter\nx forty",
		"unterminated":   "# TYPE x counter\nx{a=\"b 3",
		"bad type":       "# TYPE x widget\nx 3",
		"bad directive":  "# FOO x counter\nx 3",
		"undeclared":     "y 3",
		"bad label key":  "# TYPE x counter\nx{1a=\"b\"} 3",
		"unquoted label": "# TYPE x counter\nx{a=b} 3",
		"bad timestamp":  "# TYPE x counter\nx 3 soon",
	}
	for name, data := range cases {
		if err := CheckExposition([]byte(data)); err == nil {
			t.Errorf("%s: accepted %q", name, data)
		}
	}
}

func TestProgress(t *testing.T) {
	r := NewRegistry()
	p := r.StartProgress("run", 1000)
	if p.Percent() != 0 {
		t.Fatalf("fresh percent = %v", p.Percent())
	}
	p.Add(250)
	if p.Percent() != 25 {
		t.Fatalf("percent = %v, want 25", p.Percent())
	}
	// Redone work overshoots; percent clamps and stays monotone.
	p.Add(900)
	if p.Percent() != 100 {
		t.Fatalf("overshoot percent = %v, want 100", p.Percent())
	}
	if p.ETA() != 0 {
		t.Fatalf("ETA with no work remaining = %v", p.ETA())
	}
	p.Finish(true)
	if !p.Finished() || p.Percent() != 100 || p.Done() < p.Total() {
		t.Fatalf("after Finish: finished=%v percent=%v done=%d", p.Finished(), p.Percent(), p.Done())
	}
	p.Finish(false) // idempotent: first call won
	st := p.stat()
	if st.Active || !st.OK {
		t.Fatalf("stat after ok finish: %+v", st)
	}

	// A failed run keeps its partial percent.
	q := r.StartProgress("fail", 1000)
	q.Add(100)
	q.Finish(false)
	if got := q.Percent(); got != 10 {
		t.Fatalf("failed-run percent = %v, want 10", got)
	}
	if st := q.stat(); st.OK || st.Active {
		t.Fatalf("failed-run stat: %+v", st)
	}

	// Zero-total runs: 0% until a successful finish, never NaN.
	z := r.StartProgress("empty", 0)
	if z.Percent() != 0 {
		t.Fatalf("zero-total percent = %v", z.Percent())
	}
	z.Finish(true)
	if z.Percent() != 100 {
		t.Fatalf("zero-total finished percent = %v", z.Percent())
	}

	snap := r.ProgressSnapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d runs, want 3", len(snap))
	}
	if snap[0].Label != "empty" {
		t.Fatalf("snapshot not newest-first: %+v", snap)
	}
}

func TestProgressETA(t *testing.T) {
	r := NewRegistry()
	p := r.StartProgress("eta", 100)
	p.Add(50)
	time.Sleep(10 * time.Millisecond)
	eta := p.ETA()
	if eta <= 0 {
		t.Fatalf("ETA = %v, want > 0 at 50%%", eta)
	}
	// Half done: the ETA should be on the order of the elapsed time.
	if el := p.elapsed(); eta > el*10 {
		t.Fatalf("ETA %v wildly exceeds elapsed %v at 50%%", eta, el)
	}
}

// TestProgressOf: the lookup by label answers what ProgressSnapshot's first
// entry with that label does, for a running run and a finished one, and a
// reused label finds the newest run.
func TestProgressOf(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.ProgressOf("j-1"); ok {
		t.Fatal("ProgressOf found a run in an empty registry")
	}
	same := func(label string) ProgressStat {
		t.Helper()
		got, ok := r.ProgressOf(label)
		if !ok {
			t.Fatalf("ProgressOf(%q) found nothing", label)
		}
		for _, want := range r.ProgressSnapshot() {
			if want.Label == label {
				if got.ID != want.ID || got.Active != want.Active || got.OK != want.OK ||
					got.PointsDone != want.PointsDone || got.PointsTotal != want.PointsTotal {
					t.Fatalf("ProgressOf(%q) = %+v, snapshot holds %+v", label, got, want)
				}
				return got
			}
		}
		t.Fatalf("the snapshot holds no %q", label)
		return got
	}
	old := r.StartProgress("j-1", 100)
	old.Add(100)
	old.Finish(true)
	run := r.StartProgress("j-2", 100)
	run.Add(40)
	r.StartProgress("other", 10) // sweeps j-1 into the finished history
	if st := same("j-2"); !st.Active || st.PointsDone != 40 {
		t.Fatalf("running run: %+v", st)
	}
	if st := same("j-1"); st.Active || !st.OK || st.Percent != 100 {
		t.Fatalf("finished run: %+v", st)
	}
	run.Finish(false)
	if st := same("j-2"); st.Active || st.OK {
		t.Fatalf("failed run: %+v", st)
	}
	again := r.StartProgress("j-1", 7) // a reused label: the newest wins
	if st := same("j-1"); st.ID != again.id || !st.Active {
		t.Fatalf("reused label found %+v, want run %d", st, again.id)
	}
	if n := testing.AllocsPerRun(10, func() { r.ProgressOf("j-2") }); n != 0 {
		t.Fatalf("ProgressOf made %v allocations, want 0", n)
	}
}

func TestProgressHistoryBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < keepFinished*3; i++ {
		p := r.StartProgress(fmt.Sprintf("run-%d", i), 10)
		p.Finish(true)
	}
	snap := r.ProgressSnapshot()
	if len(snap) > keepFinished+2 {
		t.Fatalf("history unbounded: %d entries", len(snap))
	}
}

func TestRunAndSupervisorSets(t *testing.T) {
	r := NewRegistry()
	m := NewRunMetrics(r)
	m2 := NewRunMetrics(r)
	if m.Zoids != m2.Zoids || m.EnginePoints[0] != m2.EnginePoints[0] {
		t.Fatal("NewRunMetrics is not idempotent")
	}
	m.Zoids.Inc()
	m.EnginePoints[2].Add(5)
	s := NewSupervisorMetrics(r)
	s.Retries.Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pochoir_zoids_total 1",
		`pochoir_engine_points_total{engine="LOOPS"} 5`,
		`pochoir_engine_points_total{engine="TRAP"} 0`,
		"pochoir_sup_retries_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("instrument-set exposition invalid: %v", err)
	}
}

// TestFoldMatchesObserve: a walk's Stats folded into the run set give the
// base-volume histogram exactly what observing each volume would have, le
// bins, sum and count, including volumes past the last bound; the engine's
// points and the last-walk gauges come from the same Stats, the gauges only
// when the walk kept busy time.
func TestFoldMatchesObserve(t *testing.T) {
	vols := []int64{1, 2, 3, 4, 5, 127, 128, 129, 1 << 23, 1<<23 + 1, 1 << 40}
	untimed := telemetry.NewWalk(false)
	untimed.Release(untimed.Acquire())
	st := untimed.Stats()
	m := NewRunMetrics(NewRegistry())
	m.Fold(&st, core.STRAP)
	if m.LastWorkers.Value() != 0 || m.LastWallSeconds.Value() != 0 {
		t.Fatal("a walk without busy time set the last-walk gauges")
	}
	w := telemetry.NewWalk(true)
	s := w.Acquire()
	for i, v := range vols {
		s.Base(v, i%2 == 0)
		s.End()
	}
	w.Release(s)
	st = w.Stats()
	m.Fold(&st, core.STRAP)
	ref := NewRunMetrics(NewRegistry()).BaseVolume
	for _, v := range vols {
		ref.Observe(v)
	}
	_, got := m.BaseVolume.Buckets()
	_, want := ref.Buckets()
	if fmt.Sprint(got) != fmt.Sprint(want) || m.BaseVolume.Sum() != ref.Sum() || m.BaseVolume.Count() != ref.Count() {
		t.Fatalf("folded buckets %v (sum %d, count %d), observed %v (sum %d, count %d)",
			got, m.BaseVolume.Sum(), m.BaseVolume.Count(), want, ref.Sum(), ref.Count())
	}
	if p := m.EnginePoints[core.STRAP].Value(); p != st.BasePoints || m.EnginePoints[core.TRAP].Value() != 0 {
		t.Fatalf("STRAP points = %d, want the walk's %d and none on TRAP", p, st.BasePoints)
	}
	if m.Zoids.Value() != int64(len(vols)) || m.BaseInterior.Value() != 6 || m.BaseBoundary.Value() != 5 {
		t.Fatalf("zoids %d, bases %d/%d; want %d, 6/5", m.Zoids.Value(), m.BaseInterior.Value(), m.BaseBoundary.Value(), len(vols))
	}
	if m.LastWorkers.Value() != 1 || m.LastWallSeconds.Value() <= 0 {
		t.Fatalf("last-walk gauges: %v workers, %v s", m.LastWorkers.Value(), m.LastWallSeconds.Value())
	}
}

func TestMonitorEndpoints(t *testing.T) {
	r := NewRegistry()
	NewRunMetrics(r).Zoids.Add(42)
	p := r.StartProgress("monitored", 100)
	p.Add(40)

	m, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	get := func(path string) []byte {
		resp, err := http.Get(m.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	metricsBody := get("/metrics")
	if !strings.Contains(string(metricsBody), "pochoir_zoids_total 42") {
		t.Fatalf("/metrics missing zoid counter:\n%s", metricsBody)
	}
	if err := CheckExposition(metricsBody); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}

	var status Status
	if err := json.Unmarshal(get("/statusz"), &status); err != nil {
		t.Fatalf("/statusz: %v", err)
	}
	if status.GoVersion == "" || len(status.Metrics) == 0 {
		t.Fatalf("/statusz incomplete: %+v", status)
	}

	var prog struct {
		Runs []ProgressStat `json:"runs"`
	}
	if err := json.Unmarshal(get("/progressz"), &prog); err != nil {
		t.Fatalf("/progressz: %v", err)
	}
	if len(prog.Runs) != 1 || prog.Runs[0].Percent != 40 {
		t.Fatalf("/progressz = %+v", prog)
	}

	if !strings.Contains(string(get("/")), "/metrics") {
		t.Fatal("index page missing endpoint listing")
	}
	if !bytes.Contains(get("/debug/vars"), []byte("memstats")) {
		t.Fatal("/debug/vars missing expvar memstats")
	}
	if !bytes.Contains(get("/debug/pprof/"), []byte("goroutine")) {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
}
