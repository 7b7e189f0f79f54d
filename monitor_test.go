package pochoir_test

// Public-API coverage of the live monitor: the embedded server's endpoints,
// the Prometheus exposition's self-consistency across scrapes of a working
// stencil, and the ISSUE-4 acceptance property that the progress estimator's
// percent is monotone non-decreasing through a faulted-then-recovered
// supervised run and reaches exactly 100 at the end.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
	"pochoir/internal/metrics"
)

// scrape GETs a monitor URL and returns the body.
func scrape(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return body
}

// metricValue sums every sample of the named family in a Prometheus text
// exposition (one sample for an unlabeled metric, all label combinations for
// a labeled one). It fails the test if the family has no samples.
func metricValue(t *testing.T, expo []byte, name string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(string(expo), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample := line[:strings.IndexByte(line+" ", ' ')]
		if brace := strings.IndexByte(sample, '{'); brace >= 0 {
			sample = sample[:brace]
		}
		if sample != name {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found in exposition:\n%s", name, expo)
	}
	return sum
}

// TestMonitorLiveEndpoints drives the embedded monitor through the public
// API: every endpoint answers, the exposition validates and shows the
// decomposition counters advancing monotonically across scrapes, the point
// counter matches the exact steps x grid-volume work partition, and
// /progressz reports the finished run at 100%.
func TestMonitorLiveEndpoints(t *testing.T) {
	const X, Y, steps, seed = 64, 64, 8, 3
	reg := pochoir.NewMetrics()
	mon, err := pochoir.ServeMonitor("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	st, _, kern := heatStencil(t, pochoir.Options{Metrics: reg}, X, Y, seed)
	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}

	expo1 := scrape(t, mon.URL()+"/metrics")
	if err := pochoir.CheckMetricsExposition(expo1); err != nil {
		t.Fatalf("first scrape invalid: %v\n%s", err, expo1)
	}
	zoids1 := metricValue(t, expo1, "pochoir_zoids_total")
	points1 := metricValue(t, expo1, "pochoir_base_points_total")
	if zoids1 <= 0 {
		t.Fatalf("pochoir_zoids_total = %v after a run, want > 0", zoids1)
	}
	if want := float64(steps * X * Y); points1 != want {
		t.Fatalf("pochoir_base_points_total = %v, want exactly %v", points1, want)
	}

	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}
	expo2 := scrape(t, mon.URL()+"/metrics")
	if err := pochoir.CheckMetricsExposition(expo2); err != nil {
		t.Fatalf("second scrape invalid: %v", err)
	}
	zoids2 := metricValue(t, expo2, "pochoir_zoids_total")
	points2 := metricValue(t, expo2, "pochoir_base_points_total")
	if zoids2 <= zoids1 {
		t.Fatalf("zoid counter not increasing: %v then %v", zoids1, zoids2)
	}
	if want := float64(2 * steps * X * Y); points2 != want {
		t.Fatalf("pochoir_base_points_total = %v after two runs, want %v", points2, want)
	}
	if runs := metricValue(t, expo2, "pochoir_runs_started_total"); runs != 2 {
		t.Fatalf("pochoir_runs_started_total = %v, want 2", runs)
	}
	if active := metricValue(t, expo2, "pochoir_runs_active"); active != 0 {
		t.Fatalf("pochoir_runs_active = %v between runs, want 0", active)
	}

	var status struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(scrape(t, mon.URL()+"/statusz"), &status); err != nil {
		t.Fatalf("/statusz is not valid JSON: %v", err)
	}

	var progress struct {
		Runs []pochoir.ProgressStat `json:"runs"`
	}
	if err := json.Unmarshal(scrape(t, mon.URL()+"/progressz"), &progress); err != nil {
		t.Fatalf("/progressz is not valid JSON: %v", err)
	}
	if len(progress.Runs) != 2 {
		t.Fatalf("/progressz reports %d runs, want 2", len(progress.Runs))
	}
	for _, r := range progress.Runs {
		if r.Active || !r.OK || r.Percent != 100 {
			t.Fatalf("finished run not at 100%%: %+v", r)
		}
		if r.PointsDone != int64(steps*X*Y) || r.PointsTotal != int64(steps*X*Y) {
			t.Fatalf("run points %d/%d, want %d/%d", r.PointsDone, r.PointsTotal, steps*X*Y, steps*X*Y)
		}
	}

	var vars struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := json.Unmarshal(scrape(t, mon.URL()+"/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if len(vars.Memstats) == 0 {
		t.Fatal("/debug/vars missing memstats")
	}
	scrape(t, mon.URL()+"/debug/pprof/")
	if idx := scrape(t, mon.URL()+"/"); !strings.Contains(string(idx), "/metrics") {
		t.Fatalf("index page does not list endpoints:\n%s", idx)
	}
}

// TestSupervisedProgressMonotone is the progress-estimator acceptance test:
// a supervised run that panics mid-segment, restores its checkpoint, and
// recovers must publish a percent-complete series that never decreases —
// redone work counts again rather than rewinding the estimate — and must
// finish at exactly 100 with a bit-identical grid, the registry's point
// counter equal to the estimator's points done.
func TestSupervisedProgressMonotone(t *testing.T) {
	const X, Y, steps, seed = 48, 48, 12, 17
	opts := pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}}
	want := unfaultedHeat2D(t, opts, X, Y, steps, seed)

	reg := pochoir.NewMetrics()
	opts.Metrics = reg
	st, u, kern := heatStencil(t, opts, X, Y, seed)

	faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
		Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 5, Times: 1,
	})
	defer faultpoint.DisarmAll()

	// Sample the supervised run's published percent while it executes.
	stop := make(chan struct{})
	samplesCh := make(chan []float64, 1)
	go func() {
		var samples []float64
		for {
			for _, p := range reg.ProgressSnapshot() {
				if p.Label == "supervised" {
					samples = append(samples, p.Percent)
					break
				}
			}
			select {
			case <-stop:
				samplesCh <- samples
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	rep, err := st.RunSupervised(context.Background(), steps, kern,
		pochoir.SupervisePolicy{SegmentSteps: 4, BaseDelay: time.Microsecond})
	close(stop)
	samples := <-samplesCh
	if err != nil {
		t.Fatalf("supervised run did not recover: %v", err)
	}
	if rep.Retries < 1 || rep.Restores < 1 {
		t.Fatalf("fault not exercised: %d retries, %d restores", rep.Retries, rep.Restores)
	}
	mustMatch(t, u, steps, want)

	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatalf("percent decreased at sample %d: %v -> %v (series %v)",
				i, samples[i-1], samples[i], samples)
		}
	}

	var final *pochoir.ProgressStat
	for _, p := range reg.ProgressSnapshot() {
		if p.Label == "supervised" {
			final = &p
			break
		}
	}
	if final == nil {
		t.Fatal("no supervised run in progress snapshot")
	}
	if final.Active || !final.OK || final.Percent != 100 {
		t.Fatalf("recovered run should be finished at 100%%: %+v", *final)
	}
	if final.PointsDone < final.PointsTotal {
		t.Fatalf("points done %d < total %d after success", final.PointsDone, final.PointsTotal)
	}

	// The supervisor counters must surface on a scrape of the same registry.
	rr := httptest.NewRecorder()
	pochoir.MonitorHandler(reg).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	expo := rr.Body.Bytes()
	if err := pochoir.CheckMetricsExposition(expo); err != nil {
		t.Fatalf("post-recovery scrape invalid: %v", err)
	}
	if v := metricValue(t, expo, "pochoir_sup_retries_total"); v < 1 {
		t.Fatalf("pochoir_sup_retries_total = %v, want >= 1", v)
	}
	if v := metricValue(t, expo, "pochoir_sup_restores_total"); v < 1 {
		t.Fatalf("pochoir_sup_restores_total = %v, want >= 1", v)
	}
	if v := metricValue(t, expo, "pochoir_sup_segments_total"); v < float64(steps)/4 {
		t.Fatalf("pochoir_sup_segments_total = %v, want >= %v", v, float64(steps)/4)
	}
	if v := metricValue(t, expo, "pochoir_progress_percent"); v != 100 {
		t.Fatalf("pochoir_progress_percent = %v after recovery, want 100", v)
	}
	// The failed attempt's partial walk is folded into the registry as a
	// finished walk is, so the point counter still agrees with the
	// estimator, which counted those points as they ran.
	if v := metricValue(t, expo, "pochoir_base_points_total"); v != float64(final.PointsDone) || final.PointsDone <= final.PointsTotal {
		t.Fatalf("pochoir_base_points_total = %v, progress points done %d of %d; want equal and past the total",
			v, final.PointsDone, final.PointsTotal)
	}
}

// TestStencilsShareRunMetrics: the walker instrument set is resolved once
// per registry, not once per stencil. Every served job builds a fresh
// stencil, so a per-stencil cache re-resolved the whole set for each job.
// Without a telemetry recorder the walks keep no time, so the
// last-walk gauges stay unset.
func TestStencilsShareRunMetrics(t *testing.T) {
	reg := pochoir.NewMetrics()
	opts := pochoir.Options{Metrics: reg}
	var sets [2]*metrics.RunMetrics
	for i := range sets {
		st, _, kern := heatStencil(t, opts, 16, 16, int64(i))
		if err := st.Run(4, kern); err != nil {
			t.Fatal(err)
		}
		sets[i] = pochoir.RunMetricsOf(st)
	}
	if sets[0] == nil || sets[0] != sets[1] || sets[0] != metrics.NewRunMetrics(reg) {
		t.Fatalf("stencils on one registry hold distinct instrument sets: %p, %p", sets[0], sets[1])
	}
	if got := sets[0].RunsStarted.Value(); got != 2 {
		t.Fatalf("runs started = %d, want 2", got)
	}
	if sets[0].LastWorkers.Value() != 0 {
		t.Fatal("runs without a telemetry recorder set pochoir_last_workers")
	}
}
