package gateway

// Trace smoke suite: the end-to-end acceptance scenario of causal job
// tracing, exercised over real HTTP under the race detector via
// `make trace-smoke`:
//
//   - a faulted, retried, deadline-bounded job submitted with a caller
//     traceparent yields ONE retrievable trace showing the admission
//     decision, the compile, the queue wait, and every supervised segment
//     attempt with its retry cause and spill markers — and the trace
//     survives tail sampling by construction (retried-but-recovered jobs
//     are fast ok traces; the smoke proves the exemplar path keeps them
//     reachable while live and the sampler's keep rules take over on
//     error);
//   - the latency exemplars in /metrics resolve to live /tracez entries;
//   - unknown trace IDs answer 404, never an empty 200;
//   - /statusz's last_incident names the incident's trace and links it;
//   - the SLO engine reports a fast-burn breach during a fault window and
//     recovers after it.
//
// When POCHOIR_TRACE_SMOKE_OUT is set, the trace JSON and its rendered
// waterfall are written there as CI artifacts.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
	"pochoir/internal/metrics"
	"pochoir/internal/trace"
)

// postJobTraced is postJob plus a caller traceparent header.
func postJobTraced(t *testing.T, base, tenant, traceparent string, s Submission) (*JobStatus, int, http.Header) {
	t.Helper()
	body, _ := json.Marshal(s)
	req, err := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode 202 body: %v", err)
	}
	return &st, resp.StatusCode, resp.Header
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data
}

func TestTraceSmoke(t *testing.T) {
	// SampleProb -1 disables probabilistic keeps: the faulted job's trace
	// must survive through the tail sampler's slow-outlier rule, not luck.
	// MinTailSamples is lowered so a short warm-up burst arms that rule.
	// The clock is real time plus an offset that grows once, by bump, on
	// the first reading after bump is set: the faulted job's root start
	// (see below), which makes its trace outlast every warm-up by
	// construction, however fast or slow the box runs either.
	var offset, bump atomic.Int64
	epoch := time.Now()
	clock := func() int64 {
		now := int64(time.Since(epoch)) + offset.Load()
		if b := bump.Swap(0); b > 0 {
			offset.Add(b)
		}
		return now
	}
	tracer := trace.New(trace.Config{Seed: 99, SampleProb: -1, MinTailSamples: 4, TailWindow: 64, Clock: clock})
	reg := metrics.NewRegistry()
	g := New(Config{
		Workers:             1,
		QueueDepth:          32,
		Metrics:             reg,
		Trace:               tracer,
		SpillDir:            t.TempDir(),
		TenantBurst:         1000,
		TenantMaxConcurrent: 1000,
		Supervise:           pochoir.SupervisePolicy{SegmentSteps: 32},
		// Compressed SLO windows so the burn-rate engine breaches and
		// recovers within the smoke's real-time budget.
		SLO: metrics.SLOConfig{
			FastWindows: [2]time.Duration{200 * time.Millisecond, time.Second},
			SlowWindow:  2 * time.Second,
			Interval:    20 * time.Millisecond,
		},
	})
	srv, err := Serve("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	// Warm-up: fast successes feed the sampler's duration ring, so the
	// slow faulted job below registers as a p99 tail outlier.
	const warmups = 8
	for i := 0; i < warmups; i++ {
		st, _, _ := postJobTraced(t, base, "smoke", "", sub(8, 16, int64(100+i)))
		if fin := waitJob(t, base, st.ID); fin.State != StateDone {
			t.Fatalf("warm-up job failed: %+v", fin)
		}
	}
	// A job is done before its trace ends; once every warm-up's has, no
	// trace is open, the tail threshold is the slowest warm-up, and the
	// next clock reading is the faulted job's root start.
	for deadline := time.Now().Add(10 * time.Second); tracer.Stats().Dropped+tracer.Stats().Kept < warmups; {
		if time.Now().After(deadline) {
			t.Fatalf("warm-up traces never ended: %+v", tracer.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	bump.Store(tracer.Stats().TailNS + 1)

	// Phase 1 — the faulted, retried, deadline-bounded job. The caller
	// supplies a W3C traceparent; the injected one-shot worker panic forces
	// attempt-1 of a segment to fail and the supervisor to restore + retry.
	const callerTrace = "0af7651916cd43dd8448eb211c80319c"
	if err := faultpoint.ArmFromSpec("walker/base=panic:after=0,times=1"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()
	job := sub(96, 128, 4242)
	job.DeadlineMS = 20000
	st, _, hdr := postJobTraced(t, base, "smoke", "00-"+callerTrace+"-b7ad6b7169203331-01", job)
	if st.TraceID != callerTrace {
		t.Fatalf("job did not adopt the caller's trace ID: %q", st.TraceID)
	}
	if tp := hdr.Get("traceparent"); !strings.HasPrefix(tp, "00-"+callerTrace+"-") {
		t.Fatalf("response traceparent %q does not continue the caller's trace", tp)
	}
	fin := waitJob(t, base, st.ID)
	if fin.State != StateDone {
		t.Fatalf("faulted job did not recover: %+v", fin)
	}
	if fin.Retries < 1 {
		t.Fatalf("injected fault forced no retry: %+v", fin)
	}

	// The trace is retrievable by its ID and shows the whole causal story.
	code, raw := httpGet(t, base+"/tracez/"+callerTrace+".json")
	if code != 200 {
		t.Fatalf("GET /tracez/%s.json: %d", callerTrace, code)
	}
	tr, err := trace.ParseExport(raw)
	if err != nil {
		t.Fatalf("trace export: %v", err)
	}
	names := map[string]int{}
	var failedAttempt *trace.Span
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		names[sp.Name]++
		if strings.HasPrefix(sp.Name, "attempt-") && sp.Status == trace.StatusError {
			failedAttempt = sp
		}
	}
	for _, want := range []string{"job", "admission", "compile", "queue-wait",
		"supervised-run", "segment-0", "attempt-1", "attempt-2", "spill", "restore"} {
		if names[want] == 0 {
			t.Errorf("trace is missing a %q span (got %v)", want, names)
		}
	}
	if failedAttempt == nil {
		t.Fatal("no failed attempt span despite the injected panic")
	}
	if cause := failedAttempt.Attr("cause"); !strings.Contains(cause, "panic") {
		t.Errorf("failed attempt cause %q does not name the panic", cause)
	}
	if compile := findSpan(tr, "compile"); compile.Attr("tokens") == "" {
		t.Error("compile span carries no tokens attr")
	}
	// Each successful attempt holds its walk, whose base spans cover the
	// segment's steps × 128 points; together they cover the job's steps.
	if steps := checkAttemptWalks(t, tr, 128); steps != int64(job.Steps) {
		t.Errorf("the successful attempts' walks cover %d steps, want %d", steps, job.Steps)
	}

	// The ASCII waterfall renders, and an unknown ID is a 404 — never an
	// empty 200.
	code, wf := httpGet(t, base+"/tracez/"+callerTrace)
	if code != 200 || !bytes.Contains(wf, []byte("attempt-2")) {
		t.Fatalf("waterfall render: %d (%d bytes)", code, len(wf))
	}
	if code, _ := httpGet(t, base+"/tracez/ffffffffffffffffffffffffffffffff"); code != 404 {
		t.Fatalf("unknown trace ID answered %d, want 404", code)
	}
	if dir := os.Getenv("POCHOIR_TRACE_SMOKE_OUT"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "trace-"+callerTrace+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "waterfall.txt"), wf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2 — exemplars: the latency histogram's exposition carries a
	// trace ID that resolves at /tracez.
	_, expo := httpGet(t, base+"/metrics")
	if err := metrics.CheckExposition(expo); err != nil {
		t.Fatalf("/metrics exposition: %v", err)
	}
	exRe := regexp.MustCompile(`pochoir_gateway_job_latency_ms_bucket.*# \{trace_id="([0-9a-f]{32})"\}`)
	ms := exRe.FindAllSubmatch(expo, -1)
	if len(ms) == 0 {
		t.Fatal("no exemplar on the job latency histogram")
	}
	// Warm-up exemplars may name tail-dropped traces; the faulted job's
	// bucket exemplar must name its retained trace and resolve live.
	resolved := 0
	sawFaulted := false
	for _, m := range ms {
		id := string(m[1])
		if code, _ := httpGet(t, base+"/tracez/"+id+".json"); code == 200 {
			resolved++
			sawFaulted = sawFaulted || id == callerTrace
		}
	}
	if resolved == 0 {
		t.Fatal("no latency exemplar resolves at /tracez")
	}
	if !sawFaulted {
		t.Errorf("no bucket exemplar names the faulted job's trace %s", callerTrace)
	}
	if !bytes.Contains(expo, []byte("pochoir_gateway_queue_wait_ms_bucket")) {
		t.Error("exposition missing the per-priority queue-wait histogram")
	}

	// Phase 3 — SLO burn: a burst of deadline-doomed jobs must drive the
	// job-success objective into a fast-burn breach...
	for i := 0; i < 12; i++ {
		// 6.4M updates against a 1 ms deadline: doomed at any executor
		// speed, and cancelled at the deadline, so no slower to fail.
		job := sub(50000, 128, int64(9000+i))
		job.DeadlineMS = 1
		st, _, _ := postJobTraced(t, base, "smoke", "", job)
		if fin := waitJob(t, base, st.ID); fin.State != StateFailed {
			t.Fatalf("deadline-doomed job %d finished: %+v", i, fin)
		}
	}
	waitSeverity(t, base, "job-success", "fast-burn", 5*time.Second)
	_, expo = httpGet(t, base+"/metrics")
	if !exemplarBreachRecorded(expo) {
		t.Error("no pochoir_slo_breaches_total increment after the fault window")
	}

	// ... and /statusz's last_incident must name the incident's trace.
	var status struct {
		LastIncident *struct {
			TraceID  string `json:"trace_id"`
			TraceURL string `json:"trace_url"`
		} `json:"last_incident"`
	}
	_, statusRaw := httpGet(t, base+"/statusz")
	if err := json.Unmarshal(statusRaw, &status); err != nil {
		t.Fatalf("statusz: %v", err)
	}
	if status.LastIncident == nil || status.LastIncident.TraceID == "" {
		t.Fatal("statusz last_incident carries no trace ID")
	}
	if want := "/tracez/" + status.LastIncident.TraceID; status.LastIncident.TraceURL != want {
		t.Fatalf("last_incident trace_url %q, want %q", status.LastIncident.TraceURL, want)
	}
	if code, _ := httpGet(t, base+status.LastIncident.TraceURL+".json"); code != 200 {
		t.Fatal("last_incident trace does not resolve at /tracez")
	}

	// Recovery: good traffic + the fault window aging out of every SLO
	// window returns the objective to healthy.
	for i := 0; i < 4; i++ {
		st, _, _ := postJobTraced(t, base, "smoke", "", sub(16, 32, int64(9900+i)))
		if fin := waitJob(t, base, st.ID); fin.State != StateDone {
			t.Fatalf("recovery job failed: %+v", fin)
		}
	}
	waitSeverity(t, base, "job-success", "healthy", 10*time.Second)
}

// findSpan returns the first span with the given name (zero Span if none).
func findSpan(tr *trace.Trace, name string) *trace.Span {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return &trace.Span{}
}

// waitSeverity polls /slo until the named objective reaches the wanted
// severity or the deadline passes.
func waitSeverity(t *testing.T, base, objective, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	last := ""
	for time.Now().Before(deadline) {
		var view struct {
			Objectives []metrics.SLOStatus `json:"objectives"`
		}
		_, raw := httpGet(t, base+"/slo")
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatalf("/slo: %v", err)
		}
		for _, o := range view.Objectives {
			if o.Name == objective {
				last = o.Severity
			}
		}
		if last == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("objective %s never reached %q (last %q)", objective, want, last)
}

// exemplarBreachRecorded reports whether the breach counter is nonzero.
func exemplarBreachRecorded(expo []byte) bool {
	for _, line := range strings.Split(string(expo), "\n") {
		if strings.HasPrefix(line, "pochoir_slo_breaches_total") {
			var v float64
			if _, err := fmt.Sscanf(line[len("pochoir_slo_breaches_total"):], "%f", &v); err == nil && v > 0 {
				return true
			}
		}
	}
	return false
}
