package gateway

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pochoir/internal/faultpoint"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/trace"
)

// testSpec is a small 1D periodic heat kernel; cheap enough to run many
// times under -race, real enough to exercise the full compile-run path.
const testSpec = `stencil heat { dims: 1; array u; boundary u: periodic;
kernel { u(t+1,x) = 0.25*u(t,x-1) + 0.5*u(t,x) + 0.25*u(t,x+1); } }`

// sub builds a Submission; seed differentiates otherwise-identical jobs so
// tests opt in to coalescing explicitly.
func sub(steps, size int, seed int64) Submission {
	return Submission{Spec: testSpec, Sizes: []int{size}, Steps: steps, Seed: seed}
}

// holdWorkers arms a gated faultpoint that stops the next n base cases, so
// the n jobs that reach them first stay "running" until release is called
// (test cleanup calls it too). Tests that need a busy pool hold a small job
// this way; a job sized to be slow stops being slow when the executor gets
// faster.
func holdWorkers(t *testing.T, n int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
		Kind: faultpoint.KindSleep, Depth: faultpoint.AnyDepth, Gate: gate, Times: n})
	t.Cleanup(func() {
		release()
		faultpoint.DisarmAll()
	})
	return release
}

// blockerJob is one base case of work: exactly one gated visit under
// holdWorkers.
func blockerJob(seed int64) Submission { return sub(8, 64, seed) }

// waitDone blocks until job id is terminal.
func waitDone(t *testing.T, g *Gateway, id string) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := g.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

// TestGatewayRunsAJob: the basic contract — a valid submission is admitted,
// runs supervised, reaches "done" with a checksum, and the same submission
// on a fresh gateway produces the identical checksum (deterministic init).
func TestGatewayRunsAJob(t *testing.T) {
	var sums []string
	for i := 0; i < 2; i++ {
		g := New(Config{Workers: 1})
		st, serr := g.Submit("alice", sub(64, 128, 7))
		if serr != nil {
			t.Fatalf("submit: %v", serr)
		}
		if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
			t.Fatalf("unexpected state %q", st.State)
		}
		fin := waitDone(t, g, st.ID)
		if fin.State != StateDone || fin.Checksum == "" {
			t.Fatalf("job did not finish cleanly: %+v", fin)
		}
		sums = append(sums, fin.Checksum)
		g.Close()
	}
	if sums[0] != sums[1] {
		t.Fatalf("same submission, different checksums: %s vs %s", sums[0], sums[1])
	}
}

// TestGatewayValidation: malformed specs, bad steps/sizes, and over-limit
// grids are refused with the right HTTP code before any work is queued.
func TestGatewayValidation(t *testing.T) {
	g := New(Config{Workers: 1, MaxGridPoints: 1024, MaxSteps: 100})
	defer g.Close()
	for _, tc := range []struct {
		name string
		s    Submission
		code int
	}{
		{"bad spec", Submission{Spec: "stencil {", Sizes: []int{8}, Steps: 1}, 400},
		{"zero steps", sub(0, 8, 0), 400},
		{"too many steps", sub(101, 8, 0), 400},
		{"wrong dims", Submission{Spec: testSpec, Sizes: []int{8, 8}, Steps: 1}, 400},
		{"non-positive extent", Submission{Spec: testSpec, Sizes: []int{0}, Steps: 1}, 400},
		{"grid too large", sub(1, 2048, 0), 413},
		{"spec over limit", Submission{Spec: testSpec + strings.Repeat("# pad\n", 40000), Sizes: []int{8}, Steps: 1}, 413},
	} {
		_, serr := g.Submit("t", tc.s)
		if serr == nil || serr.Code != tc.code {
			t.Errorf("%s: got %+v, want code %d", tc.name, serr, tc.code)
		}
	}
	if n := len(g.JobList()); n != 0 {
		t.Fatalf("invalid submissions created %d jobs", n)
	}
}

// TestGatewayQueueFullSheds: with the pool busy and the queue full, further
// submissions shed with 429 "queue_full" — bounded buffering, never growth.
func TestGatewayQueueFullSheds(t *testing.T) {
	g := New(Config{Workers: 1, QueueDepth: 2, TenantBurst: 1000, TenantMaxConcurrent: 100})
	defer g.Close()

	// A held blocker occupies the single worker; two more fill the queue.
	release := holdWorkers(t, 1)
	blocker, serr := g.Submit("t", blockerJob(1))
	if serr != nil {
		t.Fatalf("blocker: %v", serr)
	}
	admitted := []string{blocker.ID}
	var shed int
	for i := 0; i < 8; i++ {
		st, serr := g.Submit("t", sub(16, 64, int64(100+i)))
		if serr != nil {
			if serr.Code != 429 || serr.Reason != "queue_full" {
				t.Fatalf("wrong shed: %+v", serr)
			}
			if serr.RetryAfter <= 0 {
				t.Fatalf("queue_full shed carried no Retry-After hint")
			}
			shed++
			continue
		}
		admitted = append(admitted, st.ID)
	}
	release()
	if shed < 8-2-1 {
		t.Fatalf("burst of 8 past a held worker and a 2-deep queue shed only %d (admitted %d)", shed, len(admitted))
	}
	// Zero accepted-job losses: every admitted job still reaches "done".
	for _, id := range admitted {
		if fin := waitDone(t, g, id); fin.State != StateDone {
			t.Fatalf("admitted job %s lost: %+v", id, fin)
		}
	}
}

// TestGatewayTenantQuota: a tenant that exhausts its token bucket is shed
// with "quota" and a positive Retry-After; other tenants are unaffected.
func TestGatewayTenantQuota(t *testing.T) {
	g := New(Config{Workers: 2, QueueDepth: 32, TenantRate: 0.001, TenantBurst: 2})
	defer g.Close()
	for i := 0; i < 2; i++ {
		if _, serr := g.Submit("noisy", sub(4, 16, int64(i))); serr != nil {
			t.Fatalf("submission %d inside burst: %v", i, serr)
		}
	}
	_, serr := g.Submit("noisy", sub(4, 16, 99))
	if serr == nil || serr.Code != 429 || serr.Reason != "quota" || serr.RetryAfter <= 0 {
		t.Fatalf("exhausted bucket not shed with quota+Retry-After: %+v", serr)
	}
	if _, serr := g.Submit("quiet", sub(4, 16, 0)); serr != nil {
		t.Fatalf("other tenant caught in noisy tenant's quota: %v", serr)
	}
}

// TestGatewayTenantConcurrency: the per-tenant cap on unfinished jobs sheds
// with "concurrency" while a job is in flight and readmits after it ends.
func TestGatewayTenantConcurrency(t *testing.T) {
	g := New(Config{Workers: 1, QueueDepth: 8, TenantMaxConcurrent: 1, TenantBurst: 1000})
	defer g.Close()
	release := holdWorkers(t, 1)
	st, serr := g.Submit("t", blockerJob(1))
	if serr != nil {
		t.Fatalf("first job: %v", serr)
	}
	_, serr = g.Submit("t", sub(4, 16, 2))
	if serr == nil || serr.Reason != "concurrency" {
		t.Fatalf("second in-flight job not shed: %+v", serr)
	}
	release()
	waitDone(t, g, st.ID)
	if _, serr = g.Submit("t", sub(4, 16, 3)); serr != nil {
		t.Fatalf("slot not released after completion: %v", serr)
	}
}

// TestGatewayCoalesce: an identical spec+grid+steps+seed submission joins
// the in-flight job — same job id, one execution, coalesce counter bumped —
// while a different seed stays a separate job.
func TestGatewayCoalesce(t *testing.T) {
	reg := metrics.NewRegistry()
	g := New(Config{Workers: 1, QueueDepth: 8, Metrics: reg, TenantBurst: 1000})
	defer g.Close()

	release := holdWorkers(t, 1)
	blocker, serr := g.Submit("t", blockerJob(1))
	if serr != nil {
		t.Fatalf("blocker: %v", serr)
	}
	first, serr := g.Submit("t", sub(32, 64, 42))
	if serr != nil {
		t.Fatalf("first: %v", serr)
	}
	same, serr := g.Submit("t", sub(32, 64, 42))
	if serr != nil {
		t.Fatalf("identical submission shed instead of coalesced: %v", serr)
	}
	if same.ID != first.ID {
		t.Fatalf("identical submission got its own job: %s vs %s", same.ID, first.ID)
	}
	if same.Coalesced != 1 {
		t.Fatalf("coalesce count = %d, want 1", same.Coalesced)
	}
	other, serr := g.Submit("t", sub(32, 64, 43))
	if serr != nil {
		t.Fatalf("different seed: %v", serr)
	}
	if other.ID == first.ID {
		t.Fatal("different seed coalesced onto a different computation")
	}
	if n := len(g.JobList()); n != 3 {
		t.Fatalf("expected 3 distinct jobs, have %d", n)
	}
	release()
	waitDone(t, g, blocker.ID)
	waitDone(t, g, first.ID)
	// After the job finishes it must NOT coalesce: a rerun is a new job.
	rerun, serr := g.Submit("t", sub(32, 64, 42))
	if serr != nil {
		t.Fatalf("rerun: %v", serr)
	}
	if rerun.ID == first.ID {
		t.Fatal("finished job still coalescing")
	}
}

// TestGatewayDeadline: a job whose deadline cannot be met fails with a
// deadline outcome instead of running forever.
func TestGatewayDeadline(t *testing.T) {
	g := New(Config{Workers: 1, TenantBurst: 1000})
	defer g.Close()
	st, serr := g.Submit("t", Submission{Spec: testSpec, Sizes: []int{1024}, Steps: 50000, DeadlineMS: 20})
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	fin := waitDone(t, g, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("1s of work beat a 20ms deadline: %+v", fin)
	}
	if !strings.Contains(fin.Error, "deadline") && !strings.Contains(fin.Error, "context") {
		t.Fatalf("failure does not name the deadline: %q", fin.Error)
	}
}

// TestGatewayPriority: with the pool busy, a high-priority job admitted
// after a low-priority one still runs first.
func TestGatewayPriority(t *testing.T) {
	g := New(Config{Workers: 1, QueueDepth: 8, TenantBurst: 1000})
	defer g.Close()
	release := holdWorkers(t, 1)
	blocker, _ := g.Submit("t", blockerJob(1))
	low, serr := g.Submit("t", Submission{Spec: testSpec, Sizes: []int{64}, Steps: 16, Priority: "low", Seed: 2})
	if serr != nil {
		t.Fatalf("low: %v", serr)
	}
	high, serr := g.Submit("t", Submission{Spec: testSpec, Sizes: []int{64}, Steps: 16, Priority: "high", Seed: 3})
	if serr != nil {
		t.Fatalf("high: %v", serr)
	}
	release()
	waitDone(t, g, blocker.ID)
	waitDone(t, g, low.ID)
	waitDone(t, g, high.ID)
	g.mu.Lock()
	lo, hi := g.jobs[low.ID], g.jobs[high.ID]
	g.mu.Unlock()
	if !hi.startedAt.Before(lo.startedAt) {
		t.Fatalf("high priority started %v, low %v — wrong order", hi.startedAt, lo.startedAt)
	}
}

// TestGatewayWorkerBound: a burst far wider than the pool never pushes
// concurrent executions past Config.Workers.
func TestGatewayWorkerBound(t *testing.T) {
	g := New(Config{Workers: 2, QueueDepth: 32, TenantBurst: 1000})
	defer g.Close()
	var ids []string
	for i := 0; i < 12; i++ {
		st, serr := g.Submit("t", sub(64, 128, int64(i)))
		if serr != nil {
			t.Fatalf("submit %d: %v", i, serr)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitDone(t, g, id)
	}
	if mr := g.MaxRunning(); mr > 2 {
		t.Fatalf("worker bound violated: %d concurrent jobs on a 2-worker pool", mr)
	}
}

// TestGatewayDrain: Drain stops admission (503 draining), completes every
// admitted job, and reports them in the summary.
func TestGatewayDrain(t *testing.T) {
	fr := flight.New(512)
	g := New(Config{Workers: 2, QueueDepth: 32, TenantBurst: 1000, Flight: fr})
	var ids []string
	for i := 0; i < 6; i++ {
		st, serr := g.Submit("t", sub(64, 128, int64(i)))
		if serr != nil {
			t.Fatalf("submit %d: %v", i, serr)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sum := g.Drain(ctx)
	if sum.TimedOut || sum.Completed != 6 || sum.Failed != 0 {
		t.Fatalf("drain summary %+v, want 6 completed", sum)
	}
	for _, id := range ids {
		if st := g.Job(id); st.State != StateDone {
			t.Fatalf("drain left job %s in state %q", id, st.State)
		}
	}
	if _, serr := g.Submit("t", sub(4, 16, 99)); serr == nil || serr.Code != 503 || serr.Reason != "draining" {
		t.Fatalf("post-drain submission not refused with 503: %+v", serr)
	}
	// The black box carries the lifecycle: drain-begin and drain-end events.
	var beg, end bool
	for _, ev := range fr.Snapshot() {
		if ev.Kind == flight.EvJob && ev.A0 == flight.JobDrainBeg {
			beg = true
		}
		if ev.Kind == flight.EvJob && ev.A0 == flight.JobDrainEnd {
			end = true
		}
	}
	if !beg || !end {
		t.Fatalf("flight recorder missing drain events (begin=%v end=%v)", beg, end)
	}
}

// TestGatewayDrainLeaksNoGoroutines: a gateway that served jobs — one of
// them killed by a deadline it could not meet mid-walk — and was drained and
// closed leaves no goroutine behind: not a worker, not the SLO engine, not a
// walker task or cancellation watcher of the cancelled run.
func TestGatewayDrainLeaksNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	g := New(Config{Workers: 2, QueueDepth: 32, TenantBurst: 1000,
		Metrics: metrics.NewRegistry(), Trace: trace.New(trace.Config{Seed: 3})})
	for i := 0; i < 4; i++ {
		if _, serr := g.Submit("t", sub(64, 128, int64(i))); serr != nil {
			t.Fatalf("submit %d: %v", i, serr)
		}
	}
	if _, serr := g.Submit("t", Submission{Spec: testSpec, Sizes: []int{1024}, Steps: 50000, DeadlineMS: 20, Seed: 99}); serr != nil {
		t.Fatalf("submit the late job: %v", serr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if sum := g.Drain(ctx); sum.TimedOut || sum.Completed != 4 || sum.Failed != 1 {
		t.Fatalf("drain summary %+v, want 4 completed and the late job failed", sum)
	}
	g.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after drain and close, %d before:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestGatewayMetrics: the gateway's instrument set lands in the shared
// registry and the exposition stays parseable.
func TestGatewayMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	g := New(Config{Workers: 1, QueueDepth: 1, Metrics: reg, TenantBurst: 1000, TenantMaxConcurrent: 100})
	defer g.Close()
	release := holdWorkers(t, 1)
	blocker, _ := g.Submit("alice", blockerJob(1))
	g.Submit("alice", sub(8, 32, 2)) // queued, or running once the blocker is
	for i := 0; i < 6; i++ {
		g.Submit("alice", sub(8, 32, int64(10+i))) // all but one shed
	}
	release()
	waitDone(t, g, blocker.ID)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	data := buf.Bytes()
	if err := metrics.CheckExposition(data); err != nil {
		t.Fatalf("exposition: %v\n%s", err, data)
	}
	for _, want := range []string{
		`pochoir_gateway_jobs_submitted_total{tenant="alice"}`,
		`pochoir_gateway_jobs_shed_total{reason="queue_full"}`,
		"pochoir_gateway_jobs_admitted_total",
		"pochoir_gateway_queue_depth",
		"pochoir_gateway_jobs_running",
		"pochoir_gateway_job_latency_ms",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestGatewayDropsFinishedInstances: once a job's outcome is recorded the
// job table keeps its status, not its grids — done or failed.
func TestGatewayDropsFinishedInstances(t *testing.T) {
	g := New(Config{Workers: 2, QueueDepth: 32, TenantBurst: 1000, TenantMaxConcurrent: 1000})
	defer g.Close()
	var ids []string
	for i := 0; i < 12; i++ {
		st, serr := g.Submit("t", sub(16, 256, int64(i)))
		if serr != nil {
			t.Fatalf("submit %d: %v", i, serr)
		}
		ids = append(ids, st.ID)
	}
	late, serr := g.Submit("t", Submission{Spec: testSpec, Sizes: []int{1024}, Steps: 50000, DeadlineMS: 1, Seed: 99})
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	for _, id := range ids {
		if fin := waitDone(t, g, id); fin.State != StateDone || fin.Checksum == "" {
			t.Fatalf("job %s: %+v", id, fin)
		}
	}
	if fin := waitDone(t, g, late.ID); fin.State != StateFailed {
		t.Fatalf("a 1ms deadline was met: %+v", fin)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, j := range g.jobs {
		j.mu.Lock()
		held := j.inst != nil
		j.mu.Unlock()
		if held {
			t.Errorf("finished job %s still holds its Instance", id)
		}
	}
}
