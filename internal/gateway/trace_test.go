package gateway

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/metrics"
	"pochoir/internal/trace"
)

// heat2dSpec is the paper's Fig. 6 program, the kernel a serve-compute job
// runs.
const heat2dSpec = `stencil heat2d { dims: 2; param CX = 0.125; param CY = 0.125;
array u; boundary u: periodic;
kernel { u(t+1, x, y) = u(t, x, y) + CX * (u(t, x+1, y) - 2*u(t, x, y) + u(t, x-1, y))
                      + CY * (u(t, x, y+1) - 2*u(t, x, y) + u(t, x, y-1)); } }`

// checkAttemptWalks requires, under every attempt span of tr that ended ok,
// exactly one walk span whose base-span volumes sum to the walk's steps ×
// points, and returns the steps those walks cover: what a job's successful
// segments advanced.
func checkAttemptWalks(t *testing.T, tr *trace.Trace, points int64) (steps int64) {
	t.Helper()
	byID := make(map[trace.SpanID]*trace.Span, len(tr.Spans))
	for i := range tr.Spans {
		byID[tr.Spans[i].ID] = &tr.Spans[i]
	}
	walks := map[trace.SpanID][]*trace.Span{} // by attempt
	bases := map[trace.SpanID]int64{}         // volume by walk
	for i := range tr.Spans {
		s := &tr.Spans[i]
		switch s.Name {
		case "walk":
			walks[s.Parent] = append(walks[s.Parent], s)
		case "base":
			w := byID[s.Parent]
			for w != nil && w.Name != "walk" {
				w = byID[w.Parent]
			}
			if w == nil {
				t.Fatalf("base span %s hangs under no walk", s.ID)
			}
			v, _ := strconv.ParseInt(s.Attr("volume"), 10, 64)
			bases[w.ID] += v
		}
	}
	attempts := 0
	for i := range tr.Spans {
		a := &tr.Spans[i]
		if !strings.HasPrefix(a.Name, "attempt-") || a.Status != trace.StatusOK {
			continue
		}
		attempts++
		if len(walks[a.ID]) != 1 {
			t.Fatalf("%s holds %d walk spans, want 1", a.Name, len(walks[a.ID]))
		}
		w := walks[a.ID][0]
		n, _ := strconv.ParseInt(w.Attr("steps"), 10, 64)
		if w.Attr("dropped_spans") != "0" || bases[w.ID] != n*points {
			t.Errorf("%s's walk: base volumes %d (dropped %q), want %d steps × %d points",
				a.Name, bases[w.ID], w.Attr("dropped_spans"), n, points)
		}
		steps += n
	}
	if attempts == 0 {
		t.Fatal("the trace has no successful attempt span")
	}
	return steps
}

// TestServedJobTraceHoldsWalks serves a heat2d 192²×32 job, the
// serve-compute workload's, in four supervised segments, and reads its kept
// trace: under each attempt span a walk span, whose base spans cover that
// segment's steps × 192² points.
func TestServedJobTraceHoldsWalks(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 5, SampleProb: 1.01}) // keep every trace
	g := New(Config{Workers: 1, Trace: tracer, Supervise: pochoir.SupervisePolicy{SegmentSteps: 8}})
	defer g.Close()
	st, serr := g.Submit("t", Submission{Spec: heat2dSpec, Sizes: []int{192, 192}, Steps: 32, Seed: 7})
	if serr != nil {
		t.Fatal(serr)
	}
	if fin := waitDone(t, g, st.ID); fin.State != StateDone {
		t.Fatalf("job failed: %+v", fin)
	}
	id, err := trace.ParseTraceID(st.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.Get(id)
	if tr == nil {
		t.Fatal("the job's trace was not kept")
	}
	if steps := checkAttemptWalks(t, tr, 192*192); steps != 32 {
		t.Fatalf("the attempts' walks cover %d steps, want 32", steps)
	}
}

// TestCoalescedJobLinkSpans pins the cross-trace causality contract of
// coalescing: the joiner's trace must end "coalesced" carrying a link-span
// to the primary's trace, the primary's trace must carry the reverse link,
// and both must survive the tail sampler even with probabilistic sampling
// disabled — link-carrying traces are always kept.
func TestCoalescedJobLinkSpans(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 11, SampleProb: -1})
	g := New(Config{
		Workers:             1,
		QueueDepth:          8,
		Metrics:             metrics.NewRegistry(),
		Trace:               tracer,
		TenantBurst:         1000,
		TenantMaxConcurrent: 1000,
	})
	defer g.Close()

	// Hold the single worker so the primary stays queued while its
	// duplicate arrives.
	release := holdWorkers(t, 1)
	blocker, serr := g.Submit("a", blockerJob(1))
	if serr != nil {
		t.Fatal(serr)
	}
	primary, serr := g.Submit("a", sub(200, 64, 42))
	if serr != nil {
		t.Fatal(serr)
	}
	joiner, serr := g.Submit("a", sub(200, 64, 42))
	if serr != nil {
		t.Fatal(serr)
	}
	if joiner.ID != primary.ID {
		t.Fatalf("identical submission did not coalesce: %s vs %s", joiner.ID, primary.ID)
	}
	if joiner.Coalesced != 1 {
		t.Fatalf("coalesced count = %d, want 1", joiner.Coalesced)
	}
	release()
	waitDone(t, g, blocker.ID)
	if st := waitDone(t, g, primary.ID); st.State != StateDone {
		t.Fatalf("primary failed: %+v", st)
	}

	pid, err := trace.ParseTraceID(primary.TraceID)
	if err != nil {
		t.Fatalf("primary trace id %q: %v", primary.TraceID, err)
	}
	ptr := tracer.Get(pid)
	if ptr == nil {
		t.Fatalf("primary trace %s not retained", primary.TraceID)
	}
	if ptr.KeepReason != "link" {
		t.Fatalf("primary keep reason %q, want \"link\" (a fast ok trace survives only through its link)", ptr.KeepReason)
	}
	var back *trace.Span
	for i := range ptr.Spans {
		if ptr.Spans[i].Name == "coalesced-submission" {
			back = &ptr.Spans[i]
		}
	}
	if back == nil {
		t.Fatal("primary trace has no coalesced-submission link-span")
	}

	var jtr *trace.Trace
	for _, cand := range tracer.Traces() {
		if cand.Status == trace.StatusCoalesced {
			jtr = cand
			break
		}
	}
	if jtr == nil {
		t.Fatal("no coalesced trace retained for the joiner")
	}
	if back.Link != jtr.ID {
		t.Fatalf("reverse link %s != joiner trace %s", back.Link, jtr.ID)
	}
	var fwd *trace.Span
	for i := range jtr.Spans {
		if jtr.Spans[i].Name == "coalesce-join" {
			fwd = &jtr.Spans[i]
		}
	}
	if fwd == nil {
		t.Fatal("joiner trace has no coalesce-join link-span")
	}
	if fwd.Link != pid {
		t.Fatalf("forward link %s != primary trace %s", fwd.Link, pid)
	}
	if got := fwd.Attr("job"); got != primary.ID {
		t.Fatalf("coalesce-join job attr %q, want %q", got, primary.ID)
	}
	if root := jtr.Find(jtr.Root); root == nil || root.Attr("primary") != primary.ID {
		t.Fatalf("joiner root does not name the primary job %q", primary.ID)
	}
}

// TestRetryAfterFoldsQueueWait pins the Retry-After fold in both regimes:
// with no (or a fast) wait history the static hints dominate — quota sheds
// return the token refill time, queue-full sheds the configured floor —
// and once the observed median queue wait grows past them, it folds in:
// quota = refill + median, queue_full = median.
func TestRetryAfterFoldsQueueWait(t *testing.T) {
	g := New(Config{Metrics: metrics.NewRegistry(), RetryAfter: time.Second})
	defer g.Close()

	// Regime 1 — fast queue: static hints win.
	if got := g.retryHint("quota", 200*time.Millisecond); got != 200*time.Millisecond {
		t.Fatalf("quota hint with no history = %v, want the 200ms refill", got)
	}
	if got := g.retryHint("queue_full", 0); got != time.Second {
		t.Fatalf("queue_full hint with no history = %v, want the 1s floor", got)
	}
	for i := 0; i < 5; i++ {
		g.recordQueueWait(10 * time.Millisecond)
	}
	if got := g.retryHint("quota", 200*time.Millisecond); got != 210*time.Millisecond {
		t.Fatalf("quota hint = %v, want refill+median = 210ms", got)
	}
	if got := g.retryHint("queue_full", 0); got != time.Second {
		t.Fatalf("queue_full hint = %v, want the 1s floor over a 10ms median", got)
	}

	// Regime 2 — slow queue: the observed median folds in.
	for i := 0; i < 20; i++ {
		g.recordQueueWait(3 * time.Second)
	}
	if med := g.queueWaitMedian(); med != 3*time.Second {
		t.Fatalf("median = %v, want 3s", med)
	}
	if got := g.retryHint("quota", 200*time.Millisecond); got != 3200*time.Millisecond {
		t.Fatalf("quota hint = %v, want refill+median = 3.2s", got)
	}
	if got := g.retryHint("queue_full", 0); got != 3*time.Second {
		t.Fatalf("queue_full hint = %v, want the 3s median", got)
	}
	// A quota shed with no refill estimate falls back to the floor, then
	// folds the median on top.
	if got := g.retryHint("quota", 0); got != 4*time.Second {
		t.Fatalf("quota hint with zero refill = %v, want floor+median = 4s", got)
	}
}
