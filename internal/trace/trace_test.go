package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"pochoir/internal/telemetry"
)

// fakeClock is a manually-advanced span clock.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) advance(d int64) {
	c.mu.Lock()
	c.ns += d
	c.mu.Unlock()
}

func newTestTracer(t *testing.T, cfg Config) (*Tracer, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	cfg.Clock = clk.now
	return New(cfg), clk
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr, _ := newTestTracer(t, Config{})
	a := tr.StartTrace("job", Context{})
	hdr := a.Context().Traceparent()
	ctx, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if ctx.TraceID != a.TraceID() || ctx.SpanID != a.Root() {
		t.Fatalf("round trip mismatch: %q -> %+v", hdr, ctx)
	}
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("malformed traceparent %q", hdr)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"00-xyz-abc-01",
		"00-0123456789abcdef-0123456789abcdef-01",                               // 16-digit trace id
		"00-" + strings.Repeat("0", 32) + "-0123456789abcdef-01",                // zero trace id
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		"ff-" + strings.Repeat("a", 32) + "-0123456789abcdef-01",                // forbidden version
		"00-" + strings.Repeat("a", 32) + "-0123456789abcdef",                   // missing flags
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q): want error", bad)
		}
	}
	if ctx, err := ParseTraceparent(""); err != nil || !ctx.IsZero() {
		t.Errorf("empty traceparent: got %+v, %v; want zero, nil", ctx, err)
	}
}

// TestCallerTraceIDAdopted checks a caller-supplied traceparent pins the
// trace ID and parents the root span on the remote span.
func TestCallerTraceIDAdopted(t *testing.T) {
	tr, _ := newTestTracer(t, Config{})
	ctx, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	a := tr.StartTrace("job", ctx)
	if a.TraceID().String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace did not adopt caller id: %s", a.TraceID())
	}
	a.End(StatusError)
	got := tr.Get(a.TraceID())
	if got == nil {
		t.Fatal("error trace not retained")
	}
	if got.Spans[0].Parent.String() != "00f067aa0ba902b7" {
		t.Fatalf("root span parent = %s, want caller span", got.Spans[0].Parent)
	}
}

// TestTailSamplerDeterminism pins the keep/drop sequence under a seeded
// RNG: the same seed must make identical decisions run over run, and the
// keep rate must approximate SampleProb.
func TestTailSamplerDeterminism(t *testing.T) {
	decide := func(seed int64) []bool {
		tr, _ := newTestTracer(t, Config{Seed: seed, SampleProb: 0.1, Capacity: 4096})
		out := make([]bool, 400)
		for i := range out {
			a := tr.StartTrace("job", Context{})
			out[i] = a.End(StatusOK)
		}
		return out
	}
	a, b := decide(7), decide(7)
	kept := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds", i)
		}
		if a[i] {
			kept++
		}
	}
	if kept == 0 || kept > len(a)/2 {
		t.Fatalf("keep rate %d/%d implausible for SampleProb=0.1", kept, len(a))
	}
	c := decide(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical decision sequences")
	}
}

// TestTailSamplerKeepRules checks the 100%-keep classes: abnormal status,
// link-bearing traces, and slow-tail outliers.
func TestTailSamplerKeepRules(t *testing.T) {
	tr, clk := newTestTracer(t, Config{
		SampleProb: -1, MinTailSamples: 8, TailWindow: 64, Capacity: 1024,
	})

	// Seed the duration window with one dominant 100ms sample so the p99
	// threshold sits far above the 1ms "fast" population below (a window
	// of identical durations would flag every member as its own tail).
	seed := tr.StartTrace("job", Context{})
	clk.advance(100_000_000)
	if seed.End(StatusOK) {
		t.Fatal("warmup trace kept before MinTailSamples with sampling disabled")
	}

	for _, status := range []string{StatusError, StatusShed, StatusDeadline} {
		a := tr.StartTrace("job", Context{})
		if !a.End(status) {
			t.Fatalf("status %q trace dropped; must be kept", status)
		}
		if tr.Get(a.TraceID()).KeepReason != "status" {
			t.Fatalf("status %q keep reason = %q", status, tr.Get(a.TraceID()).KeepReason)
		}
	}

	other := tr.newTraceID()
	a := tr.StartTrace("job", Context{})
	a.LinkSpan("coalesce-join", SpanID{}, other)
	if !a.End(StatusOK) {
		t.Fatal("link-bearing trace dropped; must be kept")
	}
	if got := tr.Get(a.TraceID()); got.KeepReason != "link" || got.Spans[1].Link != other {
		t.Fatalf("link trace: reason=%q link=%v", got.KeepReason, got.Spans[1].Link)
	}

	// Warm the duration window with fast traces, then a slow outlier.
	for i := 0; i < 32; i++ {
		f := tr.StartTrace("job", Context{})
		clk.advance(1_000_000) // 1ms
		if f.End(StatusOK) {
			t.Fatalf("fast ok trace %d kept with sampling disabled", i)
		}
	}
	slow := tr.StartTrace("job", Context{})
	clk.advance(500_000_000) // 500ms: beyond even the 100ms seed
	if !slow.End(StatusOK) {
		t.Fatal("tail outlier dropped; must be kept")
	}
	if tr.Get(slow.TraceID()).KeepReason != "tail" {
		t.Fatalf("tail keep reason = %q", tr.Get(slow.TraceID()).KeepReason)
	}
}

// sortedTail is the tail threshold computed the way the sampler did before
// it kept a sorted shadow: copy the ring's live durations and sort them.
func sortedTail(durs []int64, durN int, cfg Config) int64 {
	if durN < cfg.MinTailSamples {
		return 0
	}
	tmp := append([]int64(nil), durs[:durN]...)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(float64(durN) * cfg.TailQuantile)
	if idx >= durN {
		idx = durN - 1
	}
	return tmp[idx]
}

// TestTailThresholdMatchesSort drives decide with random duration sequences
// — few distinct values, so duplicates abound, and long enough to wrap the
// ring several times — and holds every keep/drop decision, its reason and
// Stats().TailNS to a model that judges each job against the copied and
// sorted window before recording it.
func TestTailThresholdMatchesSort(t *testing.T) {
	statuses := []string{StatusOK, StatusOK, StatusOK, StatusOK, StatusError}
	for _, window := range []int{1, 64, 512} {
		for _, minSamples := range []int{1, window / 2, window, window + 1} {
			if minSamples < 1 {
				continue
			}
			for _, distinct := range []int64{3, 1000} {
				cfg := Config{TailWindow: window, MinTailSamples: minSamples, SampleProb: 0.05, Seed: int64(window + minSamples)}
				tr := New(cfg)
				cfg = tr.cfg
				rng := rand.New(rand.NewSource(int64(window)*7919 + int64(minSamples)*31 + distinct))
				ring := make([]int64, window)
				idx, n := 0, 0
				refRNG := uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15
				for i := 0; i < 4*window+200; i++ {
					dur := rng.Int63n(distinct) * 1000
					status := statuses[rng.Intn(len(statuses))]
					link := rng.Intn(50) == 0

					tail := sortedTail(ring, n, cfg)
					if got := tr.Stats().TailNS; got != tail {
						t.Fatalf("window %d min %d step %d: TailNS %d, sorted window says %d", window, minSamples, i, got, tail)
					}
					ring[idx] = dur
					idx = (idx + 1) % window
					n = min(n+1, window)
					wantKeep, wantReason := false, ""
					switch {
					case status != StatusOK:
						wantKeep, wantReason = true, "status"
					case link:
						wantKeep, wantReason = true, "link"
					case tail > 0 && dur >= tail:
						wantKeep, wantReason = true, "tail"
					default:
						refRNG = splitmix64(refRNG)
						if float64(refRNG>>11)/float64(1<<53) < cfg.SampleProb {
							wantKeep, wantReason = true, "sampled"
						}
					}
					keep, reason := tr.decide(status, dur, link)
					if keep != wantKeep || reason != wantReason {
						t.Fatalf("window %d min %d step %d (dur %d, tail %d): decide = %v %q, want %v %q",
							window, minSamples, i, dur, tail, keep, reason, wantKeep, wantReason)
					}
				}
				if got, want := tr.Stats().TailNS, sortedTail(ring, n, cfg); got != want {
					t.Fatalf("window %d min %d: final TailNS %d, want %d", window, minSamples, got, want)
				}
			}
		}
	}
}

// TestConcurrentSpanRecording hammers one tracer from 8 goroutines — some
// sharing one trace, some with their own — under the race detector.
func TestConcurrentSpanRecording(t *testing.T) {
	tr := New(Config{Seed: 1, SampleProb: 1.01, Capacity: 4096})
	shared := tr.StartTrace("shared", Context{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := shared.StartSpan(fmt.Sprintf("g%d-op%d", g, i), SpanID{})
				shared.Mark("mark", sp, StatusOK)
				shared.EndSpan(sp, StatusOK)

				own := tr.StartTrace(fmt.Sprintf("own-g%d-%d", g, i), Context{})
				s2 := own.StartSpan("child", SpanID{})
				own.EndSpan(s2, StatusOK)
				own.End(StatusOK)
			}
		}(g)
	}
	wg.Wait()
	if !shared.End(StatusOK) {
		t.Fatal("shared trace dropped with SampleProb>1")
	}
	got := tr.Get(shared.TraceID())
	if want := 1 + 8*200*2; len(got.Spans) != want {
		t.Fatalf("shared trace has %d spans, want %d", len(got.Spans), want)
	}
	for i := range got.Spans {
		if got.Spans[i].EndNS == 0 && i != 0 {
			t.Fatalf("span %d (%s) left open", i, got.Spans[i].Name)
		}
	}
	// Operations on an ended trace must no-op, not corrupt.
	if id := shared.StartSpan("late", SpanID{}); !id.IsZero() {
		t.Fatal("StartSpan after End returned a live span")
	}
}

func TestCapacityEviction(t *testing.T) {
	tr, _ := newTestTracer(t, Config{Capacity: 4, SampleProb: 1.01})
	var ids []TraceID
	for i := 0; i < 10; i++ {
		a := tr.StartTrace("job", Context{})
		a.End(StatusOK)
		ids = append(ids, a.TraceID())
	}
	for _, id := range ids[:6] {
		if tr.Get(id) != nil {
			t.Fatalf("trace %s not evicted", id)
		}
	}
	for _, id := range ids[6:] {
		if tr.Get(id) == nil {
			t.Fatalf("trace %s evicted too early", id)
		}
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	a := tr.StartTrace("job", Context{})
	if a != nil {
		t.Fatal("nil tracer returned non-nil Active")
	}
	sp := a.StartSpan("x", SpanID{})
	a.EndSpan(sp, StatusOK)
	a.Mark("m", sp, StatusOK)
	a.LinkSpan("l", sp, TraceID{})
	if a.End(StatusError) {
		t.Fatal("nil Active claimed to keep a trace")
	}
	if tr.Get(TraceID{}) != nil || tr.Traces() != nil {
		t.Fatal("nil tracer returned traces")
	}
	if ctx := a.Context(); !ctx.IsZero() {
		t.Fatal("nil Active has non-zero context")
	}
}

func TestExportRoundTripAndWaterfall(t *testing.T) {
	tr, clk := newTestTracer(t, Config{SampleProb: 1.01})
	a := tr.StartTrace("job", Context{}, Attr{Key: "tenant", Value: "t1"})
	q := a.StartSpan("queue-wait", SpanID{}, Attr{Key: "priority", Value: "high"})
	clk.advance(2_000_000)
	a.EndSpan(q, StatusOK)
	run := a.StartSpan("supervised-run", SpanID{})
	emit := SupervisorSpans(a, run, new(SpanID))
	emit(telemetry.SupEvent{Kind: telemetry.SupSegmentStart, Segment: 0, Engine: "TRAP"})
	emit(telemetry.SupEvent{Kind: telemetry.SupCheckpoint, Segment: 0})
	clk.advance(1_000_000)
	emit(telemetry.SupEvent{Kind: telemetry.SupSegmentFail, Segment: 0, Attempt: 1,
		Engine: "TRAP", Err: "kernel panic: boom"})
	emit(telemetry.SupEvent{Kind: telemetry.SupRestore, Segment: 0, Attempt: 1})
	emit(telemetry.SupEvent{Kind: telemetry.SupDegrade, Segment: 0, Attempt: 1, Engine: "STRAP"})
	clk.advance(3_000_000)
	emit(telemetry.SupEvent{Kind: telemetry.SupSegmentDone, Segment: 0, Attempt: 2, Engine: "STRAP"})
	a.EndSpan(run, StatusOK)
	a.End(StatusOK)

	got := tr.Get(a.TraceID())
	blob, err := MarshalExport(got)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseExport(blob)
	if err != nil {
		t.Fatalf("ParseExport: %v\n%s", err, blob)
	}
	if back.ID != got.ID || len(back.Spans) != len(got.Spans) {
		t.Fatalf("round trip lost spans: %d vs %d", len(back.Spans), len(got.Spans))
	}
	seg := findSpan(back, "segment-0")
	if seg == nil {
		t.Fatalf("no segment span in export:\n%s", blob)
	}
	a1 := findSpan(back, "attempt-1")
	if a1 == nil || a1.Status != StatusError || a1.Attr("cause") != "kernel panic: boom" {
		t.Fatalf("attempt-1 span wrong: %+v", a1)
	}
	a2 := findSpan(back, "attempt-2")
	if a2 == nil || a2.Status != StatusOK || a2.Parent != seg.ID {
		t.Fatalf("attempt-2 span wrong: %+v", a2)
	}
	if d := findSpan(back, "degrade"); d == nil || d.Attr("engine") != "STRAP" || d.Parent != a2.ID {
		t.Fatalf("degrade marker wrong: %+v", d)
	}

	var wf bytes.Buffer
	WriteWaterfall(&wf, got)
	for _, want := range []string{"queue-wait", "segment-0", "attempt-1", "attempt-2",
		"cause=kernel panic: boom", "engine=STRAP", "priority=high"} {
		if !strings.Contains(wf.String(), want) {
			t.Fatalf("waterfall missing %q:\n%s", want, wf.String())
		}
	}

	var chrome bytes.Buffer
	if err := WriteChrome(&chrome, got); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ph":"X"`, `"ph":"i"`, `"attempt-1"`, `"checkpoint"`} {
		if !strings.Contains(chrome.String(), want) {
			t.Fatalf("chrome export missing %q:\n%s", want, chrome.String())
		}
	}
	if _, err := ParseExport([]byte(`{"schema":"pochoir-trace/v999","trace":{}}`)); err == nil {
		t.Fatal("ParseExport accepted unknown schema")
	}
}

func findSpan(tr *Trace, name string) *Span {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return nil
}

func TestHandler404AndWaterfall(t *testing.T) {
	tr, _ := newTestTracer(t, Config{SampleProb: 1.01})
	a := tr.StartTrace("job", Context{})
	a.End(StatusOK)
	h := Handler(tr)

	for _, path := range []string{
		"/tracez/ffffffffffffffffffffffffffffffff",
		"/tracez/ffffffffffffffffffffffffffffffff.json",
		"/tracez/not-hex",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 404 {
			t.Fatalf("GET %s = %d, want 404", path, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez/"+a.TraceID().String(), nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "trace "+a.TraceID().String()) {
		t.Fatalf("waterfall fetch: %d\n%s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez/"+a.TraceID().String()+".json", nil))
	if rec.Code != 200 {
		t.Fatalf("json fetch: %d", rec.Code)
	}
	if _, err := ParseExport(rec.Body.Bytes()); err != nil {
		t.Fatalf("json fetch not parseable: %v", err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "tracer:") {
		t.Fatalf("index fetch: %d\n%s", rec.Code, rec.Body.String())
	}

	disabled := Handler(nil)
	rec = httptest.NewRecorder()
	disabled.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if rec.Code != 404 {
		t.Fatalf("disabled tracer /tracez = %d, want 404", rec.Code)
	}
}

// TestLiveSnapshot checks exemplars can resolve mid-flight traces and the
// post-mortem path sees open spans.
func TestLiveSnapshot(t *testing.T) {
	tr, clk := newTestTracer(t, Config{})
	a := tr.StartTrace("job", Context{})
	sp := a.StartSpan("supervised-run", SpanID{})
	clk.advance(5_000_000)
	got := tr.Get(a.TraceID())
	if got == nil || got.KeepReason != "live" {
		t.Fatalf("live trace not resolvable: %+v", got)
	}
	if got.Find(sp) == nil || got.Find(sp).EndNS != 0 {
		t.Fatal("open span not visible in live snapshot")
	}
	a.End(StatusError)
	if tr.Get(a.TraceID()).KeepReason != "status" {
		t.Fatal("finalized trace should replace live view")
	}
}

// TestWalkSpansCapAndLanes: a trace stores MaxWalkSpans decomposition spans
// and no more, whatever their lane, while ordinary spans are not capped;
// EndSpan closes the newest open spans; the Chrome export names one track
// per lane.
func TestWalkSpansCapAndLanes(t *testing.T) {
	tr, clk := newTestTracer(t, Config{})
	a := tr.StartTrace("job", Context{})
	walk := a.StartSpan("walk", SpanID{})
	var last SpanID
	for i := 0; i < MaxWalkSpans; i++ {
		clk.advance(1)
		if last = a.StartWalkSpan(i%2+1, "base", walk); last.IsZero() {
			t.Fatalf("walk span %d refused below the cap", i)
		}
		a.EndSpan(last, StatusOK)
	}
	if id := a.StartWalkSpan(1, "base", walk); !id.IsZero() {
		t.Fatal("a walk span past MaxWalkSpans was stored")
	}
	if id := a.StartSpan("after", SpanID{}); id.IsZero() {
		t.Fatal("the walk-span cap refused an ordinary span")
	}
	clk.advance(1)
	a.EndSpan(walk, StatusOK)
	snap := a.Snapshot()
	if got := len(snap.Spans); got != MaxWalkSpans+3 {
		t.Fatalf("%d spans stored, want the root, the walk, %d walk spans and one more", got, MaxWalkSpans)
	}
	if s := snap.Find(last); s.EndNS == 0 || s.Lane != 2 {
		t.Fatalf("newest walk span %+v: want it ended, on lane 2", s)
	}
	var chrome bytes.Buffer
	if err := WriteChrome(&chrome, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"args":{"name":"job"}`, `"args":{"name":"worker-1"}`, `"args":{"name":"worker-2"}`} {
		if strings.Count(chrome.String(), want) != 1 {
			t.Errorf("chrome export names track %s %d times, want once", want, strings.Count(chrome.String(), want))
		}
	}
}
