package profile

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// burn spins the CPU for roughly d so a capture window has samples to
// attribute. The sink defeats dead-code elimination.
var burnSink float64

func burn(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1.0001
	for time.Now().Before(deadline) {
		for i := 0; i < 10000; i++ {
			x = math.Sqrt(x*x + 1.0001)
		}
	}
	burnSink = x
}

// captureLabeled takes a real CPU profile while burning cycles under the
// given labels, returning the raw gzipped pprof bytes.
func captureLabeled(t *testing.T, d time.Duration, labels ...string) []byte {
	t.Helper()
	captureMu.Lock()
	defer captureMu.Unlock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("StartCPUProfile: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels(labels...), func(context.Context) {
		burn(d)
	})
	pprof.StopCPUProfile()
	return buf.Bytes()
}

// TestAnalyzeRealCapture decodes a genuine runtime CPU profile with the
// hand-rolled decoder and checks the labels survive into the attribution.
func TestAnalyzeRealCapture(t *testing.T) {
	raw := captureLabeled(t, 300*time.Millisecond, "tenant", "acme", "phase", "base")
	rep, err := Analyze(raw, 10)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema = %q, want %q", rep.Schema, Schema)
	}
	if rep.Samples == 0 || rep.CPUSeconds <= 0 {
		t.Fatalf("no samples attributed: %+v", rep)
	}
	found := false
	for _, ls := range rep.ByLabel["tenant"] {
		if ls.Value == "acme" && ls.CPUSeconds > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenant=acme missing from attribution: %+v", rep.ByLabel)
	}
	if rep.PhaseShares["base"] <= 0 {
		t.Fatalf("phase=base share missing: %+v", rep.PhaseShares)
	}
	if rep.KernelShare <= 0 {
		t.Fatalf("kernel share should reflect phase=base samples: %+v", rep)
	}
	if len(rep.Top) == 0 || len(rep.Top) > 10 {
		t.Fatalf("top table has %d entries, want 1..10", len(rep.Top))
	}
	var text bytes.Buffer
	rep.WriteText(&text)
	if !strings.Contains(text.String(), "by tenant:") || !strings.Contains(text.String(), "acme") {
		t.Fatalf("text render missing tenant breakdown:\n%s", text.String())
	}
}

// TestAnalyzeHeapProfile runs the decoder over a heap snapshot: a
// different sample-type table exercising the value-column fallback.
func TestAnalyzeHeapProfile(t *testing.T) {
	hp := pprof.Lookup("heap")
	if hp == nil {
		t.Skip("no heap profile")
	}
	var buf bytes.Buffer
	if err := hp.WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeProfile(buf.Bytes()); err != nil {
		t.Fatalf("decode heap profile: %v", err)
	}
}

// TestDecodeRejectsCorruption mirrors internal/wire's exact-read
// discipline: truncation, trailing garbage, hostile declared lengths, and
// out-of-range table indices must all error — never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	raw := captureLabeled(t, 120*time.Millisecond, "tenant", "x")
	if _, err := Analyze(raw, 5); err != nil {
		t.Fatalf("pristine profile rejected: %v", err)
	}

	// Truncations of the gzip stream at every decile.
	for frac := 1; frac < 10; frac++ {
		n := len(raw) * frac / 10
		if _, err := Analyze(raw[:n], 5); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(raw))
		}
	}

	// Corrupt the protobuf inside a valid gzip frame: declared length
	// past the end of the buffer.
	gz := func(b []byte) []byte {
		var out bytes.Buffer
		zw := gzip.NewWriter(&out)
		zw.Write(b)
		zw.Close()
		return out.Bytes()
	}
	hostile := []byte{0x12, 0xff, 0xff, 0xff, 0x7f} // field 2, len-delim, 268M declared
	if _, err := Analyze(gz(hostile), 5); err == nil {
		t.Fatal("hostile declared length decoded cleanly")
	}
	// String index out of range: sample_type referencing string 99.
	badIdx := []byte{0x0a, 0x04, 0x08, 0x63, 0x10, 0x63}
	if _, err := Analyze(gz(badIdx), 5); err == nil {
		t.Fatal("out-of-range string index decoded cleanly")
	}
	// Trailing garbage after a valid message must be consumed or error:
	// an invalid tag byte (field number 0).
	if _, err := Analyze(gz([]byte{0x00}), 5); err == nil {
		t.Fatal("field number 0 decoded cleanly")
	}
	if _, err := Analyze(nil, 5); err == nil {
		t.Fatal("empty input decoded cleanly")
	}
}

// TestRingRetention fills the ring past Retain and checks eviction order
// and the eviction counter.
func TestRingRetention(t *testing.T) {
	var evictions testCounter
	p := New(Config{Retain: 3, Inst: &Instruments{Evictions: &evictions}})
	for i := 0; i < 5; i++ {
		p.push(Capture{Kind: "cpu", At: time.Unix(int64(i), 0)})
	}
	snap := p.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d captures, want 3", len(snap))
	}
	if snap[0].At.Unix() != 2 || snap[2].At.Unix() != 4 {
		t.Fatalf("ring kept wrong window: %v .. %v", snap[0].At, snap[2].At)
	}
	if evictions.v != 2 {
		t.Fatalf("evictions counter = %d, want 2", evictions.v)
	}
}

type testCounter struct {
	mu sync.Mutex
	v  int64
}

func (c *testCounter) Add(d int64) { c.mu.Lock(); c.v += d; c.mu.Unlock() }

// TestConcurrentCaptureWhileServe hammers the handler while the capture
// loop runs, under -race in CI: scrapes must never observe a torn ring.
func TestConcurrentCaptureWhileServe(t *testing.T) {
	p := New(Config{Window: 30 * time.Millisecond, Interval: -1, Retain: 2, HeapEvery: 1})
	p.Start()
	defer p.Stop()
	h := NewHandler(p)

	done := make(chan struct{})
	go func() {
		defer close(done)
		burn(200 * time.Millisecond)
	}()
	deadline := time.Now().Add(400 * time.Millisecond)
	var sawReport bool
	for time.Now().Before(deadline) {
		for _, path := range []string{"/profilez", "/profilez.json", "/profilez?window=last", "/profilez?kind=heap"} {
			req := httptest.NewRequest("GET", path, nil)
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if path == "/profilez.json" {
				var hr handlerReport
				if err := json.Unmarshal(rw.Body.Bytes(), &hr); err != nil {
					t.Fatalf("profilez.json unparseable: %v\n%s", err, rw.Body.String())
				}
				if hr.Report != nil && hr.Report.Schema == Schema {
					sawReport = true
				}
			}
		}
	}
	<-done
	p.Stop()
	if !sawReport {
		// The loop may still be inside its first window on a loaded
		// machine; take one synchronous capture to prove the pipeline.
		if _, err := p.CaptureNow(30 * time.Millisecond); err != nil {
			t.Fatalf("no report observed and CaptureNow failed: %v", err)
		}
	}
}

// TestArmedFlag: capture windows arm the hot-path label gate and disarm
// it when the window closes.
func TestArmedFlag(t *testing.T) {
	if Armed() {
		t.Fatal("armed before any capture")
	}
	p := New(Config{})
	ready := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		if !Armed() {
			t.Error("not armed inside a capture window")
		}
		close(ready)
	}()
	if _, err := p.CaptureNow(80 * time.Millisecond); err != nil {
		t.Fatalf("CaptureNow: %v", err)
	}
	<-ready
	if Armed() {
		t.Fatal("still armed after the window closed")
	}
}

// TestMerge checks aggregate math: seconds add, shares renormalize.
func TestMerge(t *testing.T) {
	a := &Report{Schema: Schema, Windows: 1, Samples: 10, CPUSeconds: 1, KernelShare: 0.8, WalkerShare: 0.1,
		ByLabel: map[string][]LabelStat{"tenant": {{Value: "a", CPUSeconds: 1, Share: 1}}}}
	b := &Report{Schema: Schema, Windows: 1, Samples: 30, CPUSeconds: 3, KernelShare: 0.4, WalkerShare: 0.3,
		ByLabel: map[string][]LabelStat{"tenant": {{Value: "b", CPUSeconds: 3, Share: 1}}}}
	m := Merge([]*Report{a, nil, b})
	if m.Windows != 2 || m.Samples != 40 || m.CPUSeconds != 4 {
		t.Fatalf("merge totals wrong: %+v", m)
	}
	if math.Abs(m.KernelShare-0.5) > 1e-9 || math.Abs(m.WalkerShare-0.25) > 1e-9 {
		t.Fatalf("merged shares wrong: kernel %v walker %v", m.KernelShare, m.WalkerShare)
	}
	if len(m.ByLabel["tenant"]) != 2 || m.ByLabel["tenant"][0].Value != "b" {
		t.Fatalf("merged tenant breakdown wrong: %+v", m.ByLabel["tenant"])
	}
	if Merge(nil) != nil || Merge([]*Report{nil}) != nil {
		t.Fatal("merge of nothing should be nil")
	}
}

// TestSentinel: flags an injected kernel-share collapse, stays silent on
// noise-level wobble and on reports with too little CPU to judge.
func TestSentinel(t *testing.T) {
	base := &Report{CPUSeconds: 2, KernelShare: 0.80, WalkerShare: 0.10,
		PhaseShares: map[string]float64{"base": 0.80, "walk": 0.10, "checkpoint": 0.02}}
	clean := &Report{CPUSeconds: 2, KernelShare: 0.78, WalkerShare: 0.12,
		PhaseShares: map[string]float64{"base": 0.78, "walk": 0.12, "checkpoint": 0.03}}
	regressed := &Report{CPUSeconds: 2, KernelShare: 0.55, WalkerShare: 0.33,
		PhaseShares: map[string]float64{"base": 0.55, "walk": 0.33, "checkpoint": 0.02}}

	if f := Compare(base, clean); len(f) != 0 {
		t.Fatalf("sentinel flagged noise-level wobble: %v", f)
	}
	f := Compare(base, regressed)
	if len(f) < 2 {
		t.Fatalf("sentinel missed the regression: %v", f)
	}
	metrics := map[string]bool{}
	for _, fd := range f {
		metrics[fd.Metric] = true
	}
	if !metrics["kernel_share"] || !metrics["walker_share"] {
		t.Fatalf("wrong findings: %v", f)
	}
	tiny := &Report{CPUSeconds: 0.01, KernelShare: 0}
	if f := Compare(base, tiny); len(f) != 0 {
		t.Fatalf("sentinel judged a report with no CPU: %v", f)
	}
	if f := Compare(nil, regressed); len(f) != 0 {
		t.Fatal("sentinel judged nil baseline")
	}
}

// TestHandlerDisabled: a nil profiler yields 404, matching the monitor's
// behaviour for absent subsystems.
func TestHandlerDisabled(t *testing.T) {
	h := NewHandler(nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/profilez", nil))
	if rw.Code != 404 {
		t.Fatalf("disabled handler status = %d, want 404", rw.Code)
	}
}

// TestFromEnv covers the POCHOIR_PROFILE gating grammar.
func TestFromEnv(t *testing.T) {
	for _, off := range []string{"", "0", "false", "off"} {
		t.Setenv("POCHOIR_PROFILE", off)
		if FromEnv() != nil {
			t.Fatalf("POCHOIR_PROFILE=%q should disable", off)
		}
	}
	t.Setenv("POCHOIR_PROFILE", "250ms")
	p := FromEnv()
	if p == nil || p.cfg.Window != 250*time.Millisecond {
		t.Fatalf("POCHOIR_PROFILE=250ms gave %+v", p)
	}
	t.Setenv("POCHOIR_PROFILE", "1")
	if p := FromEnv(); p == nil || p.cfg.Window != 10*time.Second {
		t.Fatal("POCHOIR_PROFILE=1 should enable with defaults")
	}
}
