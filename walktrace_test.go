package pochoir_test

// The walk in the trace: every run with an Options.Trace records a "walk"
// span and, under it, each cut and base case. These tests hold the spans to
// the decomposition they describe — base-span volumes partition space-time,
// every span closes inside its walk even when a kernel panics, the Chrome
// export nests by containment on every track — and hold the per-trace cap
// to counting what it does not store.

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"testing"

	"pochoir"
	"pochoir/internal/stencils"
	"pochoir/internal/trace"
)

// newTrace starts a trace whose spans the test reads back with Snapshot.
func newTrace() *pochoir.ActiveTrace {
	return pochoir.NewTracer(pochoir.TracerConfig{Seed: 1}).StartTrace("test", pochoir.TraceContext{})
}

// walkSum is one walk span with what its decomposition spans add up to.
type walkSum struct {
	walk          *trace.Span
	bases, points int64
}

// walkSums returns the trace's walk spans in start order, each with its
// base-span count and volume sum. It fails the test if a decomposition span
// hangs under no walk, is still open, or lies outside its walk's interval.
func walkSums(t *testing.T, tr *trace.Trace) []walkSum {
	t.Helper()
	byID := make(map[trace.SpanID]*trace.Span, len(tr.Spans))
	for i := range tr.Spans {
		byID[tr.Spans[i].ID] = &tr.Spans[i]
	}
	sums := map[trace.SpanID]*walkSum{}
	var order []*walkSum
	for i := range tr.Spans {
		if s := &tr.Spans[i]; s.Name == "walk" {
			sums[s.ID] = &walkSum{walk: s}
			order = append(order, sums[s.ID])
		}
	}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		switch s.Name {
		case "base", "time-cut", "hyperspace-cut", "space-cut", "circle-cut":
		default:
			continue
		}
		p := byID[s.Parent]
		for p != nil && p.Name != "walk" {
			p = byID[p.Parent]
		}
		if p == nil {
			t.Fatalf("%s span %s hangs under no walk", s.Name, s.ID)
		}
		if s.EndNS == 0 || s.StartNS < p.StartNS || p.EndNS != 0 && s.EndNS > p.EndNS {
			t.Fatalf("%s span [%d, %d] open or outside its walk [%d, %d]", s.Name, s.StartNS, s.EndNS, p.StartNS, p.EndNS)
		}
		if s.Name == "base" {
			v, err := strconv.ParseInt(s.Attr("volume"), 10, 64)
			if err != nil {
				t.Fatalf("base span volume: %v", err)
			}
			sums[p.ID].bases++
			sums[p.ID].points += v
		}
	}
	out := make([]walkSum, len(order))
	for i, w := range order {
		out[i] = *w
	}
	return out
}

// chromeEvent is the subset of the Chrome trace-event schema the tests read.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TID  int               `json:"tid"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

// TestWalkTraceChromeNests exports a parallel run's trace through the
// Chrome writer and checks that it parses, that spawned tasks record on
// worker tracks of their own, and that on every track each complete event
// lies inside the one open around it or after it — the viewer's nesting by
// containment holds.
func TestWalkTraceChromeNests(t *testing.T) {
	tr := newTrace()
	stencils.NewHeat2DFactory(true).New([]int{64, 64}, 16).Pochoir(pochoir.Options{
		Trace: tr, TimeCutoff: 2, SpaceCutoff: []int{16, 16}, Grain: 1,
	}).Run()

	var buf bytes.Buffer
	if err := pochoir.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[int][]chromeEvent{}
	names := map[int]string{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			tracks[ev.TID] = append(tracks[ev.TID], ev)
		case "M":
			if ev.Name == "thread_name" {
				names[ev.TID] = ev.Args["name"]
			}
		}
	}
	if names[0] != "job" || len(tracks) < 2 {
		t.Fatalf("tracks %v: want the job's and at least one worker's", names)
	}
	for tid, evs := range tracks {
		if tid != 0 && names[tid] != "worker-"+strconv.Itoa(tid) {
			t.Errorf("track %d is named %q", tid, names[tid])
		}
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].TS != evs[j].TS {
				return evs[i].TS < evs[j].TS
			}
			return evs[i].Dur > evs[j].Dur
		})
		const eps = 1e-6 // µs
		var open []float64
		for _, ev := range evs {
			for len(open) > 0 && open[len(open)-1] <= ev.TS+eps {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && ev.TS+ev.Dur > open[n-1]+eps {
				t.Fatalf("track %d: %s [%.3f, %.3f] overlaps the span around it, which ends at %.3f",
					tid, ev.Name, ev.TS, ev.TS+ev.Dur, open[n-1])
			}
			open = append(open, ev.TS+ev.Dur)
		}
	}
	sums := walkSums(t, tr.Snapshot())
	if len(sums) != 1 || sums[0].walk.Attr("dropped_spans") != "0" || sums[0].points != 64*64*16 {
		t.Fatalf("walks %+v, want one covering 64×64×16 points", sums)
	}
}

// TestWalkTraceCapCounts runs a walk of more zoids than a trace stores:
// the trace keeps exactly trace.MaxWalkSpans decomposition spans, and the
// walk span counts every one it did not keep.
func TestWalkTraceCapCounts(t *testing.T) {
	tr := newTrace()
	rec := pochoir.NewRecorder()
	stencils.NewHeat2DFactory(true).New([]int{256, 256}, 32).Pochoir(pochoir.Options{
		Telemetry: rec, Trace: tr, TimeCutoff: 2, SpaceCutoff: []int{8, 8}, Grain: 1,
	}).Run()

	zoids := rec.Snapshot().Zoids()
	if zoids <= trace.MaxWalkSpans {
		t.Fatalf("the run made %d zoids, not more than the cap of %d", zoids, trace.MaxWalkSpans)
	}
	snap := tr.Snapshot()
	sums := walkSums(t, snap)
	if len(sums) != 1 {
		t.Fatalf("%d walk spans, want 1", len(sums))
	}
	stored := int64(len(snap.Spans)) - 2 // the trace's root and the walk
	if stored != trace.MaxWalkSpans {
		t.Errorf("the trace stores %d decomposition spans, want the cap, %d", stored, trace.MaxWalkSpans)
	}
	if got := sums[0].walk.Attr("dropped_spans"); got != strconv.FormatInt(zoids-trace.MaxWalkSpans, 10) {
		t.Errorf("walk counts %q dropped spans, want %d zoids − %d stored", got, zoids, trace.MaxWalkSpans)
	}
}
