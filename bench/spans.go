package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark from
// outside the layer: its name ("core.run", "http.post", ...), its interval
// relative to the recorder's epoch, the span that caused it, and the rep or
// job it belongs to.
type span struct {
	Name   string
	Trace  int // rep or job id; one lane of trace.json
	Parent int // index of the causing span, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs share the instrumented code paths at
// the cost of a nil check.
type spanRecorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// start opens a span and returns its index for end and for children.
func (r *spanRecorder) start(trace, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes a span opened by start.
func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// time runs fn inside a span and returns how long it took, recorder or not.
func (r *spanRecorder) time(trace, parent int, name string, fn func()) time.Duration {
	id := r.start(trace, parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// add records a span whose interval the caller observed itself (offsets
// from the recorder's epoch), e.g. between two supervisor events.
func (r *spanRecorder) add(trace, parent int, name string, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: start, End: end})
	r.mu.Unlock()
}

// snapshot returns a copy of the spans; one left open by an error path is
// closed at its start.
func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (children may overlap one
// another; the union is subtracted once).
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		self := s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		var covered, edge time.Duration
		edge = s.Start
		for _, k := range ks {
			if k.hi <= edge {
				continue
			}
			covered += k.hi - max(k.lo, edge)
			edge = k.hi
		}
		out[s.Name] += self - covered
	}
	return out
}

// totalTimes sums span durations per name, with the number of spans.
func totalTimes(spans []span) (map[string]time.Duration, map[string]int) {
	tot, n := make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		tot[s.Name] += s.End - s.Start
		n[s.Name]++
	}
	return tot, n
}

// chromeEvent is one complete ("X") event of the Chrome trace format that
// chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as a Chrome trace: one lane (tid) per
// rep or job, nesting by time containment, with span and parent indices in
// args so the causal tree survives the export.
func writeChromeTrace(path string, spans []span) error {
	evs := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Trace,
			Args: map[string]int{"span": i, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
