package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
)

// WriteChromeTrace renders the recorded events in the Chrome trace-event
// JSON format (the "JSON Array with metadata" flavor), loadable in
// chrome://tracing and https://ui.perfetto.dev. Each worker shard becomes
// one thread track; every span is a balanced pair of duration events
// (ph "B"/"E"), so the recursive decomposition renders as a span tree per
// worker. Timestamps are microseconds since the recorder's epoch.
//
// Like Snapshot, it must only be called while no instrumented run is
// executing.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	tracks := make(map[int]string, len(r.shards))
	for _, s := range r.shards {
		tracks[s.id] = fmt.Sprintf("worker-%d", s.id)
	}
	return writeChrome(w, "pochoir", tracks, func(emit emitFunc) {
		for _, s := range r.shards {
			for _, ev := range s.events {
				ts := float64(ev.TS) / 1e3
				if !ev.Begin {
					emit(`{"name":"%s","cat":"pochoir","ph":"E","pid":1,"tid":%d,"ts":%.3f}`,
						ev.Kind, s.id, ts)
					continue
				}
				emit(`{"name":"%s","cat":"pochoir","ph":"B","pid":1,"tid":%d,"ts":%.3f,"args":{%s}}`,
					ev.Kind, s.id, ts, beginArgs(ev))
			}
		}
	})
}

// emitFunc appends one event, formatted as by fmt.Sprintf, to the trace.
type emitFunc func(format string, args ...any)

// writeChrome writes one Chrome trace-event document, the "JSON Array with
// metadata" flavor every exporter here shares: the header, the process name,
// one thread-name record per entry of tracks in tid order, the events body
// emits, and the footer.
func writeChrome(w io.Writer, process string, tracks map[int]string, body func(emitFunc)) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	emit(`{"name":"process_name","ph":"M","pid":1,"args":{"name":%s}}`, strconv.Quote(process))
	for _, tid := range slices.Sorted(maps.Keys(tracks)) {
		emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`, tid, strconv.Quote(tracks[tid]))
	}
	body(emit)
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// beginArgs renders the kind-specific args object body of a begin event.
func beginArgs(ev Event) string {
	switch ev.Kind {
	case SpanHyperCut:
		return fmt.Sprintf(`"dims_cut":%d,"fanout":%d,"levels":%d`, ev.A0, ev.A1, ev.A2)
	case SpanSpaceCut, SpanCircleCut:
		return fmt.Sprintf(`"dim":%d`, ev.A0)
	case SpanTimeCut:
		return fmt.Sprintf(`"height":%d`, ev.A0)
	case SpanBase:
		clone := "boundary"
		if ev.A1 != 0 {
			clone = "interior"
		}
		return fmt.Sprintf(`"volume":%d,"clone":"%s","height":%d`, ev.A0, clone, ev.A2)
	}
	return ""
}

// ChromeInstant is one instant event of a generic Chrome trace: a named
// marker on a track at a point in time. Args, when non-empty, is the
// pre-rendered JSON body of the args object (no surrounding braces).
type ChromeInstant struct {
	Name string
	TID  int   // track the event renders on
	TS   int64 // nanoseconds since the trace's epoch
	Args string
}

// WriteChromeEvents renders an arbitrary list of instant events in the same
// Chrome trace-event format as WriteChromeTrace, one named thread track per
// entry of tracks (tid → display name). It is the exporter behind
// cmd/blackbox's trace subcommand: post-mortem flight-recorder windows
// become per-worker instant-event lanes loadable in chrome://tracing and
// Perfetto alongside the span traces the live recorder writes.
func WriteChromeEvents(w io.Writer, process string, tracks map[int]string, evs []ChromeInstant) error {
	return writeChrome(w, process, tracks, func(emit emitFunc) {
		for _, ev := range evs {
			emit(`{"name":%s,"cat":"flight","ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,"args":{%s}}`,
				strconv.Quote(ev.Name), ev.TID, float64(ev.TS)/1e3, ev.Args)
		}
	})
}

// ChromeSpan is one complete-event ("X") span of a generic Chrome trace:
// a named bar on a track with an explicit duration. Unlike the B/E pairs
// WriteChromeTrace emits, complete events need no stack discipline — the
// viewer nests them by time containment — which suits span trees assembled
// from concurrent recorders. Args, when non-empty, is the pre-rendered JSON
// body of the args object (no surrounding braces).
type ChromeSpan struct {
	Name  string
	TID   int   // track the span renders on
	TS    int64 // nanoseconds since the trace's epoch
	DurNS int64
	Args  string
}

// WriteChromeSpans renders spans (plus optional instant markers) in the
// Chrome trace-event format, one named thread track per entry of tracks.
// It is the converter behind the /tracez Chrome export: a pochoir-trace/v1
// span tree becomes a browsable flame chart in chrome://tracing or
// Perfetto, reusing the exact envelope WriteChromeTrace established.
func WriteChromeSpans(w io.Writer, process string, tracks map[int]string, spans []ChromeSpan, instants []ChromeInstant) error {
	return writeChrome(w, process, tracks, func(emit emitFunc) {
		for _, sp := range spans {
			emit(`{"name":%s,"cat":"trace","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{%s}}`,
				strconv.Quote(sp.Name), sp.TID, float64(sp.TS)/1e3, float64(sp.DurNS)/1e3, sp.Args)
		}
		for _, ev := range instants {
			emit(`{"name":%s,"cat":"trace","ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,"args":{%s}}`,
				strconv.Quote(ev.Name), ev.TID, float64(ev.TS)/1e3, ev.Args)
		}
	})
}

// WriteChromeTraceFile writes the Chrome trace to path.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
