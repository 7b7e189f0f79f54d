package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteChrome writes the trace in the Chrome trace-event format (the "JSON
// Array with metadata" flavor chrome://tracing and Perfetto load); it is the
// module's one such writer, behind /tracez/<id>.json?format=chrome, the
// telemetry example's -trace file and cmd/blackbox's trace export. Each lane
// is a thread track, "job" for lane 0 and "worker-N" for lane N; timed spans
// become complete events, which the viewer nests by containment, and
// zero-duration markers (checkpoints, spills, degrades...) become instant
// events. Timestamps are microseconds from the trace's start.
func WriteChrome(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ns","traceEvents":[{"name":"process_name","ph":"M","pid":1,"args":{"name":%s}}`,
		strconv.Quote("pochoir trace "+tr.ID.String()))
	named := map[int]bool{}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		if !named[s.Lane] {
			named[s.Lane] = true
			track := "job"
			if s.Lane != 0 {
				track = "worker-" + strconv.Itoa(s.Lane)
			}
			fmt.Fprintf(bw, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, s.Lane, track)
		}
		ts := float64(s.StartNS-tr.StartNS) / 1e3
		if s.EndNS == s.StartNS {
			fmt.Fprintf(bw, `,{"name":%s,"cat":"trace","ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,"args":{%s}}`,
				strconv.Quote(s.Name), s.Lane, ts, spanArgs(s))
			continue
		}
		endNS := s.EndNS
		if endNS == 0 {
			endNS = tr.EndNS
		}
		fmt.Fprintf(bw, `,{"name":%s,"cat":"trace","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{%s}}`,
			strconv.Quote(s.Name), s.Lane, ts, float64(endNS-s.StartNS)/1e3, spanArgs(s))
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// spanArgs renders a span's ID, status, attrs, and link as a Chrome args
// body.
func spanArgs(s *Span) string {
	var sb strings.Builder
	sb.WriteString(`"span_id":` + strconv.Quote(s.ID.String()))
	if s.Status != "" {
		sb.WriteString(`,"status":` + strconv.Quote(s.Status))
	}
	for _, a := range s.Attrs {
		sb.WriteString("," + strconv.Quote(a.Key) + ":" + strconv.Quote(a.Value))
	}
	if !s.Link.IsZero() {
		sb.WriteString(`,"link":` + strconv.Quote(s.Link.String()))
	}
	return sb.String()
}
