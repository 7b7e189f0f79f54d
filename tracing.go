package pochoir

import (
	"io"

	"pochoir/internal/trace"
)

// Tracer is the causal tracer behind end-to-end job tracing: 128-bit W3C
// trace IDs, span trees from admission through every supervised segment
// attempt, tail-based sampling (errors, sheds, deadline blowouts, and the
// slowest tail are always kept), and a bounded retained store served at
// /tracez. See internal/trace for the recording design.
type Tracer = trace.Tracer

// TracerConfig tunes a Tracer; the zero value gets sensible defaults
// (256 retained traces, 5% probabilistic keep, p99 tail keep).
type TracerConfig = trace.Config

// ActiveTrace is one in-flight trace: the handle spans are recorded
// against. All methods are nil-safe, so an untraced run passes nil around
// freely.
type ActiveTrace = trace.Active

// TraceContext is the W3C propagation pair (trace ID + parent span),
// parsed from and rendered to `traceparent` headers.
type TraceContext = trace.Context

// NewTracer creates a causal tracer; pass it to the serving gateway
// (gateway.Config.Trace) or drive it directly via StartTrace for library
// use.
func NewTracer(cfg TracerConfig) *Tracer { return trace.New(cfg) }

// ParseTraceparent decodes a W3C traceparent header value; the empty
// string decodes to the zero context (no trace).
func ParseTraceparent(s string) (TraceContext, error) { return trace.ParseTraceparent(s) }

// WriteChromeTrace writes what a has recorded so far — open spans end now —
// in the Chrome trace-event format, loadable at chrome://tracing and
// ui.perfetto.dev: each run's walk under its segment attempt or the root,
// one track per lane — the job's own goroutine on "job", each spawned
// worker on a "worker-N" of its own. a must be non-nil.
func WriteChromeTrace(w io.Writer, a *ActiveTrace) error { return trace.WriteChrome(w, a.Snapshot()) }
