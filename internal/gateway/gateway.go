// Package gateway turns the pochoir library into a long-running service:
// cmd/pochoird accepts stencil specifications over HTTP, compiles them with
// internal/compiler, and executes each accepted job as a supervised
// resilient run on a bounded shared worker pool.
//
// The robustness spine, in admission order:
//
//   - Front-door validation: the compiler's input limits reject
//     pathological specs before parse; grid volume and step counts are
//     capped so one request cannot allocate the host away.
//
//   - Per-tenant quotas: a token bucket bounds each tenant's submission
//     rate and a concurrency cap bounds its admitted-but-unfinished jobs;
//     exhausting either sheds the request with 429 + Retry-After.
//
//   - Coalescing: a submission identical to an in-flight job (same spec
//     bytes, grid, steps, seed) joins that job instead of running again.
//
//   - A bounded priority queue: when it is full the gateway sheds (429 +
//     Retry-After) — it never buffers without bound. Workers never exceed
//     the configured pool size.
//
//   - Per-job deadlines propagated as context deadlines into the run; the
//     supervisor absorbs worker faults (retry, degrade, restore) so a
//     fault mid-job does not surface to the client.
//
//   - Graceful drain on SIGTERM: admission stops (503), queued and running
//     jobs finish (or spill durably via SpillDir), then the process exits.
//
// Every transition is observable: counters/gauges/histograms in the shared
// metrics registry, per-job progress entries (label = job id) served at
// /jobs/<id>, and job-lifecycle events stamped into the black-box flight
// recorder so a crashed daemon's post-mortem bundle names the in-flight
// jobs.
package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"pochoir"
	"pochoir/internal/compiler"
	"pochoir/internal/flight"
	"pochoir/internal/metrics"
	"pochoir/internal/profile"
	"pochoir/internal/trace"
)

// Config configures a Gateway. The zero value is usable; see the field
// comments for the defaults.
type Config struct {
	// Workers is the shared pool size — the hard bound on concurrently
	// executing jobs. Default 2.
	Workers int
	// QueueDepth bounds the admission queue (jobs admitted but not yet
	// running). A full queue sheds with 429 + Retry-After. Default 16.
	QueueDepth int
	// MaxBodyBytes bounds a submission's HTTP body. Default 1 MiB (the
	// compiler's own MaxSourceBytes caps the spec inside it).
	MaxBodyBytes int64
	// MaxSteps bounds a job's time steps. Default 100000.
	MaxSteps int
	// MaxGridPoints bounds a job's spatial grid volume (points per time
	// slot). Default 1<<20.
	MaxGridPoints int64
	// DefaultDeadline applies when a submission carries no deadline;
	// MaxDeadline clamps client-supplied ones. Defaults 1m and 5m. The
	// deadline runs from admission, so time spent queued counts.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the Retry-After hint attached to queue-full and drain
	// sheds (quota sheds compute the exact token-refill time). Default 1s.
	RetryAfter time.Duration
	// TenantRate and TenantBurst configure each tenant's submission token
	// bucket (tokens/second and bucket capacity); TenantMaxConcurrent
	// bounds a tenant's admitted-but-unfinished jobs. Defaults 50/s, 100,
	// and QueueDepth.
	TenantRate          float64
	TenantBurst         int
	TenantMaxConcurrent int
	// SpillDir, when non-empty, gives every job durable checkpoints: job
	// <id> spills to SpillDir/<id> (see SupervisePolicy.SpillDir), so a
	// killed daemon leaves resumable journals.
	SpillDir string
	// Supervise is the resilience policy template applied to every job
	// (segmenting, retry budget, degradation ladder, verification). The
	// per-job SpillDir and deadline are layered on top of it.
	Supervise pochoir.SupervisePolicy
	// Metrics is the shared registry all jobs and the gateway itself
	// instrument; nil creates a private one.
	Metrics *metrics.Registry
	// Flight is the black-box recorder job lifecycle events are stamped
	// into; nil uses the process-wide default recorder, which the jobs'
	// runs record into either way.
	Flight *flight.Recorder
	// Trace, when non-nil, gives every submission an end-to-end causal
	// trace: admission, compile, queue wait, and every supervised segment
	// attempt, tail-sampled into the tracer's retained store and served at
	// /tracez. Nil disables tracing (and /tracez answers 404).
	Trace *trace.Tracer
	// SLO tunes the burn-rate engine evaluating the gateway's built-in
	// objectives (99% of jobs under 500ms, 99.9% of jobs succeeding). The
	// zero value uses the SRE-workbook defaults; its Flight field defaults
	// to the gateway's recorder so breaches land in post-mortem bundles.
	SLO metrics.SLOConfig
	// Profiler, when non-nil, is the continuous profiler the gateway owns
	// for its lifetime: started by New, stopped by Drain/Close. Each
	// capture window's per-tenant CPU attribution accumulates into the
	// pochoir_tenant_cpu_seconds_total gauge family, and the HTTP layer
	// serves the capture ring at /profilez. Nil disables profiling (and
	// /profilez answers 404), matching the flight recorder's off-by-default
	// discipline.
	Profiler *profile.Profiler

	// now overrides the clock (tests).
	now func() time.Time
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 100000
	}
	if c.MaxGridPoints <= 0 {
		c.MaxGridPoints = 1 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.TenantRate <= 0 {
		c.TenantRate = 50
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 100
	}
	if c.TenantMaxConcurrent <= 0 {
		c.TenantMaxConcurrent = c.QueueDepth
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Flight == nil {
		c.Flight = flight.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// JobState names a job's lifecycle state.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Submission is one job request: a stencil specification plus its grid,
// step count, and scheduling hints.
type Submission struct {
	// Spec is the .pch stencil specification source.
	Spec string `json:"spec"`
	// Sizes are the spatial extents (must match the spec's dims).
	Sizes []int `json:"sizes"`
	// Steps is the number of time steps to run.
	Steps int `json:"steps"`
	// Priority is "high", "normal" (default), or "low".
	Priority string `json:"priority,omitempty"`
	// DeadlineMS bounds the job's total age (queue + run) in milliseconds;
	// 0 selects the gateway default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Seed parameterizes the deterministic initial condition, so distinct
	// seeds are distinct computations (and identical seeds coalesce).
	Seed int64 `json:"seed,omitempty"`

	// TraceParent is the caller's W3C trace context, parsed by the HTTP
	// layer from the traceparent header. It deliberately stays out of the
	// JSON body (and out of jobKey): propagation context never changes
	// what a computation is, so it must not defeat coalescing.
	TraceParent trace.Context `json:"-"`
}

// SubmitError is a rejected submission: the HTTP status to serve, the shed
// reason, and (for shedding) the Retry-After hint.
type SubmitError struct {
	Code       int
	Reason     string
	RetryAfter time.Duration
	Err        error
	// Traceparent is the refused submission's trace context — refusals are
	// always retained by the tail sampler, so the client can still pull
	// the shed trace from /tracez.
	Traceparent string
}

func (e *SubmitError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("gateway: %s: %v", e.Reason, e.Err)
	}
	return "gateway: " + e.Reason
}

func (e *SubmitError) Unwrap() error { return e.Err }

// JobStatus is the JSON view of one job, served at /jobs/<id>.
type JobStatus struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	State     JobState `json:"state"`
	Priority  string   `json:"priority"`
	Steps     int      `json:"steps"`
	Sizes     []int    `json:"sizes"`
	Coalesced int      `json:"coalesced"`

	// TraceID and Traceparent identify the job's causal trace; the trace
	// itself (if sampled in, or still live) is at /tracez/<trace_id>.
	TraceID     string `json:"trace_id,omitempty"`
	Traceparent string `json:"traceparent,omitempty"`

	QueuedSeconds float64 `json:"queued_seconds"`
	RunSeconds    float64 `json:"run_seconds"`
	DeadlineMS    int64   `json:"deadline_ms"`
	Checksum      string  `json:"checksum,omitempty"`
	Error         string  `json:"error,omitempty"`
	Retries       int     `json:"retries"`
	Degradations  int     `json:"degradations"`

	// Progress is the job's live run-progress entry from the shared
	// registry (label = job id); nil until the run starts.
	Progress *metrics.ProgressStat `json:"progress,omitempty"`
}

// job is the gateway's record of one admitted computation.
type job struct {
	id       string
	num      int64 // numeric id for flight events
	tenant   string
	key      uint64
	Priority Priority
	steps    int
	sizes    []int
	seed     int64
	deadline time.Time

	// inst holds the job's grids and stencil from admission until its
	// outcome is recorded; runJob then drops it, so the job table retains
	// only status-sized records.
	inst *compiler.Instance

	// trace is the job's causal trace (nil when tracing is disabled) and
	// queueSpan its open queue-wait span, closed when a worker pops it.
	// Both are set before the job is published and immutable after.
	trace     *trace.Active
	queueSpan trace.SpanID

	mu          sync.Mutex
	state       JobState
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	errText     string
	checksum    string
	retries     int
	degrades    int
	coalesced   int

	done chan struct{}
}

// Gateway is the multi-tenant stencil service: admission control, a
// bounded priority queue, a fixed worker pool of supervised runs, and
// graceful drain.
type Gateway struct {
	cfg     Config
	met     *gwMetrics
	queue   *jobQueue
	tenants *tenantSet
	slo     *metrics.SLOEngine
	plans   planCache

	baseCtx context.Context
	cancel  context.CancelFunc
	workers sync.WaitGroup

	// recentWaits is a small ring of observed queue waits; its median
	// folds into Retry-After hints so a shed client backs off by how long
	// the queue actually is, not just a static guess.
	waitMu      sync.Mutex
	recentWaits []time.Duration
	waitIdx     int

	mu       sync.Mutex
	jobs     map[string]*job
	byKey    map[uint64]*job // queued or running jobs only, for coalescing
	jobSeq   int64
	draining bool

	running    int
	maxRunning int // high-water mark; tests assert it never exceeds Workers
}

// New builds a gateway and starts its worker pool and SLO evaluator.
func New(cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	if cfg.SLO.Flight == nil {
		cfg.SLO.Flight = cfg.Flight
	}
	g := &Gateway{
		cfg:     cfg,
		met:     newGwMetrics(cfg.Metrics),
		queue:   newJobQueue(cfg.QueueDepth),
		tenants: newTenantSet(cfg.TenantRate, cfg.TenantBurst, cfg.TenantMaxConcurrent, cfg.now),
		jobs:    make(map[string]*job),
		byKey:   make(map[uint64]*job),
	}
	g.slo = metrics.NewSLO(cfg.Metrics, cfg.SLO)
	g.slo.Add(metrics.LatencyObjective("job-latency-500ms", g.met.latencyMS, 500, 0.99))
	okC, errC, dlC := g.met.completed.get("ok"), g.met.completed.get("error"), g.met.completed.get("deadline")
	g.slo.Add(metrics.RatioObjective("job-success", 0.999,
		func() int64 { return okC.Value() },
		func() int64 { return okC.Value() + errC.Value() + dlC.Value() }))
	g.slo.Start()
	if cfg.Profiler != nil {
		// Export each window's per-tenant attribution, point the profiler's
		// self-metrics at the shared registry, publish it process-wide so
		// post-mortem bundles can embed the incident window, then begin
		// capturing.
		cfg.Profiler.SetOnReport(g.onProfileReport)
		pm := metrics.NewProfilerMetrics(cfg.Metrics)
		cfg.Profiler.SetInstruments(&profile.Instruments{
			Captures:      pm.Captures,
			HeapCaptures:  pm.HeapCaptures,
			Evictions:     pm.Evictions,
			DecodeErrors:  pm.DecodeErrors,
			CaptureErrors: pm.CaptureErrors,
		})
		profile.SetGlobal(cfg.Profiler)
		cfg.Profiler.Start()
	}
	g.baseCtx, g.cancel = context.WithCancel(context.Background())
	g.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go g.worker()
	}
	return g
}

// SLO returns the gateway's burn-rate engine (serving /slo via the monitor).
func (g *Gateway) SLO() *metrics.SLOEngine { return g.slo }

// Tracer returns the causal tracer, or nil when tracing is disabled.
func (g *Gateway) Tracer() *trace.Tracer { return g.cfg.Trace }

// Profiler returns the continuous profiler, or nil when profiling is
// disabled.
func (g *Gateway) Profiler() *profile.Profiler { return g.cfg.Profiler }

// onProfileReport folds one capture window's per-tenant CPU attribution
// into the cumulative pochoir_tenant_cpu_seconds_total gauges. Runs on the
// profiler's capture goroutine, one report at a time.
func (g *Gateway) onProfileReport(rep *profile.Report) {
	for _, ls := range rep.ByLabel["tenant"] {
		if ls.Value == "" || ls.CPUSeconds <= 0 {
			continue
		}
		g.met.tenantCPU.get(ls.Value).Add(ls.CPUSeconds)
	}
}

// Registry returns the shared metrics registry (for mounting a monitor).
func (g *Gateway) Registry() *metrics.Registry { return g.cfg.Metrics }

// Draining reports whether drain has begun (admission closed).
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// jobKey identifies a computation for coalescing: the exact spec bytes,
// grid extents, step count, and seed.
func jobKey(sub Submission) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(sub.Spec))
	var b [8]byte
	for _, n := range sub.Sizes {
		binary.LittleEndian.PutUint64(b[:], uint64(n))
		_, _ = h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(sub.Steps))
	_, _ = h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(sub.Seed))
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// Submit validates, admits, and enqueues one job for tenant. On success the
// returned status is the job's snapshot (state "queued", or the coalesced
// target's current state). A non-nil *SubmitError carries the HTTP status:
// 400 for an invalid spec, 413 for one over the input limits, 429 with
// Retry-After for load shedding, 503 while draining.
func (g *Gateway) Submit(tenant string, sub Submission) (*JobStatus, *SubmitError) {
	if tenant == "" {
		tenant = "anonymous"
	}
	g.met.submitted.get(tenant).Inc()
	g.cfg.Flight.Record(flight.EvJob, flight.JobSubmit, 0, int64(g.queue.depth()))

	prio, _ := ParsePriority(sub.Priority)
	// The trace opens before the first admission gate: a refused submission
	// ends with a shed/error status, which the tail sampler always keeps,
	// so "why was my job refused" is answerable from /tracez.
	tr := g.cfg.Trace.StartTrace("job", sub.TraceParent,
		trace.Attr{Key: "tenant", Value: tenant},
		trace.Attr{Key: "priority", Value: prio.String()})
	admitSpan := tr.StartSpan("admission", trace.SpanID{})

	// Front-door validation, before any lock: the compiler's input limits
	// bound the parse, and the grid/step caps bound the allocation.
	checked, serr := g.validate(sub, tr, admitSpan)
	if serr != nil {
		if serr.Code == 429 || serr.Code == 503 {
			g.shed(serr.Reason)
		}
		return nil, g.refuse(tr, admitSpan, serr)
	}

	key := jobKey(sub)

	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		g.shed("draining")
		return nil, g.refuse(tr, admitSpan,
			&SubmitError{Code: 503, Reason: "draining", RetryAfter: g.cfg.RetryAfter})
	}
	if prev, ok := g.byKey[key]; ok {
		g.mu.Unlock()
		// Identical spec+grid+steps+seed already queued or running: join it.
		// The token still gets charged — coalescing must not bypass quota —
		// but no new concurrency slot is taken.
		if ok, retry := g.tenants.chargeToken(tenant); !ok {
			g.shed("quota")
			return nil, g.refuse(tr, admitSpan,
				&SubmitError{Code: 429, Reason: "quota", RetryAfter: g.retryHint("quota", retry)})
		}
		return g.join(tr, admitSpan, prev), nil
	}
	g.mu.Unlock()

	if reason, retry := g.tenants.admit(tenant); reason != "" {
		g.shed(reason)
		return nil, g.refuse(tr, admitSpan,
			&SubmitError{Code: 429, Reason: reason, RetryAfter: g.retryHint(reason, retry)})
	}

	// Materialize the instance (arrays + deterministic initial condition)
	// only after every admission gate has passed.
	inst, err := checked.NewInstance(sub.Sizes...)
	if err != nil {
		g.tenants.release(tenant)
		return nil, g.refuse(tr, admitSpan, &SubmitError{Code: 400, Reason: "bad_spec", Err: err})
	}
	initArrays(inst, sub.Seed)

	deadline := time.Duration(sub.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = g.cfg.DefaultDeadline
	}
	if deadline > g.cfg.MaxDeadline {
		deadline = g.cfg.MaxDeadline
	}

	tr.EndSpan(admitSpan, trace.StatusOK)
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		g.tenants.release(tenant)
		g.shed("draining")
		return nil, g.refuse(tr, admitSpan,
			&SubmitError{Code: 503, Reason: "draining", RetryAfter: g.cfg.RetryAfter})
	}
	// Re-check the coalesce map: an identical submission may have landed
	// while the instance was being built.
	if prev, ok := g.byKey[key]; ok {
		g.mu.Unlock()
		g.tenants.release(tenant)
		return g.join(tr, admitSpan, prev), nil
	}
	g.jobSeq++
	now := g.cfg.now()
	j := &job{
		id:          fmt.Sprintf("j-%d", g.jobSeq),
		num:         g.jobSeq,
		tenant:      tenant,
		key:         key,
		Priority:    prio,
		steps:       sub.Steps,
		sizes:       append([]int(nil), sub.Sizes...),
		seed:        sub.Seed,
		deadline:    now.Add(deadline),
		inst:        inst,
		state:       StateQueued,
		submittedAt: now,
		done:        make(chan struct{}),
		trace:       tr,
	}
	// The queue-wait span must exist before the job is published: a worker
	// may pop it the instant push returns.
	j.queueSpan = tr.StartSpan("queue-wait", trace.SpanID{},
		trace.Attr{Key: "priority", Value: prio.String()})
	if !g.queue.push(j) {
		g.mu.Unlock()
		g.tenants.release(tenant)
		g.shed("queue_full")
		return nil, g.refuse(tr, admitSpan,
			&SubmitError{Code: 429, Reason: "queue_full", RetryAfter: g.retryHint("queue_full", 0)})
	}
	g.jobs[j.id] = j
	g.byKey[key] = j
	g.mu.Unlock()

	g.met.admitted.Inc()
	g.met.queueDepth.Set(float64(g.queue.depth()))
	g.cfg.Flight.Record(flight.EvJob, flight.JobAdmit, j.num, int64(g.queue.depth()))
	return g.status(j), nil
}

// join records one coalesced submission onto the in-flight primary: the
// joiner's trace ends as "coalesced" with a link-span to the primary's
// trace, the primary's trace gets the reverse link, and the caller is
// served the primary's status. Link-carrying traces are always retained,
// so the cross-job causality survives the tail sampler on both sides.
func (g *Gateway) join(tr *trace.Active, admitSpan trace.SpanID, prev *job) *JobStatus {
	prev.mu.Lock()
	prev.coalesced++
	prev.mu.Unlock()
	g.met.coalesced.Inc()
	g.cfg.Flight.Record(flight.EvJob, flight.JobCoalesce, prev.num, int64(g.queue.depth()))
	if tr != nil {
		tr.LinkSpan("coalesce-join", admitSpan, prev.trace.TraceID(),
			trace.Attr{Key: "job", Value: prev.id})
		tr.EndSpan(admitSpan, trace.StatusOK, trace.Attr{Key: "reason", Value: "coalesced"})
		prev.trace.LinkSpan("coalesced-submission", trace.SpanID{}, tr.TraceID())
		tr.End(trace.StatusCoalesced, trace.Attr{Key: "primary", Value: prev.id})
	}
	return g.status(prev)
}

// refuse finalizes a refused submission's trace — shed (429/503) or error
// (4xx) status, both kept unconditionally by the tail sampler — and stamps
// the trace context into the error so the HTTP layer can echo it.
func (g *Gateway) refuse(tr *trace.Active, admitSpan trace.SpanID, serr *SubmitError) *SubmitError {
	if tr == nil {
		return serr
	}
	status := trace.StatusError
	if serr.Code == 429 || serr.Code == 503 {
		status = trace.StatusShed
	}
	tr.Mark("refused", admitSpan, status, trace.Attr{Key: "reason", Value: serr.Reason})
	tr.EndSpan(admitSpan, status)
	tr.End(status)
	serr.Traceparent = tr.Context().Traceparent()
	return serr
}

// validate runs the front-door checks and compiles the spec, recording the
// compile as a child span of the admission decision.
func (g *Gateway) validate(sub Submission, tr *trace.Active, admitSpan trace.SpanID) (*compiler.Checked, *SubmitError) {
	if int64(len(sub.Spec)) > g.cfg.MaxBodyBytes {
		return nil, &SubmitError{Code: 413, Reason: "spec_too_large",
			Err: fmt.Errorf("spec of %d bytes exceeds the %d byte cap", len(sub.Spec), g.cfg.MaxBodyBytes)}
	}
	cspan := tr.StartSpan("compile", admitSpan)
	p, hit := g.plans.get(sub.Spec), "hit"
	if p == nil {
		checked, cst, err := compiler.CompileSourceStats(sub.Spec)
		if err != nil {
			tr.EndSpan(cspan, trace.StatusError, trace.Attr{Key: "cause", Value: err.Error()})
			var le *compiler.LimitError
			if errors.As(err, &le) {
				return nil, &SubmitError{Code: 413, Reason: "spec_limit", Err: err}
			}
			return nil, &SubmitError{Code: 400, Reason: "bad_spec", Err: err}
		}
		p, hit = &plan{src: sub.Spec, checked: checked, stats: cst}, "miss"
		g.plans.put(p)
	}
	tr.EndSpan(cspan, trace.StatusOK,
		trace.Attr{Key: "source_bytes", Value: strconv.Itoa(p.stats.SourceBytes)},
		trace.Attr{Key: "tokens", Value: strconv.Itoa(p.stats.Tokens)},
		trace.Attr{Key: "plan_cache", Value: hit})
	checked := p.checked
	if sub.Steps <= 0 || sub.Steps > g.cfg.MaxSteps {
		return nil, &SubmitError{Code: 400, Reason: "bad_steps",
			Err: fmt.Errorf("steps %d outside (0, %d]", sub.Steps, g.cfg.MaxSteps)}
	}
	if len(sub.Sizes) != checked.Prog.Dims {
		return nil, &SubmitError{Code: 400, Reason: "bad_sizes",
			Err: fmt.Errorf("spec has %d dims, submission has %d sizes", checked.Prog.Dims, len(sub.Sizes))}
	}
	vol := int64(1)
	for _, n := range sub.Sizes {
		if n < 1 {
			return nil, &SubmitError{Code: 400, Reason: "bad_sizes",
				Err: fmt.Errorf("non-positive extent %d", n)}
		}
		vol *= int64(n)
		if vol > g.cfg.MaxGridPoints {
			return nil, &SubmitError{Code: 413, Reason: "grid_too_large",
				Err: fmt.Errorf("grid volume exceeds the %d point cap", g.cfg.MaxGridPoints)}
		}
	}
	return checked, nil
}

// shed counts one shed submission under its reason.
func (g *Gateway) shed(reason string) {
	g.met.shed.get(reason).Inc()
	g.cfg.Flight.Record(flight.EvJob, flight.JobShed, 0, int64(g.queue.depth()))
}

// queueWaitRingSize bounds the observed-wait history behind Retry-After.
const queueWaitRingSize = 64

// recordQueueWait feeds one observed queue wait into the hint ring.
func (g *Gateway) recordQueueWait(d time.Duration) {
	g.waitMu.Lock()
	if len(g.recentWaits) < queueWaitRingSize {
		g.recentWaits = append(g.recentWaits, d)
	} else {
		g.recentWaits[g.waitIdx] = d
		g.waitIdx = (g.waitIdx + 1) % queueWaitRingSize
	}
	g.waitMu.Unlock()
}

// queueWaitMedian returns the median observed queue wait, 0 with no history.
func (g *Gateway) queueWaitMedian() time.Duration {
	g.waitMu.Lock()
	tmp := append([]time.Duration(nil), g.recentWaits...)
	g.waitMu.Unlock()
	if len(tmp) == 0 {
		return 0
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[len(tmp)/2]
}

// retryHint folds the observed queue-wait median into a shed's Retry-After:
// a quota shed must wait for the token refill AND then ride the queue, so
// the hint is their sum; a queue-full shed is bounded below by the static
// hint but grows to the median once the queue is demonstrably slower —
// retrying before a queue-length of time has passed cannot succeed.
func (g *Gateway) retryHint(reason string, refill time.Duration) time.Duration {
	med := g.queueWaitMedian()
	switch reason {
	case "quota":
		if refill <= 0 {
			refill = g.cfg.RetryAfter
		}
		return refill + med
	case "queue_full":
		if med > g.cfg.RetryAfter {
			return med
		}
		return g.cfg.RetryAfter
	default:
		if refill > 0 {
			return refill
		}
		return g.cfg.RetryAfter
	}
}

// traceIDOf renders a job trace's ID for exemplars ("" when untraced).
func traceIDOf(a *trace.Active) string {
	if a == nil {
		return ""
	}
	return a.TraceID().String()
}

// Job returns the status of a job by id, or nil when unknown.
func (g *Gateway) Job(id string) *JobStatus {
	g.mu.Lock()
	j, ok := g.jobs[id]
	g.mu.Unlock()
	if !ok {
		return nil
	}
	return g.status(j)
}

// JobList snapshots every known job, newest first.
func (g *Gateway) JobList() []*JobStatus {
	g.mu.Lock()
	js := make([]*job, 0, len(g.jobs))
	for _, j := range g.jobs {
		js = append(js, j)
	}
	g.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return js[a].num > js[b].num })
	out := make([]*JobStatus, len(js))
	for i, j := range js {
		out[i] = g.status(j)
	}
	return out
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (g *Gateway) Wait(ctx context.Context, id string) (*JobStatus, error) {
	g.mu.Lock()
	j, ok := g.jobs[id]
	g.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gateway: unknown job %q", id)
	}
	select {
	case <-j.done:
		return g.status(j), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// status snapshots a job for serving.
func (g *Gateway) status(j *job) *JobStatus {
	j.mu.Lock()
	st := &JobStatus{
		ID:           j.id,
		Tenant:       j.tenant,
		State:        j.state,
		Priority:     j.Priority.String(),
		Steps:        j.steps,
		Sizes:        append([]int(nil), j.sizes...),
		Coalesced:    j.coalesced,
		DeadlineMS:   j.deadline.Sub(j.submittedAt).Milliseconds(),
		Checksum:     j.checksum,
		Error:        j.errText,
		Retries:      j.retries,
		Degradations: j.degrades,
	}
	if j.trace != nil {
		st.TraceID = j.trace.TraceID().String()
		st.Traceparent = j.trace.Context().Traceparent()
	}
	now := g.cfg.now()
	switch {
	case j.startedAt.IsZero():
		st.QueuedSeconds = now.Sub(j.submittedAt).Seconds()
	case j.finishedAt.IsZero():
		st.QueuedSeconds = j.startedAt.Sub(j.submittedAt).Seconds()
		st.RunSeconds = now.Sub(j.startedAt).Seconds()
	default:
		st.QueuedSeconds = j.startedAt.Sub(j.submittedAt).Seconds()
		st.RunSeconds = j.finishedAt.Sub(j.startedAt).Seconds()
	}
	j.mu.Unlock()

	// The job's live progress entry shares the registry with every other
	// job; the per-job label (= job id) is what makes it findable here.
	if st.State == StateRunning || st.State == StateDone || st.State == StateFailed {
		if p, ok := g.cfg.Metrics.ProgressOf(j.id); ok {
			st.Progress = &p
		}
	}
	return st
}

// worker is one slot of the shared pool: it pops admitted jobs until the
// queue reports closed-and-empty (drain or shutdown).
func (g *Gateway) worker() {
	defer g.workers.Done()
	for {
		j, ok := g.queue.pop()
		if !ok {
			return
		}
		g.met.queueDepth.Set(float64(g.queue.depth()))
		g.runJob(j)
	}
}

// runJob executes one admitted job as a supervised resilient run under its
// deadline and records the terminal state.
func (g *Gateway) runJob(j *job) {
	g.mu.Lock()
	g.running++
	if g.running > g.maxRunning {
		g.maxRunning = g.running
	}
	g.mu.Unlock()
	g.met.running.Inc()
	defer func() {
		g.mu.Lock()
		g.running--
		g.mu.Unlock()
		g.met.running.Dec()
	}()

	now := g.cfg.now()
	j.mu.Lock()
	j.state = StateRunning
	j.startedAt = now
	wait := now.Sub(j.submittedAt)
	j.mu.Unlock()
	g.cfg.Flight.Record(flight.EvJob, flight.JobStart, j.num, int64(g.queue.depth()))
	j.trace.EndSpan(j.queueSpan, trace.StatusOK)
	g.recordQueueWait(wait)
	g.met.queueWait.get(j.Priority.String()).ObserveExemplar(
		wait.Milliseconds(), traceIDOf(j.trace), now.UnixNano())

	var (
		rep *pochoir.RunReport
		err error
	)
	if !now.Before(j.deadline) {
		err = fmt.Errorf("gateway: deadline expired while queued: %w", context.DeadlineExceeded)
		j.trace.Mark("deadline-expired-queued", trace.SpanID{}, trace.StatusDeadline)
	} else {
		ctx, cancel := context.WithDeadline(g.baseCtx, j.deadline)
		opts := pochoir.Options{
			Metrics:       g.cfg.Metrics,
			ProgressLabel: j.id,
			Trace:         j.trace,
		}
		j.inst.Stencil.SetOptions(opts)
		policy := g.cfg.Supervise
		if g.cfg.SpillDir != "" {
			policy.SpillDir = g.cfg.SpillDir + "/" + j.id
		}
		// The whole supervised run carries the job's identity as pprof
		// labels. The supervisor layers engine=..., the walker layers
		// phase=..., and sched workers inherit the merged set, so every
		// CPU sample below attributes to tenant/job/priority whether the
		// capture comes from our own profiler or an external
		// /debug/pprof/profile scrape.
		pprof.Do(ctx, pprof.Labels(
			"tenant", j.tenant,
			"job", j.id,
			"priority", j.Priority.String(),
		), func(rc context.Context) {
			rep, err = j.inst.Stencil.RunSupervised(rc, j.steps, j.inst.Kernel(), policy)
		})
		cancel()
	}

	var sum string
	if err == nil {
		sum = resultChecksum(j.inst, j.steps)
	}
	// The run has returned, so nothing else reads the job's arrays: their
	// storage goes to the grid free list for the next job.
	for _, a := range j.inst.Arrays {
		a.Release()
	}

	now = g.cfg.now()
	j.mu.Lock()
	j.inst = nil
	j.finishedAt = now
	if rep != nil {
		j.retries = rep.Retries
		j.degrades = rep.Degradations
	}
	if err != nil {
		j.state = StateFailed
		j.errText = err.Error()
	} else {
		j.state = StateDone
		j.checksum = sum
	}
	latency := now.Sub(j.submittedAt)
	j.mu.Unlock()

	g.mu.Lock()
	if g.byKey[j.key] == j {
		delete(g.byKey, j.key)
	}
	g.mu.Unlock()
	g.tenants.release(j.tenant)

	outcome := "ok"
	code := int64(flight.JobDone)
	if err != nil {
		code = flight.JobFail
		outcome = "error"
		if errors.Is(err, context.DeadlineExceeded) {
			outcome = "deadline"
		}
	}
	g.met.completed.get(outcome).Inc()
	g.met.latencyMS.ObserveExemplar(latency.Milliseconds(), traceIDOf(j.trace), now.UnixNano())
	if j.trace != nil {
		status := trace.StatusOK
		switch outcome {
		case "deadline":
			status = trace.StatusDeadline
		case "error":
			status = trace.StatusError
		}
		attrs := []trace.Attr{{Key: "job", Value: j.id}, {Key: "outcome", Value: outcome}}
		if err != nil {
			attrs = append(attrs, trace.Attr{Key: "cause", Value: err.Error()})
		}
		j.trace.End(status, attrs...)
	}
	g.cfg.Flight.Record(flight.EvJob, code, j.num, int64(g.queue.depth()))
	close(j.done)
}

// DrainSummary reports what a graceful drain accomplished.
type DrainSummary struct {
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
	TimedOut  bool `json:"timed_out"`
}

// Drain gracefully shuts the gateway down: admission stops (submissions are
// refused with 503), the workers finish every queued and running job (or
// spill it durably when SpillDir is set), and Drain returns once the pool
// is idle or ctx expires. It is the SIGTERM path of cmd/pochoird.
func (g *Gateway) Drain(ctx context.Context) DrainSummary {
	g.mu.Lock()
	already := g.draining
	g.draining = true
	inflight := int64(g.running + g.queue.depth())
	g.mu.Unlock()
	if !already {
		g.cfg.Flight.Record(flight.EvJob, flight.JobDrainBeg, 0, inflight)
	}
	g.queue.close()

	idle := make(chan struct{})
	go func() {
		g.workers.Wait()
		close(idle)
	}()
	var sum DrainSummary
	select {
	case <-idle:
	case <-ctx.Done():
		sum.TimedOut = true
	}

	g.mu.Lock()
	for _, j := range g.jobs {
		j.mu.Lock()
		switch j.state {
		case StateDone:
			sum.Completed++
		case StateFailed:
			sum.Failed++
		}
		j.mu.Unlock()
	}
	g.mu.Unlock()
	g.slo.Close()
	if g.cfg.Profiler != nil {
		g.cfg.Profiler.Stop()
	}
	g.cfg.Flight.Record(flight.EvJob, flight.JobDrainEnd, 0, int64(sum.Completed))
	return sum
}

// Close hard-stops the gateway: running jobs are cancelled through their
// contexts, the queue is closed, and the workers are awaited. Tests use it;
// the daemon prefers Drain.
func (g *Gateway) Close() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	g.cancel()
	g.queue.close()
	g.workers.Wait()
	g.slo.Close()
	if g.cfg.Profiler != nil {
		g.cfg.Profiler.Stop()
	}
}

// MaxRunning returns the high-water mark of concurrently executing jobs;
// the smoke test asserts it never exceeds Config.Workers.
func (g *Gateway) MaxRunning() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.maxRunning
}

// initArrays fills every array's initial time slots with a deterministic
// hash-based field: a pure function of (seed, array order, slot, flat
// index), so identical submissions are identical computations — the
// foundation coalescing and the fault-absorption bit-identity check stand
// on. It writes the slots in place.
func initArrays(inst *compiler.Instance, seed int64) {
	for ai, decl := range inst.Checked.Prog.Arrays {
		arr := inst.Arrays[decl.Name]
		for t := 0; t < inst.Checked.Depth; t++ {
			h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(ai)<<32 + uint64(t)
			slot := arr.Slot(t)
			for i := range slot {
				h ^= uint64(i) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
				h *= 0xbf58476d1ce4e5b9
				slot[i] = float64(h>>11) / float64(1<<53)
			}
		}
	}
}

// resultChecksum hashes the final states (times steps..steps+depth-1) of
// every array in declaration order — the job's bit-identity fingerprint:
// FNV-1a over each value's little-endian IEEE bits, read from the slots in
// place.
func resultChecksum(inst *compiler.Instance, steps int) string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, decl := range inst.Checked.Prog.Arrays {
		arr := inst.Arrays[decl.Name]
		for t := steps; t < steps+inst.Checked.Depth; t++ {
			for _, v := range arr.Slot(t) {
				b := math.Float64bits(v)
				for k := 0; k < 8; k++ {
					h = (h ^ b&0xff) * prime
					b >>= 8
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h)
}
