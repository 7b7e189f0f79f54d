// Package trace is the causal spine of the serving stack: a stdlib-only
// tracer that gives every gateway job a 128-bit trace ID (accepted from or
// emitted as a W3C traceparent header) and a span tree covering the job's
// whole life — admission decision, queue wait, DSL compile, the supervised
// run, every segment attempt with its retry/degradation/spill cause, and
// shadow verification. Coalesced submissions that join an in-flight run get
// link-spans referencing the primary run's trace, so cross-job causality
// survives deduplication.
//
// Recording design:
//
//   - Active traces live in a small sharded map (shard = low bits of the
//     trace ID), so concurrent jobs touch disjoint locks. Within one trace,
//     spans append to a preallocated buffer under a per-trace mutex; a job's
//     spans are produced by at most a handful of goroutines (the HTTP
//     handler, one pool worker, an occasional coalescing submitter), so the
//     per-trace lock is uncontended in practice and the recording cost is a
//     few dozen nanoseconds per span.
//
//   - Completed traces pass through a tail-based sampler: traces that ended
//     in error, shed, or deadline are kept at 100%, traces slower than the
//     tail quantile of recent root durations are kept (the "why was p99
//     slow" evidence), traces carrying cross-trace links are kept, and fast
//     successes are kept with a small probability. Everything else is
//     dropped, so the retained store holds exactly the traces an operator
//     would ask for.
//
//   - The retained store is bounded (FIFO eviction), indexable by trace ID,
//     and serves /tracez: ASCII waterfalls, slowest/errored lists, and the
//     schema-versioned pochoir-trace/v1 JSON export.
//
// ID generation is deterministic under Config.Seed (tests pin the sampler's
// keep/drop sequence), and the clock is injectable, so the whole pipeline
// runs under a fake clock with zero real sleeps.
package trace

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Status values a span or trace can end with. Any status other than
// StatusOK marks the trace for 100% retention by the tail sampler.
const (
	StatusOK        = "ok"
	StatusError     = "error"
	StatusDeadline  = "deadline"
	StatusShed      = "shed"
	StatusCoalesced = "coalesced"
)

// Attr is one key/value annotation on a span (engine, cause, priority...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in a trace. StartNS/EndNS are nanoseconds
// since the tracer's epoch; EndNS == 0 means the span is still open (only
// visible in live snapshots, e.g. a post-mortem of a mid-flight run). Lane
// is the goroutine track the span ran on: 0 for the job's own, N > 0 for a
// walk's spawned tasks (see StartWalkSpan).
type Span struct {
	ID      SpanID  `json:"span_id"`
	Parent  SpanID  `json:"parent_id,omitempty"`
	Name    string  `json:"name"`
	Lane    int     `json:"lane,omitempty"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
	Status  string  `json:"status,omitempty"`
	Attrs   []Attr  `json:"attrs,omitempty"`
	Link    TraceID `json:"link,omitempty"`
}

// DurationNS returns the span's duration (0 while open).
func (s *Span) DurationNS() int64 {
	if s.EndNS == 0 {
		return 0
	}
	return s.EndNS - s.StartNS
}

// Attr returns the value of the named attribute, or "".
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is one finalized (or snapshotted) trace: the span tree plus the
// sampler's verdict.
type Trace struct {
	ID     TraceID `json:"trace_id"`
	Root   SpanID  `json:"root_id"`
	Status string  `json:"status"`
	// KeepReason records why the tail sampler retained the trace:
	// "status" (error/shed/deadline), "tail" (slow outlier), "link"
	// (cross-trace causality), "sampled" (probabilistic), or "live"
	// (snapshot of a still-active trace).
	KeepReason string `json:"keep_reason"`
	// EpochUnixNS anchors the relative span clocks in absolute time.
	EpochUnixNS int64  `json:"epoch_unix_ns"`
	StartNS     int64  `json:"start_ns"`
	EndNS       int64  `json:"end_ns"`
	Spans       []Span `json:"spans"`
}

// DurationNS returns the root span's duration.
func (t *Trace) DurationNS() int64 { return t.EndNS - t.StartNS }

// Find returns the span with the given ID, or nil.
func (t *Trace) Find(id SpanID) *Span {
	for i := range t.Spans {
		if t.Spans[i].ID == id {
			return &t.Spans[i]
		}
	}
	return nil
}

// Config tunes the tracer. The zero value is usable.
type Config struct {
	// Capacity bounds the retained-trace store (FIFO eviction).
	// Default 256.
	Capacity int
	// SampleProb is the probability a fast, successful, link-free trace
	// is kept anyway. Default 0.05; negative disables probabilistic keeps.
	SampleProb float64
	// TailWindow is how many recent root durations feed the tail
	// estimate. Default 512.
	TailWindow int
	// TailQuantile is the keep threshold over recent durations: a trace
	// at or above this quantile is a tail outlier and is kept. Default
	// 0.99.
	TailQuantile float64
	// MinTailSamples gates the tail rule until enough durations have been
	// observed to estimate the quantile. Default 32.
	MinTailSamples int
	// Seed seeds both ID generation and the sampling RNG, making keep/
	// drop decisions reproducible. 0 seeds from the wall clock.
	Seed int64
	// Clock overrides the span clock: nanoseconds since the tracer's
	// epoch. Nil uses the real monotonic clock.
	Clock func() int64
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SampleProb == 0 {
		c.SampleProb = 0.05
	}
	if c.TailWindow <= 0 {
		c.TailWindow = 512
	}
	if c.TailQuantile <= 0 || c.TailQuantile >= 1 {
		c.TailQuantile = 0.99
	}
	if c.MinTailSamples <= 0 {
		c.MinTailSamples = 32
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

const numShards = 16

// actShard is one lane of the active-trace map.
type actShard struct {
	mu     sync.Mutex
	active map[TraceID]*Active
}

// Stats is the tracer's sampling ledger.
type Stats struct {
	Started  uint64 `json:"started"`
	Kept     uint64 `json:"kept"`
	Dropped  uint64 `json:"dropped"`
	Retained int    `json:"retained"`
	// TailNS is the current tail-quantile threshold in nanoseconds (0
	// until MinTailSamples durations have been observed).
	TailNS int64 `json:"tail_ns"`
}

// Tracer records, samples, and retains traces. A nil *Tracer is the
// disabled tracer: StartTrace returns nil and every method on the nil
// Active no-ops, so call sites need no guards.
type Tracer struct {
	cfg   Config
	epoch time.Time
	clock func() int64

	idSeq atomic.Uint64 // ID generation: splitmix64(seed + seq)

	shards [numShards]actShard

	mu       sync.Mutex
	retained map[TraceID]*Trace
	order    []TraceID // FIFO eviction order
	durs     []int64   // ring of recent root durations
	durIdx   int
	durN     int
	sorted   []int64 // durs[:durN] in ascending order, the tail quantile's index
	rngState uint64  // sampler RNG, guarded by mu

	started atomic.Uint64
	kept    atomic.Uint64
	dropped atomic.Uint64
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{
		cfg:      cfg,
		epoch:    time.Now(),
		retained: make(map[TraceID]*Trace),
		durs:     make([]int64, cfg.TailWindow),
		sorted:   make([]int64, 0, cfg.TailWindow),
		rngState: uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15,
	}
	t.idSeq.Store(uint64(cfg.Seed))
	if cfg.Clock != nil {
		t.clock = cfg.Clock
	} else {
		t.clock = func() int64 { return int64(time.Since(t.epoch)) }
	}
	for i := range t.shards {
		t.shards[i].active = make(map[TraceID]*Active)
	}
	return t
}

// splitmix64 is the ID/RNG mixer (Vigna's splitmix64 output function).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newTraceID derives a fresh 128-bit ID from the seeded sequence.
func (t *Tracer) newTraceID() TraceID {
	n := t.idSeq.Add(2)
	var id TraceID
	putUint64(id[:8], splitmix64(n-1))
	putUint64(id[8:], splitmix64(n))
	if id.IsZero() { // astronomically unlikely; zero is the sentinel
		id[15] = 1
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	putUint64(id[:], splitmix64(t.idSeq.Add(1)))
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// Active is one in-flight trace: the span buffer plus the handle every
// recording layer holds. All methods are safe on a nil receiver and safe
// for concurrent use.
type Active struct {
	t    *Tracer
	id   TraceID
	root SpanID

	mu    sync.Mutex
	spans []Span
	links int
	walk  int // decomposition spans stored, at most MaxWalkSpans
	ended bool
}

// MaxWalkSpans caps the decomposition spans — a walk's cuts and base cases —
// one trace stores, so a trace's memory stays bounded however finely a run
// decomposes. An 8192²×16 heat2d run records 1,919 of them and a served
// 192²×32 job 61; past the cap StartWalkSpan stores nothing.
const MaxWalkSpans = 4096

// StartTrace opens a trace with a root span of the given name. When parent
// carries a trace ID (a caller-supplied traceparent), the trace adopts it
// and the root span records parent.SpanID as its parent; otherwise a fresh
// ID is generated. Returns nil on a nil tracer.
func (t *Tracer) StartTrace(name string, parent Context, attrs ...Attr) *Active {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	id := parent.TraceID
	if id.IsZero() {
		id = t.newTraceID()
	}
	a := &Active{
		t:     t,
		id:    id,
		root:  t.newSpanID(),
		spans: make([]Span, 0, 16),
	}
	a.spans = append(a.spans, Span{
		ID:      a.root,
		Parent:  parent.SpanID,
		Name:    name,
		StartNS: t.clock(),
		Attrs:   attrs,
	})
	sh := &t.shards[id[15]&(numShards-1)]
	sh.mu.Lock()
	sh.active[id] = a
	sh.mu.Unlock()
	return a
}

// TraceID returns the trace's ID (zero on nil).
func (a *Active) TraceID() TraceID {
	if a == nil {
		return TraceID{}
	}
	return a.id
}

// Root returns the root span's ID (zero on nil).
func (a *Active) Root() SpanID {
	if a == nil {
		return SpanID{}
	}
	return a.root
}

// Context returns the trace's propagation context (trace ID + root span),
// the value Traceparent renders.
func (a *Active) Context() Context {
	if a == nil {
		return Context{}
	}
	return Context{TraceID: a.id, SpanID: a.root}
}

// StartSpan opens a child span under parent (zero parent attaches to the
// root span) and returns its ID.
func (a *Active) StartSpan(name string, parent SpanID, attrs ...Attr) SpanID {
	return a.add(false, Span{Name: name, Parent: parent, Attrs: attrs})
}

// StartWalkSpan opens one span of a walk's decomposition on lane, as
// StartSpan does, while the trace holds fewer than MaxWalkSpans of them.
// Past the cap it stores nothing and returns the zero ID.
func (a *Active) StartWalkSpan(lane int, name string, parent SpanID, attrs ...Attr) SpanID {
	return a.add(true, Span{Name: name, Parent: parent, Lane: lane, Attrs: attrs})
}

// Mark records a zero-duration marker span (checkpoint, degrade, spill...).
func (a *Active) Mark(name string, parent SpanID, status string, attrs ...Attr) SpanID {
	return a.add(false, Span{Name: name, Parent: parent, Status: status, Attrs: attrs, EndNS: -1})
}

// LinkSpan records a zero-duration span that references another trace —
// the coalesce-join edge. Traces holding links are always retained.
func (a *Active) LinkSpan(name string, parent SpanID, other TraceID, attrs ...Attr) SpanID {
	return a.add(false, Span{Name: name, Parent: parent, Status: StatusOK, Attrs: attrs, Link: other, EndNS: -1})
}

// add stores s, stamped with a fresh ID and the current time, under its
// parent (zero: the root); EndNS -1 asks for a zero-duration marker. A walk
// span counts against MaxWalkSpans. It returns the zero ID on a nil or
// ended trace, or for a walk span past the cap.
func (a *Active) add(walk bool, s Span) SpanID {
	if a == nil {
		return SpanID{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ended || walk && a.walk >= MaxWalkSpans {
		return SpanID{}
	}
	if walk {
		a.walk++
	}
	if !s.Link.IsZero() {
		a.links++
	}
	if s.Parent.IsZero() {
		s.Parent = a.root
	}
	s.ID = a.t.newSpanID()
	s.StartNS = a.t.clock()
	if s.EndNS < 0 {
		s.EndNS = s.StartNS
	}
	a.spans = append(a.spans, s)
	return s.ID
}

// EndSpan closes the span with a status, appending any final attributes.
// The search runs from the newest span, where a closing span almost always
// is, so closing n nested spans costs O(n), not O(n²).
func (a *Active) EndSpan(id SpanID, status string, attrs ...Attr) {
	if a == nil || id.IsZero() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := len(a.spans) - 1; i >= 0; i-- {
		if a.spans[i].ID == id && a.spans[i].EndNS == 0 {
			a.spans[i].EndNS = a.t.clock()
			a.spans[i].Status = status
			a.spans[i].Attrs = append(a.spans[i].Attrs, attrs...)
			return
		}
	}
}

// Snapshot returns a live view of the trace so far (open spans keep
// EndNS 0) — the post-mortem path, which must capture a trace that will
// never be finalized. Safe concurrently with recording.
func (a *Active) Snapshot() *Trace {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tr := &Trace{
		ID:          a.id,
		Root:        a.root,
		Status:      a.spans[0].Status,
		KeepReason:  "live",
		EpochUnixNS: a.t.epoch.UnixNano(),
		StartNS:     a.spans[0].StartNS,
		EndNS:       a.t.clock(),
		Spans:       append([]Span(nil), a.spans...),
	}
	if tr.Status == "" {
		tr.Status = "running"
	}
	return tr
}

// End finalizes the trace: the root span closes with status, the tail
// sampler decides keep/drop, and a kept trace becomes retrievable from the
// tracer's retained store. Reports whether the trace was kept. Idempotent;
// later span operations on the handle are no-ops.
func (a *Active) End(status string, attrs ...Attr) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return false
	}
	a.ended = true
	now := a.t.clock()
	root := &a.spans[0]
	if root.EndNS == 0 {
		root.EndNS = now
		root.Status = status
		root.Attrs = append(root.Attrs, attrs...)
	}
	// Close any spans left open so the exported tree is balanced even when
	// a layer above lost track (e.g. a deadline fired mid-segment).
	for i := range a.spans {
		if a.spans[i].EndNS == 0 {
			a.spans[i].EndNS = now
			if a.spans[i].Status == "" {
				a.spans[i].Status = status
			}
		}
	}
	spans := a.spans
	links := a.links
	a.mu.Unlock()

	t := a.t
	sh := &t.shards[a.id[15]&(numShards-1)]
	sh.mu.Lock()
	delete(sh.active, a.id)
	sh.mu.Unlock()

	dur := spans[0].EndNS - spans[0].StartNS
	keep, reason := t.decide(status, dur, links > 0)
	if !keep {
		t.dropped.Add(1)
		return false
	}
	t.kept.Add(1)
	tr := &Trace{
		ID:          a.id,
		Root:        a.root,
		Status:      status,
		KeepReason:  reason,
		EpochUnixNS: t.epoch.UnixNano(),
		StartNS:     spans[0].StartNS,
		EndNS:       spans[0].EndNS,
		Spans:       spans,
	}
	t.mu.Lock()
	if _, dup := t.retained[tr.ID]; !dup {
		t.retained[tr.ID] = tr
		t.order = append(t.order, tr.ID)
		for len(t.order) > t.cfg.Capacity {
			delete(t.retained, t.order[0])
			t.order = t.order[1:]
		}
	} else {
		t.retained[tr.ID] = tr // same ID re-traced: newest wins
	}
	t.mu.Unlock()
	return true
}

// decide is the tail sampler: keep everything abnormal, keep the slow
// tail, keep cross-trace links, probabilistically keep a few fast
// successes, drop the rest. It also feeds the duration ring.
func (t *Tracer) decide(status string, durNS int64, hasLink bool) (bool, string) {
	t.mu.Lock()
	defer t.mu.Unlock()

	tail := t.tailThresholdLocked()
	// Feed the ring before deciding is tempting but wrong: a burst of
	// identical slow traces would raise the bar against itself and drop
	// all but the first. Decide against the prior window, then record.
	if t.durN == len(t.durs) {
		i, _ := slices.BinarySearch(t.sorted, t.durs[t.durIdx])
		t.sorted = slices.Delete(t.sorted, i, i+1)
	} else {
		t.durN++
	}
	i, _ := slices.BinarySearch(t.sorted, durNS)
	t.sorted = slices.Insert(t.sorted, i, durNS)
	t.durs[t.durIdx] = durNS
	t.durIdx = (t.durIdx + 1) % len(t.durs)

	if status != StatusOK {
		return true, "status"
	}
	if hasLink {
		return true, "link"
	}
	if tail > 0 && durNS >= tail {
		return true, "tail"
	}
	if t.cfg.SampleProb > 0 {
		t.rngState = splitmix64(t.rngState)
		if float64(t.rngState>>11)/float64(1<<53) < t.cfg.SampleProb {
			return true, "sampled"
		}
	}
	return false, ""
}

// tailThresholdLocked returns the current tail-quantile duration, or 0
// while the window is still warming up: one index into the sorted shadow
// of the ring.
func (t *Tracer) tailThresholdLocked() int64 {
	if t.durN < t.cfg.MinTailSamples {
		return 0
	}
	idx := int(float64(t.durN) * t.cfg.TailQuantile)
	if idx >= t.durN {
		idx = t.durN - 1
	}
	return t.sorted[idx]
}

// Get returns the retained trace with the given ID, or nil. It also
// resolves still-active traces (as live snapshots), so an exemplar pointing
// at a long run mid-flight still renders.
func (t *Tracer) Get(id TraceID) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	tr := t.retained[id]
	t.mu.Unlock()
	if tr != nil {
		return tr
	}
	sh := &t.shards[id[15]&(numShards-1)]
	sh.mu.Lock()
	a := sh.active[id]
	sh.mu.Unlock()
	return a.Snapshot() // nil-safe: nil Active snapshots to nil
}

// Traces returns the retained traces, newest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.order))
	for i := len(t.order) - 1; i >= 0; i-- {
		if tr := t.retained[t.order[i]]; tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Slowest returns up to n retained traces by descending root duration.
func (t *Tracer) Slowest(n int) []*Trace {
	out := t.Traces()
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurationNS() > out[j].DurationNS() })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Errored returns up to n retained traces whose status is not ok, newest
// first.
func (t *Tracer) Errored(n int) []*Trace {
	var out []*Trace
	for _, tr := range t.Traces() {
		if tr.Status != StatusOK {
			out = append(out, tr)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// Stats returns the sampling ledger.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	retained := len(t.retained)
	tail := t.tailThresholdLocked()
	t.mu.Unlock()
	return Stats{
		Started:  t.started.Load(),
		Kept:     t.kept.Load(),
		Dropped:  t.dropped.Load(),
		Retained: retained,
		TailNS:   tail,
	}
}
