// Package metrics is the live-observability substrate: a Prometheus-style
// registry of counters, gauges, and histograms that instrumented runs update
// lock-free while an embedded monitor server (see monitor.go) scrapes them.
//
// The walker's decomposition is counted once, in the walk's telemetry
// shards (internal/telemetry); RunMetrics.Fold adds each finished walk's
// Stats to the registry, so those series advance once per walk. What must
// move mid-run — the progress estimator, the active run and worker gauges,
// the supervisor's counters — is updated live.
//
// Concurrency design:
//
//   - Counters are a single int64 atomic. No counter is updated per
//     walker event, so none needs striping across workers.
//
//   - Gauges are a single float64-bits atomic (set/add/max via CAS).
//
//   - Histograms have fixed log-scale (power-of-two) buckets, one atomic
//     cell per bucket; the bucket index is a bit-length computation.
//
//   - The registry lock covers only registration and enumeration (scrapes),
//     never the instrument hot paths.
//
// Arming is strictly opt-in: engines carry nil instrument
// sets by default and every instrumentation point is guarded by a single
// pointer check, so disarmed runs execute the unmodified hot path.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a registered metric for exposition.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one constant key/value pair attached to a metric at registration
// (e.g. engine="TRAP"). Labels distinguish metrics within a family; they are
// fixed for the metric's lifetime.
type Label struct {
	Key, Value string
}

// Desc identifies a metric: family name, help text, and its constant labels
// (sorted by key at registration).
type Desc struct {
	Name   string
	Help   string
	Labels []Label
	kind   Kind
}

// Kind returns the metric kind.
func (d *Desc) Kind() Kind { return d.kind }

// labelString renders the {k="v",...} sample suffix, empty for no labels.
func (d *Desc) labelString() string {
	if len(d.Labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range d.Labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// metric is the common interface of registered instruments.
type metric interface {
	describe() *Desc
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	desc *Desc
	n    atomic.Int64
}

func newCounter(d *Desc) *Counter { return &Counter{desc: d} }

func (c *Counter) describe() *Desc { return c.desc }

// Add increments the counter by n (n must be >= 0 for Prometheus semantics;
// this is not checked).
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total. It is safe to call concurrently with
// increments.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a float64-valued instrument that can go up and down.
type Gauge struct {
	desc *Desc
	bits atomic.Uint64
}

func newGauge(d *Desc) *Gauge { return &Gauge{desc: d} }

func (g *Gauge) describe() *Desc { return g.desc }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the gauge (CAS loop; gauges are updated at coarse
// boundaries — goroutine spawns, segment ends — never per point).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc and Dec adjust the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Exemplar ties a histogram bucket to a recent observation's trace: "a
// request that landed here looked like this". Exposed on _bucket lines in
// the OpenMetrics-style `# {trace_id="..."} value ts` suffix, it is the
// bridge from an aggregate ("p99 is 800ms") to a concrete /tracez entry
// answering why.
type Exemplar struct {
	TraceID string
	Value   int64
	UnixNS  int64
}

// Histogram is a fixed log-scale histogram: bucket i counts observations v
// with v <= 2^i, plus one overflow bucket (+Inf). Observations are a single
// atomic add on the bucket (contention spreads across buckets naturally)
// plus atomic adds on the running sum and count. Each bucket additionally
// holds an optional exemplar pointer — last-writer-wins, one atomic store,
// no coordination — so traced observations leave a resolvable breadcrumb at
// near-zero cost and untraced observations pay only the nil they ignore.
type Histogram struct {
	desc      *Desc
	bounds    []int64        // upper bounds 2^0 .. 2^(n-1)
	counts    []atomic.Int64 // len(bounds)+1; last is +Inf
	exemplars []atomic.Pointer[Exemplar]
	sum       atomic.Int64
	count     atomic.Int64
}

func newHistogram(d *Desc, buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	if buckets > 62 {
		buckets = 62
	}
	h := &Histogram{
		desc:      d,
		bounds:    make([]int64, buckets),
		counts:    make([]atomic.Int64, buckets+1),
		exemplars: make([]atomic.Pointer[Exemplar], buckets+1),
	}
	for i := range h.bounds {
		h.bounds[i] = 1 << i
	}
	return h
}

func (h *Histogram) describe() *Desc { return h.desc }

// addBins adds le[e] observations to the bucket of bound 2^e (e past the
// last bound: +Inf), and sum and count to the running totals.
func (h *Histogram) addBins(le []int64, sum, count int64) {
	for e, n := range le {
		if n != 0 {
			h.counts[min(e, len(h.bounds))].Add(n)
		}
	}
	h.sum.Add(sum)
	h.count.Add(count)
}

// Observe records one observation of v. Values below 1 land in the first
// bucket; values above the last bound land in +Inf.
func (h *Histogram) Observe(v int64) { h.ObserveExemplar(v, "", 0) }

// ObserveExemplar records v like Observe and, when traceID is non-empty,
// stamps the landing bucket's exemplar with the trace that produced it.
func (h *Histogram) ObserveExemplar(v int64, traceID string, unixNS int64) {
	// The smallest idx with v <= 2^idx (the bit length of v-1), or +Inf.
	idx := min(bits.Len64(uint64(max(v, 1)-1)), len(h.bounds))
	h.counts[idx].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[idx].Store(&Exemplar{TraceID: traceID, Value: v, UnixNS: unixNS})
	}
}

// Exemplars returns the current per-bucket exemplars (nil where no traced
// observation has landed), aligned with Buckets' counts.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count and Sum return the total observations and their sum.
func (h *Histogram) Count() int64 { return h.count.Load() }
func (h *Histogram) Sum() int64   { return h.sum.Load() }

// Buckets returns the upper bounds and per-bucket (non-cumulative) counts;
// the final count (one past the last bound) is the +Inf overflow bucket.
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	bounds = append([]int64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// family groups the metrics sharing one name (differing only in labels) for
// exposition: one HELP/TYPE block, then one sample set per member.
type family struct {
	name    string
	help    string
	kind    Kind
	members []metric
}

// Registry holds named metrics and the run-progress set. Registration and
// enumeration take the registry lock; instrument updates never do.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]metric
	families map[string]*family
	epoch    time.Time

	prog progressSet

	// The engine's instrument sets, each resolved on its first request (see
	// NewRunMetrics), so a registry no run uses registers none of them.
	runOnce sync.Once
	run     *RunMetrics
	supOnce sync.Once
	sup     *SupervisorMetrics
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics:  make(map[string]metric),
		families: make(map[string]*family),
		epoch:    time.Now(),
	}
}

// metricKey is the dedup key: family name plus the sorted label string.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0)
		sb.WriteString(l.Key)
		sb.WriteByte(0)
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// newDesc validates and normalizes a metric identity. Invalid names and
// label keys panic: they are programming errors, caught by the first run of
// any instrumented path.
func newDesc(name, help string, kind Kind, labels []Label) *Desc {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for _, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q on %q", l.Key, name))
		}
	}
	return &Desc{Name: name, Help: help, Labels: ls, kind: kind}
}

// register returns the existing metric under the same name+labels (checking
// the kind matches) or stores and returns make().
func (r *Registry) register(name, help string, kind Kind, labels []Label, make func(*Desc) metric) metric {
	d := newDesc(name, help, kind, labels)
	key := metricKey(d.Name, d.Labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.describe().kind != kind {
			panic(fmt.Sprintf("metrics: %s already registered as a %s, requested as %s",
				name, m.describe().kind, kind))
		}
		return m
	}
	m := make(d)
	r.metrics[key] = m
	f, ok := r.families[d.Name]
	if !ok {
		f = &family{name: d.Name, help: d.Help, kind: kind}
		r.families[d.Name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: family %s holds %s metrics, requested %s", name, f.kind, kind))
	}
	f.members = append(f.members, m)
	return m
}

// Counter returns the counter registered under name and labels, creating it
// on first use. Repeated registration with the same identity returns the
// same instrument, so instrument sets may be resolved once per run.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, KindCounter, labels, func(d *Desc) metric { return newCounter(d) }).(*Counter)
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, KindGauge, labels, func(d *Desc) metric { return newGauge(d) }).(*Gauge)
}

// Histogram returns the log-scale histogram registered under name and
// labels, creating it with the given bucket count (upper bounds 2^0 ..
// 2^(buckets-1), plus +Inf) on first use. The bucket count of an existing
// histogram is not changed.
func (r *Registry) Histogram(name, help string, buckets int, labels ...Label) *Histogram {
	return r.register(name, help, KindHistogram, labels, func(d *Desc) metric { return newHistogram(d, buckets) }).(*Histogram)
}

// Uptime reports the time since the registry was created.
func (r *Registry) Uptime() time.Duration { return time.Since(r.epoch) }

// snapshotFamilies returns the families sorted by name, each with members
// sorted by label string — the deterministic enumeration order used by both
// exposition formats.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		members := append([]metric(nil), f.members...)
		sort.Slice(members, func(i, j int) bool {
			return members[i].describe().labelString() < members[j].describe().labelString()
		})
		out = append(out, &family{name: f.name, help: f.help, kind: f.kind, members: members})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(c)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
