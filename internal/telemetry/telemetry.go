// Package telemetry is the execution-observability substrate for the TRAP
// engine: a low-overhead event recorder that captures every decomposition
// decision the walker makes — time cuts, hyperspace cuts with their 3^k
// fanout and k+1 dependency levels, STRAP trisections and circle cuts,
// base-case invocations with zoid volume and clone kind, and the
// scheduler's spawn-vs-inline choices — without perturbing the run it
// observes.
//
// The design has two halves:
//
//   - Recorder owns the clock epoch and a pool of Shards. Telemetry is
//     strictly opt-in: a run's probe carries a *Recorder that is nil by
//     default, and every recording point is guarded by a single pointer
//     check.
//
//   - Shard is a per-worker-goroutine event buffer plus counters. A
//     goroutine acquires a shard when it starts working and releases it
//     when it finishes; all recording then happens on goroutine-private
//     state, so the hot path is an append and a few integer adds with no
//     atomics and no lock contention. Shards are recycled through a free
//     list, so the shard count tracks the number of concurrently live
//     workers — which is exactly the "one track per worker" grouping the
//     Chrome-trace exporter wants.
//
// Aggregation (Snapshot) and export (WriteChromeTrace) must only run while
// the instrumented computation is quiescent — after Walker.Run returns,
// whose fork-join sync publishes every shard's writes.
package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// SpanKind identifies what a recorded span covers.
type SpanKind uint8

const (
	// SpanHyperCut is a TRAP hyperspace cut: k dimensions cut at once,
	// 3^k-ish subzoids processed in k+1 dependency levels (§3, Lemma 1).
	SpanHyperCut SpanKind = iota
	// SpanSpaceCut is a STRAP trisection along a single dimension.
	SpanSpaceCut
	// SpanCircleCut is a STRAP circle cut of a full periodic dimension.
	SpanCircleCut
	// SpanTimeCut is a cut at the midpoint of the time dimension.
	SpanTimeCut
	// SpanBase is a base-case invocation (interior or boundary clone).
	SpanBase
)

func (k SpanKind) String() string {
	switch k {
	case SpanHyperCut:
		return "hyperspace-cut"
	case SpanSpaceCut:
		return "space-cut"
	case SpanCircleCut:
		return "circle-cut"
	case SpanTimeCut:
		return "time-cut"
	case SpanBase:
		return "base"
	}
	return "unknown"
}

// Event is one begin or end marker of a span. Begin events carry the
// span's kind-specific arguments:
//
//	SpanHyperCut:  A0 = dims cut (k), A1 = subzoid fanout, A2 = levels
//	SpanSpaceCut:  A0 = dimension
//	SpanCircleCut: A0 = dimension
//	SpanTimeCut:   A0 = zoid height
//	SpanBase:      A0 = zoid volume (points), A1 = 1 if interior clone,
//	               A2 = zoid height
type Event struct {
	TS    int64 // nanoseconds since the recorder's epoch
	Kind  SpanKind
	Begin bool
	A0    int64
	A1    int64
	A2    int64
}

// MaxCutDims bounds the per-k hyperspace-cut counter array; it matches
// zoid.MaxDims without importing it (telemetry stays dependency-free).
const MaxCutDims = 8

// volumeBuckets is the number of power-of-two histogram buckets; 2^63
// points is beyond any addressable grid.
const volumeBuckets = 64

// Shard is the goroutine-private recording surface. A shard must only be
// used by the goroutine that acquired it, between Acquire and Release.
type Shard struct {
	id     int
	rec    *Recorder
	events []Event
	// open is the stack of begin-event indices with no matching End yet.
	// A panic unwinding through the walker skips End calls; Release closes
	// whatever remains so aborted runs still export balanced span trees.
	open []int

	timeCuts   int64
	hyperCuts  int64
	spaceCuts  int64
	circleCuts int64
	hyperByK   [MaxCutDims + 1]int64
	fanout     int64
	levels     int64

	bases         int64
	interiorBases int64
	basePoints    int64
	baseHist      [volumeBuckets]int64

	spawns  int64
	inlines int64
	busyNS  int64
}

// ID returns the shard's worker-track number.
func (s *Shard) ID() int { return s.id }

func (s *Shard) begin(kind SpanKind, a0, a1, a2 int64) int {
	idx := len(s.events)
	s.events = append(s.events, Event{TS: s.rec.now(), Kind: kind, Begin: true, A0: a0, A1: a1, A2: a2})
	s.open = append(s.open, idx)
	return idx
}

// End closes the span opened by the begin call that returned idx. For base
// spans it also accumulates the shard's busy time.
func (s *Shard) End(idx int) {
	// Pop the open stack down through idx; on the non-failing path the top
	// is exactly idx and this is a single pop.
	for n := len(s.open); n > 0 && s.open[n-1] >= idx; n-- {
		s.open = s.open[:n-1]
	}
	ev := s.events[idx]
	now := s.rec.now()
	s.events = append(s.events, Event{TS: now, Kind: ev.Kind})
	if ev.Kind == SpanBase {
		s.busyNS += now - ev.TS
	}
}

// closeOpenSpans emits End events for every span a panic left open,
// innermost first, charging any aborted base span's partial busy time.
func (s *Shard) closeOpenSpans() {
	for n := len(s.open); n > 0; n-- {
		ev := s.events[s.open[n-1]]
		now := s.rec.now()
		s.events = append(s.events, Event{TS: now, Kind: ev.Kind})
		if ev.Kind == SpanBase {
			s.busyNS += now - ev.TS
		}
	}
	s.open = s.open[:0]
}

// HyperCut records the start of a hyperspace cut over k dimensions that
// produced fanout subzoids in levels dependency levels.
func (s *Shard) HyperCut(k, fanout, levels int) int {
	s.hyperCuts++
	if k >= 0 && k <= MaxCutDims {
		s.hyperByK[k]++
	}
	s.fanout += int64(fanout)
	s.levels += int64(levels)
	return s.begin(SpanHyperCut, int64(k), int64(fanout), int64(levels))
}

// SpaceCut records the start of a STRAP cut along dim; circle selects the
// periodic full-extent variant.
func (s *Shard) SpaceCut(dim int, circle bool) int {
	if circle {
		s.circleCuts++
		return s.begin(SpanCircleCut, int64(dim), 0, 0)
	}
	s.spaceCuts++
	return s.begin(SpanSpaceCut, int64(dim), 0, 0)
}

// TimeCut records the start of a time cut of a height-h zoid.
func (s *Shard) TimeCut(h int) int {
	s.timeCuts++
	return s.begin(SpanTimeCut, int64(h), 0, 0)
}

// Base records the start of a base-case invocation over volume space-time
// points of a height-h zoid, dispatched to the interior or boundary clone.
func (s *Shard) Base(volume int64, interior bool, h int) int {
	s.bases++
	s.basePoints += volume
	s.baseHist[log2Bucket(volume)]++
	in := int64(0)
	if interior {
		s.interiorBases++
		in = 1
	}
	return s.begin(SpanBase, volume, in, int64(h))
}

// Spawned and Inlined count the walker's decisions to run subzoids on fresh
// goroutines vs. the current one.
func (s *Shard) Spawned(n int) { s.spawns += int64(n) }
func (s *Shard) Inlined(n int) { s.inlines += int64(n) }

// log2Bucket returns the histogram bucket of v: floor(log2(v)), clamped.
func log2Bucket(v int64) int {
	b := 0
	for v > 1 && b < volumeBuckets-1 {
		v >>= 1
		b++
	}
	return b
}

// SupKind classifies one supervisor decision (see SupEvent). The
// supervision layer in internal/resilience emits these into its report and
// its one observer hook; telemetry only defines the type, keeping the
// package dependency-free.
type SupKind uint8

const (
	// SupSegmentStart marks the beginning of a time segment.
	SupSegmentStart SupKind = iota
	// SupSegmentDone marks a segment that completed (and, when enabled,
	// verified) successfully.
	SupSegmentDone
	// SupSegmentFail marks one failed attempt at a segment: kernel panic,
	// engine panic, deadline blowout, or verification mismatch.
	SupSegmentFail
	// SupCheckpoint marks an inter-segment checkpoint.
	SupCheckpoint
	// SupRestore marks a rollback to the segment's checkpoint before a retry.
	SupRestore
	// SupBackoff marks a jittered exponential-backoff wait before a retry.
	SupBackoff
	// SupDegrade marks a step down the engine degradation ladder.
	SupDegrade
	// SupVerifyOK marks a shadow verification that matched.
	SupVerifyOK
	// SupVerifyMismatch marks a shadow verification that caught divergence.
	SupVerifyMismatch
	// SupGiveUp marks attempt-budget exhaustion: the supervisor returns the
	// segment's last error to the caller.
	SupGiveUp
	// SupSpill marks a segment checkpoint persisted to the durable spill
	// journal (or, with Err set, a spill that failed; the run continues
	// with durability degraded).
	SupSpill
	// SupResume marks a cross-process resume decision: a fresh process
	// restored the newest good journal entry (Err empty; Attempt carries the
	// restored resume cursor) or fell back to a cold start (Err describes
	// why).
	SupResume
)

func (k SupKind) String() string {
	switch k {
	case SupSegmentStart:
		return "segment-start"
	case SupSegmentDone:
		return "segment-done"
	case SupSegmentFail:
		return "segment-fail"
	case SupCheckpoint:
		return "checkpoint"
	case SupRestore:
		return "restore"
	case SupBackoff:
		return "retry-backoff"
	case SupDegrade:
		return "degrade"
	case SupVerifyOK:
		return "verify-ok"
	case SupVerifyMismatch:
		return "verify-mismatch"
	case SupGiveUp:
		return "give-up"
	case SupSpill:
		return "spill"
	case SupResume:
		return "resume"
	}
	return "unknown"
}

// SupEvent is one typed, timestamped supervisor decision.
type SupEvent struct {
	TS      int64 // nanoseconds since the supervised run started; stamped on emit
	Kind    SupKind
	Segment int    // segment index, 0-based
	Attempt int    // attempt number within the segment, 1-based
	Engine  string // engine in effect (TRAP, STRAP, LOOPS)
	// Delay is the backoff delay (SupBackoff), the spill's duration
	// (SupSpill), or the watchdog timeout of a SupSegmentFail the watchdog
	// caused.
	Delay time.Duration
	// Count is the bytes written (SupSpill) or the corrupt journal entries
	// skipped (SupResume).
	Count int64
	Err   string // failure description, when applicable
}

// String renders the event as a one-line log entry:
//
//	+12.345ms seg 3 attempt 2 [STRAP] retry-backoff delay=20ms
func (e SupEvent) String() string {
	s := fmt.Sprintf("%+9.3fms seg %d attempt %d [%s] %s",
		float64(e.TS)/1e6, e.Segment, e.Attempt, e.Engine, e.Kind)
	if e.Delay != 0 {
		s += fmt.Sprintf(" delay=%v", e.Delay)
	}
	if e.Err != "" {
		s += ": " + e.Err
	}
	return s
}

// Recorder owns the epoch clock, the shard pool, and the wall-time
// accounting. The zero value is not usable; call New.
type Recorder struct {
	epoch time.Time

	mu       sync.Mutex
	shards   []*Shard
	free     []*Shard
	wallNS   int64
	runStart time.Time
	running  int
}

// New creates an empty recorder. Pass it to the engine via
// pochoir.Options.Telemetry to enable recording.
func New() *Recorder {
	return &Recorder{epoch: time.Now()}
}

func (r *Recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// Acquire hands out a worker shard, recycling released ones so shard ids
// track concurrently live workers. It is called at goroutine spawn
// boundaries only, never per event.
func (r *Recorder) Acquire() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		s := r.free[n-1]
		r.free = r.free[:n-1]
		return s
	}
	s := &Shard{id: len(r.shards), rec: r}
	r.shards = append(r.shards, s)
	return s
}

// Release returns a shard to the pool when its goroutine finishes. Spans
// the goroutine left open — only possible when a panic unwound through the
// instrumented recursion — are closed first, so every released shard holds
// a balanced event sequence (a no-op on the ordinary path).
func (r *Recorder) Release(s *Shard) {
	s.closeOpenSpans()
	r.mu.Lock()
	r.free = append(r.free, s)
	r.mu.Unlock()
}

// RunStarted marks the beginning of an instrumented run; wall time
// accumulates between RunStarted and RunFinished (nested pairs count the
// outermost interval once).
func (r *Recorder) RunStarted() {
	r.mu.Lock()
	if r.running == 0 {
		r.runStart = time.Now()
	}
	r.running++
	r.mu.Unlock()
}

// RunFinished closes the interval opened by RunStarted.
func (r *Recorder) RunFinished() {
	r.mu.Lock()
	r.running--
	if r.running == 0 {
		r.wallNS += time.Since(r.runStart).Nanoseconds()
	}
	r.mu.Unlock()
}

// Workers returns the number of distinct worker shards created so far.
func (r *Recorder) Workers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.shards)
}

// Snapshot aggregates all shards into cumulative Stats. It must only be
// called while no instrumented run is executing.
func (r *Recorder) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Wall:       time.Duration(r.wallNS),
		Workers:    len(r.shards),
		WorkerBusy: make([]time.Duration, len(r.shards)),
	}
	for i, s := range r.shards {
		st.TimeCuts += s.timeCuts
		st.HyperCuts += s.hyperCuts
		st.SpaceCuts += s.spaceCuts
		st.CircleCuts += s.circleCuts
		for k := range s.hyperByK {
			st.HyperByK[k] += s.hyperByK[k]
		}
		st.Fanout += s.fanout
		st.Levels += s.levels
		st.Bases += s.bases
		st.InteriorBases += s.interiorBases
		st.BasePoints += s.basePoints
		for b := range s.baseHist {
			st.BaseVolumeHist[b] += s.baseHist[b]
		}
		st.Spawns += s.spawns
		st.Inlines += s.inlines
		st.WorkerBusy[i] = time.Duration(s.busyNS)
		st.Events += int64(len(s.events))
	}
	return st
}
