// Package telemetry counts the TRAP engine's decomposition: time cuts,
// hyperspace cuts with their 3^k fanout and k+1 dependency levels, STRAP
// trisections and circle cuts, base cases with their volume histogram and
// clone kind, the scheduler's spawn-vs-inline choices, and per-worker busy
// time. It keeps counters only; the spans of a walk go to the run's trace
// (internal/trace), the one span model.
//
// The design has two halves:
//
//   - Recorder owns the clock epoch and a pool of Shards. Telemetry is
//     strictly opt-in: a run's probe carries a *Recorder that is nil by
//     default, and every recording point is guarded by a single pointer
//     check.
//
//   - Shard is one worker goroutine's counters. A goroutine acquires a shard
//     when it starts working and releases it when it finishes; all
//     recording then happens on goroutine-private state, so the hot path is
//     a few integer adds with no atomics and no lock contention. Shards are
//     recycled through a free list, so the shard count tracks the number of
//     concurrently live workers.
//
// Aggregation (Snapshot) must only run while the instrumented computation
// is quiescent — after Walker.Run returns, whose fork-join sync publishes
// every shard's writes.
package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// MaxCutDims bounds the per-k hyperspace-cut counter array; it matches
// zoid.MaxDims without importing it (telemetry stays dependency-free).
const MaxCutDims = 8

// volumeBuckets is the number of power-of-two histogram buckets; 2^63
// points is beyond any addressable grid.
const volumeBuckets = 64

// Shard is the goroutine-private recording surface. A shard must only be
// used by the goroutine that acquired it, between Acquire and Release.
type Shard struct {
	rec *Recorder
	// baseStart is the clock at the open base case's start. Base cases
	// never nest on one goroutine, so one slot is all the busy-time
	// accounting needs.
	baseStart int64
	inBase    bool

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

// End closes the open base case, charging its time to the shard's busy
// time; with none open it does nothing.
func (s *Shard) End() {
	if s.inBase {
		s.inBase = false
		s.busyNS += s.rec.now() - s.baseStart
	}
}

// HyperCut counts a hyperspace cut over k dimensions that produced fanout
// subzoids in levels dependency levels.
func (s *Shard) HyperCut(k, fanout, levels int) {
	s.hyperCuts++
	if k >= 0 && k <= MaxCutDims {
		s.hyperByK[k]++
	}
	s.fanout += int64(fanout)
	s.levels += int64(levels)
}

// SpaceCut counts a STRAP cut; circle selects the periodic full-extent
// variant.
func (s *Shard) SpaceCut(circle bool) {
	if circle {
		s.circleCuts++
	} else {
		s.spaceCuts++
	}
}

// TimeCut counts a time cut.
func (s *Shard) TimeCut() { s.timeCuts++ }

// Base opens a base-case invocation over volume space-time points,
// dispatched to the interior or boundary clone; End closes it.
func (s *Shard) Base(volume int64, interior bool) {
	s.bases++
	s.basePoints += volume
	s.baseHist[log2Bucket(volume)]++
	if interior {
		s.interiorBases++
	}
	s.inBase, s.baseStart = true, s.rec.now()
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

// Acquire hands out a worker shard, recycling released ones so the shard
// count tracks concurrently live workers. It is called at goroutine spawn
// boundaries only, never per event.
func (r *Recorder) Acquire() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		s := r.free[n-1]
		r.free = r.free[:n-1]
		return s
	}
	s := &Shard{rec: r}
	r.shards = append(r.shards, s)
	return s
}

// Release returns a shard to the pool when its goroutine finishes. A base
// case a panic left open is charged its partial busy time first.
func (r *Recorder) Release(s *Shard) {
	s.End()
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
	}
	return st
}
