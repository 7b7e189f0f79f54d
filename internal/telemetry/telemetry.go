// Package telemetry counts the TRAP engine's decomposition: time cuts,
// hyperspace cuts with their 3^k fanout and k+1 dependency levels, STRAP
// trisections and circle cuts, base cases with their volume histogram and
// clone kind, the scheduler's spawn-vs-inline choices, and per-worker busy
// time. It keeps counters only; the spans of a walk go to the run's trace
// (internal/trace), the one span model.
//
// The design has three parts:
//
//   - Walk is the counter set of one walk (one Run, or one attempt at a
//     supervised segment) and a pool of its Shards. Each walker event is
//     counted once, in a shard. The walk's Stats, taken once after
//     Walker.Run returns (whose fork-join sync publishes every shard's
//     writes), feed every consumer: LastRunStats, a Recorder, the registry.
//
//   - Shard is one worker goroutine's counters, held between Acquire and
//     Release, so the hot path is a few integer adds with no atomics and no
//     lock contention. Released shards are recycled, so the shard count
//     tracks the number of concurrently live workers.
//
//   - Recorder accumulates the Stats of finished walks; its Snapshot is
//     safe at any time, from any goroutine.
package telemetry

import (
	"fmt"
	"math/bits"
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
	walk *Walk
	// baseStart is the clock at the open base case's start. Base cases
	// never nest on one goroutine, so one slot is all the busy-time
	// accounting needs.
	baseStart int64
	inBase    bool
	busyNS    int64

	// c holds the shard's counters but for the volume histograms, which
	// Walk.Stats derives from baseVol.
	c Stats
	// baseVol[p][e] counts base cases whose volume has the cell (e, p) of
	// volumeCell: one increment serves both of Stats' histograms.
	baseVol [2][volumeBuckets]int64
}

// End closes the open base case, charging its time to the shard's busy
// time; with none open it does nothing.
func (s *Shard) End() {
	if s.inBase {
		s.inBase = false
		s.busyNS += s.walk.now() - s.baseStart
	}
}

// HyperCut counts a hyperspace cut over k dimensions that produced fanout
// subzoids in levels dependency levels.
func (s *Shard) HyperCut(k, fanout, levels int) {
	s.c.HyperCuts++
	if k >= 0 && k <= MaxCutDims {
		s.c.HyperByK[k]++
	}
	s.c.Fanout += int64(fanout)
	s.c.Levels += int64(levels)
}

// SpaceCut counts a STRAP cut; circle selects the periodic full-extent
// variant.
func (s *Shard) SpaceCut(circle bool) {
	if circle {
		s.c.CircleCuts++
	} else {
		s.c.SpaceCuts++
	}
}

// TimeCut counts a time cut.
func (s *Shard) TimeCut() { s.c.TimeCuts++ }

// Base opens a base-case invocation over volume space-time points,
// dispatched to the interior or boundary clone; End closes it.
func (s *Shard) Base(volume int64, interior bool) {
	s.c.Bases++
	s.c.BasePoints += volume
	e, p := volumeCell(volume)
	s.baseVol[p][e]++
	if interior {
		s.c.InteriorBases++
	}
	if s.walk.timed {
		s.inBase, s.baseStart = true, s.walk.now()
	}
}

// Spawned and Inlined count the walker's decisions to run subzoids on fresh
// goroutines vs. the current one.
func (s *Shard) Spawned(n int) { s.c.Spawns += int64(n) }
func (s *Shard) Inlined(n int) { s.c.Inlines += int64(n) }

// volumeCell keys volume v's histogram cell: e is the bit length of v−1,
// the smallest e with v ≤ 2^e (v's le bin), and p is 1 when v is a power of
// two, so floor(log2(v)) is e−1+p. Volumes below 2 land in (0, 1).
func volumeCell(v int64) (e, p int) {
	if v <= 1 {
		return 0, 1
	}
	if v&(v-1) == 0 {
		p = 1
	}
	return bits.Len64(uint64(v - 1)), p
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

// Walk is the counter set of one walk: its clock epoch and its shards. The
// zero value is not usable; call NewWalk.
type Walk struct {
	epoch time.Time
	timed bool // keep time: two clock reads per walk and per base case

	mu     sync.Mutex
	shards []*Shard // the first n are this walk's; the rest, zeroed, spare
	n      int
	free   []*Shard // released in this walk
}

// walks recycles finished walks with their shards, so a served job's walk
// allocates nothing.
var walks = sync.Pool{New: func() any { return new(Walk) }}

// NewWalk starts the counter set of a walk; its Stats' Wall runs from here.
// Unless timed, the walk keeps no time: its Stats' Wall is zero and their
// WorkerBusy nil.
func NewWalk(timed bool) *Walk {
	w := walks.Get().(*Walk)
	if w.timed = timed; timed {
		w.epoch = time.Now()
	}
	return w
}

func (w *Walk) now() int64 { return time.Since(w.epoch).Nanoseconds() }

// Acquire hands out a worker shard, recycling released ones so the shard
// count tracks concurrently live workers. It is called at goroutine spawn
// boundaries only, never per event.
func (w *Walk) Acquire() *Shard {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s
	}
	if w.n == len(w.shards) {
		w.shards = append(w.shards, &Shard{walk: w})
	}
	w.n++
	return w.shards[w.n-1]
}

// Release returns a shard to the pool when its goroutine finishes. A base
// case a panic left open is charged its partial busy time first.
func (w *Walk) Release(s *Shard) {
	s.End()
	w.mu.Lock()
	w.free = append(w.free, s)
	w.mu.Unlock()
}

// Stats sums the walk's shards once the walk has returned, and recycles the
// walk, which must not be used after.
func (w *Walk) Stats() (st Stats) {
	st.Workers = w.n
	if w.timed {
		st.Wall, st.WorkerBusy = time.Since(w.epoch), make([]time.Duration, w.n)
	}
	for i, s := range w.shards[:w.n] {
		st.addCounters(&s.c, 1)
		for p := range s.baseVol {
			for e, n := range &s.baseVol[p] {
				if n != 0 {
					st.BaseVolumeLe[e] += n
					st.BaseVolumeHist[e-1+p] += n
				}
			}
		}
		if w.timed {
			st.WorkerBusy[i] = time.Duration(s.busyNS)
		}
		*s = Shard{walk: w}
	}
	w.n, w.free = 0, w.free[:0]
	walks.Put(w)
	return st
}

// Recorder accumulates the Stats of finished walks and the wall time of
// instrumented runs.
type Recorder struct {
	mu       sync.Mutex
	total    Stats
	runStart time.Time
	running  int
}

// New creates an empty recorder. Pass it to the engine via
// pochoir.Options.Telemetry to enable recording.
func New() *Recorder { return &Recorder{} }

// RunStarted marks the beginning of an instrumented run; wall time
// accumulates between RunStarted and RunFinished (overlapping runs count
// their union once).
func (r *Recorder) RunStarted() {
	r.mu.Lock()
	if r.running == 0 {
		r.runStart = time.Now()
	}
	r.running++
	r.mu.Unlock()
}

// RunFinished closes the interval opened by RunStarted and adds the walk's
// counters and worker i's busy time to the totals. Workers is the most any
// one walk used; Wall stays the union of the runs' intervals.
func (r *Recorder) RunFinished(st *Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.running--
	if r.running == 0 {
		r.total.Wall += time.Since(r.runStart)
	}
	r.total.addCounters(st, 1)
	r.total.Workers = max(r.total.Workers, st.Workers)
}

// Snapshot returns the totals of every walk finished so far, at any time.
func (r *Recorder) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.total
	st.WorkerBusy = append([]time.Duration(nil), st.WorkerBusy...)
	return st
}
