// Package flight is the black-box flight recorder: an always-on, bounded-
// overhead ring buffer of recent execution events that the engine layers
// append to on every run, so that when a run dies — kernel panic, watchdog
// trip, shadow-verify mismatch, poisoning — a post-mortem bundle can show
// what the engine was doing in the seconds before, even on runs nobody was
// watching.
//
// It complements the opt-in observability layers: internal/telemetry records
// everything but is too heavy to leave on, and internal/metrics keeps only
// aggregate counters with no notion of "recently". The flight recorder sits
// between them: a fixed budget of recent events (cuts with kind and fanout,
// base-case entries with zoid coordinates, engine transitions, supervisor
// decisions, faultpoint trips, cancellation and panic markers) that
// overwrites itself forever and is only ever read when something goes wrong.
//
// Write-path design (the load-bearing part):
//
//   - The recorder is sharded: a small power-of-two array of rings, and a
//     writer picks its ring from the address of a stack variable — a
//     registration-free trick — so concurrent workers land on different
//     rings without locks or per-goroutine state.
//
//   - Each ring slot is a per-slot seqlock of atomic words: a writer claims
//     a slot with one atomic add on the shard cursor, zeroes the slot's
//     sequence, stores the fields, and publishes the new sequence. Readers
//     (Snapshot) validate the sequence before and after copying a slot and
//     drop torn slots. Appends therefore never block, never allocate after
//     construction, and are safe against a concurrent dump under -race.
//
//   - Timestamps of the per-zoid events (cuts and base cases) are coarse: a
//     shared nanosecond clock refreshed every clockEvery appends per shard,
//     so most appends pay no clock read. Events between refreshes share a
//     timestamp; Snapshot orders them by (time, shard, sequence), which
//     preserves per-worker order exactly. Every other event reads the clock,
//     and the shared clock only moves forward, so a run's end sorts after
//     every base case that finished before it.
//
// Of the layers it records it imports only core and telemetry, for the names
// of engines, cuts and supervisor decisions, so every other layer can feed or
// read it without import cycles. The process-wide Default recorder is what
// "always on" means: every run records into it unless opted out, and the
// POCHOIR_FLIGHT / POCHOIR_FLIGHT_RING environment variables disable or
// resize it.
package flight

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"

	"pochoir/internal/core"
	"pochoir/internal/telemetry"
)

// Kind classifies one recorded event. The three A0..A2 arguments are
// kind-specific; Describe renders them.
type Kind uint8

const (
	// EvRunStart marks a walker run (or supervised segment attempt)
	// entering the engine: A0 = core.Algorithm (0 TRAP, 1 STRAP, 2 LOOPS),
	// A1 = first home time, A2 = end home time.
	EvRunStart Kind = iota
	// EvRunEnd marks the walker returning: A0 = outcome (0 ok, 1 error,
	// 2 cancelled/deadline).
	EvRunEnd
	// EvCut is one decomposition decision: A0 = cut kind (0 hyperspace,
	// 1 space, 2 circle, 3 time), A1 = dims-cut / dim / dim / height,
	// A2 = subzoid fanout (hyperspace only).
	EvCut
	// EvBase is a base-case entry: A0 = PackPair(t0, t1), A1 =
	// PackPair(lo0, hi0) of dimension 0, A2 = volume<<1 | interior bit.
	EvBase
	// EvPanic marks a panic: A0 = PackPair(t0, t1) and A1 =
	// PackPair(lo0, hi0) of the base-case zoid (zero for non-base panics),
	// A2 = source (0 base-case kernel, 1 scheduler sync point).
	EvPanic
	// EvCancel marks the run's cancellation flag latching (context cancel
	// or deadline).
	EvCancel
	// EvSup is one supervisor decision: A0 = telemetry.SupKind,
	// A1 = segment index, A2 = attempt number.
	EvSup
	// EvFault marks an armed faultpoint firing: A0 = site (0 walker/cut,
	// 1 walker/base), A1 = decomposition depth.
	EvFault
	// EvJob is one gateway job-lifecycle transition: A0 = JobSubmit..
	// JobDrainEnd code, A1 = numeric job id (0 when none), A2 = queue depth
	// at the transition. A crashed daemon's post-mortem bundle therefore
	// names the jobs that were in flight.
	EvJob
	// EvSLO is one SLO burn-rate transition from the metrics SLO engine:
	// A0 = severity (0 recovered, 1 slow-burn breach, 2 fast-burn breach),
	// A1 = objective index in registration order, A2 = burn rate ×1000 of
	// the window that tripped.
	EvSLO

	numKinds
)

var kindNames = [numKinds]string{
	EvRunStart: "run-start",
	EvRunEnd:   "run-end",
	EvCut:      "cut",
	EvBase:     "base",
	EvPanic:    "panic",
	EvCancel:   "cancel",
	EvSup:      "sup",
	EvFault:    "fault",
	EvJob:      "job",
	EvSLO:      "slo",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its stable string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the string name back (bundles round-trip through
// cmd/blackbox).
func (k *Kind) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("flight: unknown event kind %q", s)
}

// PackPair packs two int32-ranged values into one event argument; zoid
// coordinates and home times are well within range.
func PackPair(a, b int) int64 {
	return int64(uint64(uint32(int32(a)))<<32 | uint64(uint32(int32(b))))
}

// UnpackPair reverses PackPair.
func UnpackPair(v int64) (a, b int) {
	return int(int32(uint64(v) >> 32)), int(int32(uint64(v)))
}

// Cut kind codes of EvCut's A0: the walker's own.
const (
	CutHyper  = int64(core.CutHyper)
	CutSpace  = int64(core.CutSpace)
	CutCircle = int64(core.CutCircle)
	CutTime   = int64(core.CutTime)
)

// Panic source codes of EvPanic's A2.
const (
	PanicBase  = 0
	PanicSched = 1
)

// Job lifecycle codes of EvJob's A0, recorded by the serving gateway.
const (
	JobSubmit   = 0 // submission received
	JobAdmit    = 1 // admitted to the queue
	JobShed     = 2 // rejected by admission control (429)
	JobCoalesce = 3 // merged into an identical in-flight job
	JobStart    = 4 // a worker began executing the job
	JobDone     = 5 // completed successfully
	JobFail     = 6 // terminal failure (supervisor give-up, deadline)
	JobDrainBeg = 7 // drain started; A2 = jobs still in flight
	JobDrainEnd = 8 // drain finished; A2 = jobs completed during drain
	numJobCodes = 9
)

var jobCodeNames = [numJobCodes]string{
	"submit", "admit", "shed", "coalesce", "start", "done", "fail",
	"drain-begin", "drain-end",
}

func jobCodeName(code int64) string {
	if code >= 0 && int(code) < len(jobCodeNames) {
		return jobCodeNames[code]
	}
	return fmt.Sprintf("job(%d)", code)
}

// Event is one decoded flight-recorder entry. Seq orders events within a
// worker lane; TS is coarse nanoseconds since the recorder's epoch.
type Event struct {
	TS     int64  `json:"ts_ns"`
	Worker int    `json:"worker"`
	Seq    uint64 `json:"seq"`
	Kind   Kind   `json:"kind"`
	A0     int64  `json:"a0"`
	A1     int64  `json:"a1"`
	A2     int64  `json:"a2"`
}

// Describe renders the event as a one-line log entry with its kind-specific
// arguments decoded.
func (e Event) Describe() string {
	switch e.Kind {
	case EvRunStart:
		return fmt.Sprintf("run-start engine=%v t=[%d,%d)", core.Algorithm(e.A0), e.A1, e.A2)
	case EvRunEnd:
		switch e.A0 {
		case 0:
			return "run-end ok"
		case 2:
			return "run-end cancelled"
		}
		return "run-end error"
	case EvCut:
		switch e.A0 {
		case CutHyper:
			return fmt.Sprintf("hyperspace-cut k=%d fanout=%d", e.A1, e.A2)
		case CutSpace:
			return fmt.Sprintf("space-cut dim=%d", e.A1)
		case CutCircle:
			return fmt.Sprintf("circle-cut dim=%d", e.A1)
		}
		return fmt.Sprintf("time-cut height=%d", e.A1)
	case EvBase:
		t0, t1 := UnpackPair(e.A0)
		lo, hi := UnpackPair(e.A1)
		clone := "boundary"
		if e.A2&1 != 0 {
			clone = "interior"
		}
		return fmt.Sprintf("base t=[%d,%d) x0=[%d,%d) vol=%d %s", t0, t1, lo, hi, e.A2>>1, clone)
	case EvPanic:
		if e.A2 == PanicSched {
			return "panic captured at scheduler sync point"
		}
		t0, t1 := UnpackPair(e.A0)
		lo, hi := UnpackPair(e.A1)
		return fmt.Sprintf("panic in base t=[%d,%d) x0=[%d,%d)", t0, t1, lo, hi)
	case EvCancel:
		return "cancellation latched"
	case EvSup:
		return fmt.Sprintf("supervisor %v seg=%d attempt=%d", telemetry.SupKind(e.A0), e.A1, e.A2)
	case EvFault:
		site := "walker/cut"
		if e.A0 == 1 {
			site = "walker/base"
		}
		return fmt.Sprintf("faultpoint fired at %s depth=%d", site, e.A1)
	case EvJob:
		return fmt.Sprintf("job %s id=%d queue=%d", jobCodeName(e.A0), e.A1, e.A2)
	case EvSLO:
		sev := "recovered"
		switch e.A0 {
		case 1:
			sev = "slow-burn breach"
		case 2:
			sev = "fast-burn breach"
		}
		return fmt.Sprintf("slo %s objective=%d burn=%d.%03d", sev, e.A1, e.A2/1000, e.A2%1000)
	}
	return fmt.Sprintf("%s a0=%d a1=%d a2=%d", e.Kind, e.A0, e.A1, e.A2)
}

// slot is one ring entry: a per-slot seqlock of atomic words. seq is 0 while
// the slot is empty, held while a writer owns it, and cursor+1 once the slot
// is published, so a reader that sees the same published seq before and
// after copying the fields has a consistent event. A writer takes the slot
// by CompareAndSwap from the seq it loaded to held, so two writers whose
// cursors map to one slot (one lapped the ring while the other was mid-store)
// never store into it at once: the one that finds it held drops its event.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	a0   atomic.Int64
	a1   atomic.Int64
	a2   atomic.Int64
	kind atomic.Uint32
}

// shard is one worker lane: a private cursor and its ring.
type shard struct {
	cursor atomic.Uint64
	_      [120]byte // keep hot cursors on distinct cache lines
	ring   []slot
}

// held is the seq of a slot a writer owns; no cursor+1 reaches it.
const held = ^uint64(0)

// clockEvery is how many appends per shard share one coarse clock reading.
const clockEvery = 16

// DefaultRing is the per-worker-lane ring capacity of the default recorder:
// 8 lanes x 2048 events is a few seconds of decomposition history on any
// workload while staying ~1 MiB of fixed memory.
const DefaultRing = 2048

// defaultShards bounds the lane count; lanes are hash-distributed, so more
// lanes than cores buys nothing.
const defaultShards = 8

// Recorder is the black-box recorder. The zero value is not usable; call
// New. A nil *Recorder is the disabled recorder: Record and Snapshot on nil
// are safe no-ops, so call sites need no guards beyond the pointer they
// already hold.
type Recorder struct {
	epoch  time.Time
	coarse atomic.Int64 // cached nanoseconds since epoch
	frozen atomic.Bool
	mask   uint32
	shards []shard
}

// New creates a recorder with ringSize slots per worker lane; ringSize <= 0
// selects DefaultRing. Sizes round up to a power of two.
func New(ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRing
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	n := defaultShards
	r := &Recorder{epoch: time.Now(), mask: uint32(n - 1), shards: make([]shard, n)}
	for i := range r.shards {
		r.shards[i].ring = make([]slot, size)
	}
	return r
}

// laneIndex derives a shard index from the address of a stack variable:
// goroutine stacks occupy disjoint address ranges, so concurrent workers
// spread across lanes with no registration; the Fibonacci multiplier mixes
// the high bits so nearby stacks land apart.
func laneIndex() uint32 {
	var b byte
	return uint32((uint64(uintptr(unsafe.Pointer(&b))) >> 6) * 0x9e3779b97f4a7c15 >> 32)
}

// Record appends one event. It is safe from any goroutine, never blocks,
// never allocates, and is a no-op on a nil or frozen recorder — the
// always-on cost when recording is a handful of atomic stores per event,
// and events fire per zoid, never per grid point. An event whose slot
// another writer still holds is dropped.
func (r *Recorder) Record(kind Kind, a0, a1, a2 int64) {
	if r == nil || r.frozen.Load() {
		return
	}
	sh := &r.shards[laneIndex()&r.mask]
	idx := sh.cursor.Add(1) - 1
	var ts int64
	if idx%clockEvery == 0 || kind != EvBase && kind != EvCut {
		ts = r.now()
	} else {
		ts = r.coarse.Load()
	}
	s := &sh.ring[idx&uint64(len(sh.ring)-1)]
	if seq := s.seq.Load(); seq == held || !s.seq.CompareAndSwap(seq, held) {
		return // another writer owns the slot
	}
	s.ts.Store(ts)
	s.a0.Store(a0)
	s.a1.Store(a1)
	s.a2.Store(a2)
	s.kind.Store(uint32(kind))
	s.seq.Store(idx + 1)
}

// now reads the clock and advances the shared coarse clock to it. The
// coarse clock never moves back: a lane that read the clock before another
// may store after it.
func (r *Recorder) now() int64 {
	ts := int64(time.Since(r.epoch))
	for cur := r.coarse.Load(); ts > cur && !r.coarse.CompareAndSwap(cur, ts); cur = r.coarse.Load() {
	}
	return ts
}

// Freeze latches the recorder read-only so an incident window is not
// overwritten while a bundle is assembled; Unfreeze resumes recording.
// Both are idempotent.
func (r *Recorder) Freeze() {
	if r != nil {
		r.frozen.Store(true)
	}
}

// Unfreeze re-enables recording after Freeze.
func (r *Recorder) Unfreeze() {
	if r != nil {
		r.frozen.Store(false)
	}
}

// TotalRecorded returns how many events have ever been appended, including
// those the rings have since overwritten.
func (r *Recorder) TotalRecorded() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.shards {
		n += r.shards[i].cursor.Load()
	}
	return n
}

// Lanes returns the number of worker lanes (shards).
func (r *Recorder) Lanes() int {
	if r == nil {
		return 0
	}
	return len(r.shards)
}

// Snapshot copies every currently-readable event, merged across lanes and
// ordered by (timestamp, lane, sequence). It is safe to call concurrently
// with Record: slots a writer is mid-overwrite are dropped (per-slot
// seqlock), so the result is always a set of complete events. Snapshot on a
// nil recorder returns nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for si := range r.shards {
		sh := &r.shards[si]
		for i := range sh.ring {
			s := &sh.ring[i]
			seq := s.seq.Load()
			if seq == 0 || seq == held {
				continue
			}
			ev := Event{
				TS:     s.ts.Load(),
				Worker: si,
				Seq:    seq - 1,
				Kind:   Kind(s.kind.Load()),
				A0:     s.a0.Load(),
				A1:     s.a1.Load(),
				A2:     s.a2.Load(),
			}
			if s.seq.Load() != seq {
				continue // torn: a writer claimed the slot mid-copy
			}
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Window returns the snapshot restricted to the last d of recorded time
// (relative to the newest event).
func (r *Recorder) Window(d time.Duration) []Event {
	evs := r.Snapshot()
	if len(evs) == 0 || d <= 0 {
		return evs
	}
	cut := evs[len(evs)-1].TS - d.Nanoseconds()
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].TS >= cut })
	return evs[lo:]
}

// Default recorder plumbing. Engines fall back to Default() when no recorder
// is configured, which is what makes black-box capture always-on. The
// POCHOIR_FLIGHT environment variable set to "off" (or "0", "false")
// disables it process-wide; POCHOIR_FLIGHT_RING resizes its per-lane rings.
var defaultRec atomic.Pointer[Recorder]

// EnvVar disables the default recorder when set to off/0/false.
const EnvVar = "POCHOIR_FLIGHT"

// RingEnvVar overrides the default recorder's per-lane ring capacity.
const RingEnvVar = "POCHOIR_FLIGHT_RING"

func init() {
	switch os.Getenv(EnvVar) {
	case "off", "0", "false":
		return // Default() stays nil: flight recording disabled process-wide
	}
	size := 0
	if v := os.Getenv(RingEnvVar); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			size = n
		} else {
			fmt.Fprintf(os.Stderr, "pochoir: ignoring %s=%q: want a positive integer\n", RingEnvVar, v)
		}
	}
	defaultRec.Store(New(size))
}

// Default returns the process-wide always-on recorder, or nil when disabled
// via POCHOIR_FLIGHT=off. A nil recorder is safe to use everywhere.
func Default() *Recorder { return defaultRec.Load() }

// SetDefaultRing replaces the default recorder with a fresh one of the given
// per-lane ring capacity — the programmatic size knob. It returns the new
// recorder. Events recorded into the previous default are discarded.
func SetDefaultRing(ringSize int) *Recorder {
	r := New(ringSize)
	defaultRec.Store(r)
	return r
}
