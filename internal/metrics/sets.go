package metrics

// This file defines the pre-resolved instrument sets the engine layers hold.
// Resolving a metric means a map lookup under the registry lock, so the
// walker/scheduler and supervisor sets are resolved once per registry, on
// their first request, and every run after that — of any stencil — touches
// only the cached pointers. A nil set pointer disarms every instrumentation
// point with a single comparison, mirroring the telemetry recorder's
// discipline.

import (
	"pochoir/internal/core"
	"pochoir/internal/telemetry"
)

// RunMetrics is the walker/scheduler instrument set. Fold writes it once
// per walk, but for the gauges and the fork-depth histogram, which move live.
type RunMetrics struct {
	// Run lifecycle.
	RunsStarted *Counter
	RunsActive  *Gauge

	// Decomposition: every zoid visited, and the cut decisions indexed by
	// the walker's core.CutKind; STRAP's trisections and circle cuts share
	// the kind="space_serial" series.
	Zoids *Counter
	Cuts  [core.CutTime + 1]*Counter

	// Base cases: executions by clone, total space-time points, and the
	// volume distribution.
	BaseInterior *Counter
	BaseBoundary *Counter
	BasePoints   *Counter
	BaseVolume   *Histogram

	// EnginePoints[core.Algorithm] attributes base-case points to the
	// engine that executed them.
	EnginePoints [core.NumAlgorithms]*Counter

	// Scheduler: forks spawned vs inlined, concurrently active workers,
	// and the fork-depth distribution.
	Spawns        *Counter
	Inlines       *Counter
	ActiveWorkers *Gauge
	ForkDepth     *Histogram

	// The achieved parallelism, wall time and workers of the last walk
	// that kept time.
	LastParallelism *Gauge
	LastWallSeconds *Gauge
	LastWorkers     *Gauge
}

// NewRunMetrics returns r's walker/scheduler instrument set, resolving it
// on the first call; every later call, from any stencil, returns the same
// set. A served job builds a fresh stencil, so a cache per stencil would
// re-resolve the set's two dozen series for every job.
func NewRunMetrics(r *Registry) *RunMetrics {
	r.runOnce.Do(func() { r.run = resolveRunMetrics(r) })
	return r.run
}

func resolveRunMetrics(r *Registry) *RunMetrics {
	m := &RunMetrics{
		RunsStarted: r.Counter("pochoir_runs_started_total", "Run/RunSupervised segment executions started."),
		RunsActive:  r.Gauge("pochoir_runs_active", "Walker runs currently executing."),

		Zoids: r.Counter("pochoir_zoids_total", "Zoids visited by the decomposition (cuts and base cases)."),

		BaseInterior: r.Counter("pochoir_base_cases_total", "Base-case kernel invocations by clone.", Label{"clone", "interior"}),
		BaseBoundary: r.Counter("pochoir_base_cases_total", "Base-case kernel invocations by clone.", Label{"clone", "boundary"}),
		BasePoints:   r.Counter("pochoir_base_points_total", "Space-time points executed by base cases."),
		BaseVolume:   r.Histogram("pochoir_base_volume_points", "Base-case zoid volume distribution in points.", 24),

		Spawns:        r.Counter("pochoir_forks_total", "Fork-join forks by placement.", Label{"placement", "spawned"}),
		Inlines:       r.Counter("pochoir_forks_total", "Fork-join forks by placement.", Label{"placement", "inlined"}),
		ActiveWorkers: r.Gauge("pochoir_active_workers", "Worker goroutines currently executing spawned zoid tasks."),
		ForkDepth:     r.Histogram("pochoir_fork_depth", "Recursion depth at which tasks were forked.", 10),

		LastParallelism: r.Gauge("pochoir_last_parallelism", "Achieved parallelism of the last telemetry-armed run segment."),
		LastWallSeconds: r.Gauge("pochoir_last_wall_seconds", "Wall time of the last telemetry-armed run segment."),
		LastWorkers:     r.Gauge("pochoir_last_workers", "Distinct workers of the last telemetry-armed run segment."),
	}
	cutKinds := [...]string{core.CutHyper: "hyperspace", core.CutSpace: "space_serial", core.CutCircle: "space_serial", core.CutTime: "time"}
	for kind, name := range cutKinds {
		m.Cuts[kind] = r.Counter("pochoir_cuts_total", "Zoid cut decisions by kind.", Label{"kind", name})
	}
	for a := range m.EnginePoints {
		m.EnginePoints[a] = r.Counter("pochoir_engine_points_total",
			"Base-case points executed, by engine.", Label{"engine", core.Algorithm(a).String()})
	}
	return m
}

// Fold adds the Stats of one finished walk of engine alg, which counted each
// event once in its telemetry shards. A walk that kept time (one with a
// telemetry recorder) also sets the last-walk gauges.
func (m *RunMetrics) Fold(st *telemetry.Stats, alg core.Algorithm) {
	m.Zoids.Add(st.Zoids())
	m.Cuts[core.CutHyper].Add(st.HyperCuts)
	m.Cuts[core.CutSpace].Add(st.SpaceCuts)
	m.Cuts[core.CutCircle].Add(st.CircleCuts)
	m.Cuts[core.CutTime].Add(st.TimeCuts)
	m.BaseInterior.Add(st.InteriorBases)
	m.BaseBoundary.Add(st.BoundaryBases())
	m.BasePoints.Add(st.BasePoints)
	m.BaseVolume.addBins(st.BaseVolumeLe[:], st.BasePoints, st.Bases)
	if alg >= 0 && int(alg) < len(m.EnginePoints) {
		m.EnginePoints[alg].Add(st.BasePoints)
	}
	m.Spawns.Add(st.Spawns)
	m.Inlines.Add(st.Inlines)
	if st.WorkerBusy != nil {
		m.LastParallelism.Set(st.AchievedParallelism())
		m.LastWallSeconds.Set(st.Wall.Seconds())
		m.LastWorkers.Set(float64(st.Workers))
	}
}

// SupervisorMetrics is the resilience supervisor's instrument set.
type SupervisorMetrics struct {
	SegmentsDone   *Counter
	SegmentsFailed *Counter
	Retries        *Counter
	Degradations   *Counter
	WatchdogTrips  *Counter
	VerifyOK       *Counter
	VerifyMismatch *Counter
	Checkpoints    *Counter
	Restores       *Counter
	GiveUps        *Counter
	BackoffNS      *Counter

	// Durable spill journal: checkpoints persisted (or failed), the bytes
	// and wall time they cost, so /statusz shows what durability is costing
	// a run while it happens.
	Spills      *Counter
	SpillErrors *Counter
	SpillBytes  *Counter
	SpillNS     *Counter

	// Cross-process resume outcomes: a fresh process restored a journal
	// entry, started cold (empty or fully corrupt journal), plus every
	// corrupt or torn entry skipped on the way to the newest good one.
	ResumeRestored *Counter
	ResumeCold     *Counter
	ResumeCorrupt  *Counter
}

// NewSupervisorMetrics returns r's supervisor instrument set, resolved on
// the first call and shared by every supervised run on r after it.
func NewSupervisorMetrics(r *Registry) *SupervisorMetrics {
	r.supOnce.Do(func() { r.sup = resolveSupervisorMetrics(r) })
	return r.sup
}

func resolveSupervisorMetrics(r *Registry) *SupervisorMetrics {
	return &SupervisorMetrics{
		SegmentsDone:   r.Counter("pochoir_sup_segments_total", "Supervised segments by outcome.", Label{"outcome", "ok"}),
		SegmentsFailed: r.Counter("pochoir_sup_segments_total", "Supervised segments by outcome.", Label{"outcome", "failed"}),
		Retries:        r.Counter("pochoir_sup_retries_total", "Segment attempts retried after a failure."),
		Degradations:   r.Counter("pochoir_sup_degradations_total", "Degradation-ladder demotions (e.g. TRAP to STRAP)."),
		WatchdogTrips:  r.Counter("pochoir_sup_watchdog_trips_total", "Segment attempts killed by the watchdog timeout."),
		VerifyOK:       r.Counter("pochoir_sup_verify_total", "Shadow verifications by outcome.", Label{"outcome", "ok"}),
		VerifyMismatch: r.Counter("pochoir_sup_verify_total", "Shadow verifications by outcome.", Label{"outcome", "mismatch"}),
		Checkpoints:    r.Counter("pochoir_sup_checkpoints_total", "Checkpoints taken at segment boundaries."),
		Restores:       r.Counter("pochoir_sup_restores_total", "Checkpoint restores after failed attempts."),
		GiveUps:        r.Counter("pochoir_sup_giveups_total", "Supervised runs abandoned after exhausting retries."),
		BackoffNS:      r.Counter("pochoir_sup_backoff_ns_total", "Nanoseconds spent in retry backoff sleeps."),

		Spills:      r.Counter("pochoir_sup_spills_total", "Durable checkpoint spills by outcome.", Label{"outcome", "ok"}),
		SpillErrors: r.Counter("pochoir_sup_spills_total", "Durable checkpoint spills by outcome.", Label{"outcome", "error"}),
		SpillBytes:  r.Counter("pochoir_sup_spill_bytes_total", "Bytes written to the durable spill journal."),
		SpillNS:     r.Counter("pochoir_sup_spill_ns_total", "Nanoseconds spent writing durable checkpoint spills."),

		ResumeRestored: r.Counter("pochoir_resume_total", "Cross-process resume decisions by outcome.", Label{"outcome", "restored"}),
		ResumeCold:     r.Counter("pochoir_resume_total", "Cross-process resume decisions by outcome.", Label{"outcome", "cold_start"}),
		ResumeCorrupt:  r.Counter("pochoir_resume_corrupt_entries_total", "Corrupt or torn journal entries skipped while resuming."),
	}
}

// Observe counts one supervisor decision. It is the only writer of the set:
// every counter is a function of the event stream, so a scrape agrees with
// the run's report. A retry is counted when the attempt it started ends.
// A nil set observes nothing.
func (m *SupervisorMetrics) Observe(ev telemetry.SupEvent) {
	if m == nil {
		return
	}
	switch ev.Kind {
	case telemetry.SupSegmentDone:
		m.SegmentsDone.Inc()
	case telemetry.SupSegmentFail:
		m.SegmentsFailed.Inc()
		if ev.Delay > 0 {
			m.WatchdogTrips.Inc()
		}
	case telemetry.SupCheckpoint:
		m.Checkpoints.Inc()
	case telemetry.SupRestore:
		m.Restores.Inc()
	case telemetry.SupBackoff:
		m.BackoffNS.Add(ev.Delay.Nanoseconds())
	case telemetry.SupDegrade:
		m.Degradations.Inc()
	case telemetry.SupVerifyOK:
		m.VerifyOK.Inc()
	case telemetry.SupVerifyMismatch:
		m.VerifyMismatch.Inc()
	case telemetry.SupGiveUp:
		m.GiveUps.Inc()
	case telemetry.SupSpill:
		if ev.Err != "" {
			m.SpillErrors.Inc()
			return
		}
		m.Spills.Inc()
		m.SpillBytes.Add(ev.Count)
		m.SpillNS.Add(ev.Delay.Nanoseconds())
	case telemetry.SupResume:
		m.ResumeCorrupt.Add(ev.Count)
		if ev.Err != "" {
			m.ResumeCold.Inc()
		} else {
			m.ResumeRestored.Inc()
		}
	}
	if (ev.Kind == telemetry.SupSegmentDone || ev.Kind == telemetry.SupSegmentFail) && ev.Attempt > 1 {
		m.Retries.Inc()
	}
}

// ProfilerMetrics is the continuous profiler's self-instrument set:
// capture windows completed by kind, ring evictions under retention
// pressure, and decode/capture failures. The capture loop holds these via
// the profile package's narrow Counter interface, keeping that package
// dependency-free.
type ProfilerMetrics struct {
	Captures      *Counter
	HeapCaptures  *Counter
	Evictions     *Counter
	DecodeErrors  *Counter
	CaptureErrors *Counter
}

// NewProfilerMetrics resolves the profiler instrument set against r.
// Idempotent, like the other sets.
func NewProfilerMetrics(r *Registry) *ProfilerMetrics {
	return &ProfilerMetrics{
		Captures:      r.Counter("pochoir_profile_captures_total", "Completed profile capture windows by kind.", Label{"kind", "cpu"}),
		HeapCaptures:  r.Counter("pochoir_profile_captures_total", "Completed profile capture windows by kind.", Label{"kind", "heap"}),
		Evictions:     r.Counter("pochoir_profile_ring_evictions_total", "Captures evicted from the in-memory ring under retention pressure."),
		DecodeErrors:  r.Counter("pochoir_profile_decode_errors_total", "Captured profiles the pprof decoder rejected."),
		CaptureErrors: r.Counter("pochoir_profile_capture_errors_total", "Capture windows that could not start (CPU profiler busy)."),
	}
}
