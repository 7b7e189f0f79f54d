package pochoir

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"

	"pochoir/internal/flight"
	"pochoir/internal/profile"
	"pochoir/internal/trace"
)

// FlightRecorder is the always-on black-box recorder: a bounded,
// per-worker-sharded ring buffer of recent execution events (cuts, base-case
// entries, engine transitions, supervisor decisions, faultpoint trips,
// cancellation and panic markers) that every run appends to through a
// lock-free write path. Unlike Options.Telemetry it is cheap enough to leave
// enabled everywhere; it is only ever read when a run dies, at which point
// its frozen window becomes the core of the post-mortem bundle. Every run
// records into the process-wide one (see DefaultFlightRecorder) unless
// Options.NoFlightRecorder is set.
type FlightRecorder = flight.Recorder

// FlightEvent is one decoded flight-recorder entry; FlightEvent.Describe
// renders it as a log line.
type FlightEvent = flight.Event

// PostmortemBundle is the schema-versioned ("pochoir-postmortem/v1") crash
// artifact written automatically on any terminal failure: the merged
// time-ordered recent event window, the failure cause with zoid attribution,
// run geometry, telemetry and metrics snapshots, the supervisor decision
// log, a goroutine dump, and host + commit provenance. cmd/blackbox loads
// and renders these.
type PostmortemBundle = flight.Bundle

// PostmortemCause classifies the terminal failure of a bundle.
type PostmortemCause = flight.Cause

// Incident is the in-memory record of this process's most recent
// post-mortem bundle; the monitor serves it at /debug/flightz and summarizes
// it under last_incident in /statusz.
type Incident = flight.Incident

// DefaultFlightRecorder returns the process-wide always-on recorder, or nil
// when disabled with POCHOIR_FLIGHT=off.
func DefaultFlightRecorder() *FlightRecorder { return flight.Default() }

// LastIncident returns the most recent post-mortem incident of this
// process, or nil if no run has failed.
func LastIncident() *Incident { return flight.LastIncident() }

// ReadPostmortemBundle loads and validates a bundle written by a previous
// failure (see flight.ReportIncident for where they are written).
func ReadPostmortemBundle(path string) (*PostmortemBundle, error) {
	return flight.ReadBundle(path)
}

// flightRecorder resolves the black-box recorder in effect for this
// stencil: the process-wide default, or nil under NoFlightRecorder (or
// POCHOIR_FLIGHT=off), which disables both recording and automatic bundles —
// nil is safe everywhere downstream.
func (s *Stencil[T]) flightRecorder() *flight.Recorder {
	if s.opts.NoFlightRecorder {
		return nil
	}
	return flight.Default()
}

// classifyCause maps a terminal run error onto the bundle cause taxonomy.
// Kernel panics carry the failing zoid; the other kinds are matched through
// errors.As/Is so wrapping never hides them.
func classifyCause(err error) flight.Cause {
	c := flight.Cause{Kind: "error", Error: err.Error()}
	var kp *KernelPanicError
	var ve *VerifyError
	var ep *EnginePanicError
	switch {
	case errors.As(err, &kp):
		c.Kind = "kernel-panic"
		z := kp.Zoid
		c.Zoid = &flight.ZoidInfo{
			T0: z.T0, T1: z.T1,
			Lo: append([]int(nil), z.Lo[:z.N]...),
			Hi: append([]int(nil), z.Hi[:z.N]...),
		}
	case errors.As(err, &ve):
		c.Kind = "verify-mismatch"
	case errors.As(err, &ep):
		c.Kind = "engine-panic"
	case errors.Is(err, context.Canceled):
		c.Kind = "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		c.Kind = "deadline"
	case errors.Is(err, ErrPoisoned):
		c.Kind = "poisoned"
	}
	return c
}

// writePostmortem assembles and publishes the post-mortem bundle for a
// terminal failure: the rings are frozen so the incident window survives the
// dump, every armed diagnostic layer contributes its section, and the bundle
// is written to the diagnostics directory (POCHOIR_POSTMORTEM_DIR, default
// under the OS temp dir; "off" keeps it in memory only). Failures here are
// deliberately swallowed — post-mortem capture must never mask the run's own
// error. rep is the supervisor report of a supervised run, nil otherwise.
func (s *Stencil[T]) writePostmortem(err error, rep *RunReport) {
	fr := s.flightRecorder()
	if fr == nil {
		return
	}
	fr.Freeze()
	defer fr.Unfreeze()
	b := &flight.Bundle{
		Cause: classifyCause(err),
		Host:  flight.CollectHost(),
		Run: flight.RunInfo{
			NDims:      s.shape.NDims,
			Sizes:      s.Sizes(),
			StepsRun:   s.stepsRun,
			Algorithm:  s.opts.Algorithm.String(),
			Supervised: rep != nil,
		},
		TotalEvents: fr.TotalRecorded(),
		Lanes:       fr.Lanes(),
		Events:      fr.Snapshot(),
		Goroutines:  flight.CaptureGoroutines(),
	}
	if st := s.lastStats; st != nil {
		if data, jerr := json.Marshal(st.Summary()); jerr == nil {
			b.RunStats = data
		}
	}
	if reg := s.opts.Metrics; reg != nil {
		if data, jerr := json.Marshal(reg.Snapshot()); jerr == nil {
			b.Metrics = data
		}
	}
	if tr := s.opts.Trace; tr != nil {
		// Snapshot the live trace — it may never be finalized (the job
		// layer above decides that), but the incident's span tree down to
		// the failing attempt belongs in the bundle, and /statusz links the
		// ID at /tracez/<id>.
		if snap := tr.Snapshot(); snap != nil {
			b.TraceID = snap.ID.String()
			if data, jerr := trace.MarshalExport(snap); jerr == nil {
				b.Trace = data
			}
		}
	}
	if p := profile.Global(); p != nil {
		// The process-wide continuous profiler (installed by the gateway)
		// contributes the incident window's CPU attribution.
		if agg := p.Aggregate(); agg != nil {
			if data, jerr := json.Marshal(agg); jerr == nil {
				b.Profile = data
			}
		}
	}
	if rep != nil {
		if data, jerr := json.Marshal(rep); jerr == nil {
			b.Supervisor = data
		}
		if rep.LastSpillPath != "" {
			// The run had durable spilling on: point the bundle at the
			// newest durable checkpoint so the operator (or cmd/blackbox)
			// knows exactly where a fresh process resumes from.
			b.Resume = &flight.ResumeHint{
				Dir:  filepath.Dir(rep.LastSpillPath),
				Path: rep.LastSpillPath,
				Step: rep.LastSpillStep,
			}
		}
	}
	_, _ = flight.ReportIncident(b, "")
}
