package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pochoir/internal/core"
	"pochoir/internal/telemetry"
)

// MarshalJSON renders the engine as its stable String() name.
func (e Engine) MarshalJSON() ([]byte, error) {
	return json.Marshal(e.String())
}

// UnmarshalJSON parses the engine name back.
func (e *Engine) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	a, ok := core.ParseAlgorithm(s)
	if !ok {
		return fmt.Errorf("resilience: unknown engine %q", s)
	}
	*e = Engine(a)
	return nil
}

// segmentReportJSON fixes SegmentReport's wire field names so reports embed
// stably in post-mortem bundles and /statusz.
type segmentReportJSON struct {
	Index          int      `json:"index"`
	FromStep       int      `json:"from_step"`
	Steps          int      `json:"steps"`
	Attempts       int      `json:"attempts"`
	Engine         Engine   `json:"engine"`
	Failures       []string `json:"failures,omitempty"`
	Verified       bool     `json:"verified,omitempty"`
	VerifyMismatch bool     `json:"verify_mismatch,omitempty"`
	BackoffNS      int64    `json:"backoff_ns,omitempty"`
}

// MarshalJSON renders the segment with stable field names.
func (s SegmentReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(segmentReportJSON{
		Index: s.Index, FromStep: s.FromStep, Steps: s.Steps, Attempts: s.Attempts,
		Engine: s.Engine, Failures: s.Failures, Verified: s.Verified,
		VerifyMismatch: s.VerifyMismatch, BackoffNS: s.Backoff.Nanoseconds(),
	})
}

// UnmarshalJSON reverses MarshalJSON.
func (s *SegmentReport) UnmarshalJSON(data []byte) error {
	var j segmentReportJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = SegmentReport{
		Index: j.Index, FromStep: j.FromStep, Steps: j.Steps, Attempts: j.Attempts,
		Engine: j.Engine, Failures: j.Failures, Verified: j.Verified,
		VerifyMismatch: j.VerifyMismatch, Backoff: time.Duration(j.BackoffNS),
	}
	return nil
}

// reportJSON fixes Report's wire field names; Err flattens to its string.
type reportJSON struct {
	Steps            int                  `json:"steps"`
	StepsDone        int                  `json:"steps_done"`
	Segments         []SegmentReport      `json:"segments"`
	Attempts         int                  `json:"attempts"`
	Retries          int                  `json:"retries,omitempty"`
	Degradations     int                  `json:"degradations,omitempty"`
	FinalEngine      Engine               `json:"final_engine"`
	Checkpoints      int                  `json:"checkpoints,omitempty"`
	Restores         int                  `json:"restores,omitempty"`
	BackoffNS        int64                `json:"backoff_ns,omitempty"`
	Verified         int                  `json:"verified,omitempty"`
	VerifyMismatches int                  `json:"verify_mismatches,omitempty"`
	Spills           int                  `json:"spills,omitempty"`
	SpillErrors      int                  `json:"spill_errors,omitempty"`
	SpillBytes       int64                `json:"spill_bytes,omitempty"`
	LastSpillPath    string               `json:"last_spill_path,omitempty"`
	LastSpillStep    int                  `json:"last_spill_step,omitempty"`
	Events           []telemetry.SupEvent `json:"events,omitempty"`
	Err              string               `json:"error,omitempty"`
}

// MarshalJSON renders the report with stable field names, the engines as
// strings, and the terminal error flattened to its message, so reports embed
// cleanly in pochoir-postmortem bundles.
func (r Report) MarshalJSON() ([]byte, error) {
	j := reportJSON{
		Steps: r.Steps, StepsDone: r.StepsDone, Segments: r.Segments,
		Attempts: r.Attempts, Retries: r.Retries, Degradations: r.Degradations,
		FinalEngine: r.FinalEngine, Checkpoints: r.Checkpoints, Restores: r.Restores,
		BackoffNS: r.BackoffTotal.Nanoseconds(), Verified: r.Verified,
		VerifyMismatches: r.VerifyMismatches, Spills: r.Spills,
		SpillErrors: r.SpillErrors, SpillBytes: r.SpillBytes,
		LastSpillPath: r.LastSpillPath, LastSpillStep: r.LastSpillStep,
		Events: r.Events,
	}
	if r.Err != nil {
		j.Err = r.Err.Error()
	}
	return json.Marshal(j)
}

// UnmarshalJSON reverses MarshalJSON; a non-empty error string loads as an
// opaque error (the concrete type does not survive the wire).
func (r *Report) UnmarshalJSON(data []byte) error {
	var j reportJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*r = Report{
		Steps: j.Steps, StepsDone: j.StepsDone, Segments: j.Segments,
		Attempts: j.Attempts, Retries: j.Retries, Degradations: j.Degradations,
		FinalEngine: j.FinalEngine, Checkpoints: j.Checkpoints, Restores: j.Restores,
		BackoffTotal: time.Duration(j.BackoffNS), Verified: j.Verified,
		VerifyMismatches: j.VerifyMismatches, Spills: j.Spills,
		SpillErrors: j.SpillErrors, SpillBytes: j.SpillBytes,
		LastSpillPath: j.LastSpillPath, LastSpillStep: j.LastSpillStep,
		Events: j.Events,
	}
	if j.Err != "" {
		r.Err = errors.New(j.Err)
	}
	return nil
}
