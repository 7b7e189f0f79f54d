package telemetry

import (
	"encoding/json"
	"fmt"
	"time"
)

// MarshalJSON renders the kind as its stable String() name, so supervisor
// decision logs embedded in post-mortem bundles and /statusz read as
// "segment-fail" rather than an opaque code.
func (k SupKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses the string name back (bundles round-trip through
// cmd/blackbox).
func (k *SupKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for c := SupSegmentStart; c <= SupResume; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown supervisor event kind %q", s)
}

// supEventJSON fixes SupEvent's wire field names independently of the Go
// field names, so bundles stay parseable across refactors.
type supEventJSON struct {
	TS      int64   `json:"ts_ns"`
	Kind    SupKind `json:"kind"`
	Segment int     `json:"segment"`
	Attempt int     `json:"attempt,omitempty"`
	Engine  string  `json:"engine,omitempty"`
	DelayNS int64   `json:"delay_ns,omitempty"`
	Count   int64   `json:"count,omitempty"`
	Err     string  `json:"error,omitempty"`
}

// MarshalJSON renders the event with stable field names and the kind as a
// string; the one-line String() rendering is unchanged.
func (e SupEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(supEventJSON{
		TS: e.TS, Kind: e.Kind, Segment: e.Segment, Attempt: e.Attempt,
		Engine: e.Engine, DelayNS: e.Delay.Nanoseconds(), Count: e.Count, Err: e.Err,
	})
}

// UnmarshalJSON reverses MarshalJSON.
func (e *SupEvent) UnmarshalJSON(data []byte) error {
	var j supEventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = SupEvent{
		TS: j.TS, Kind: j.Kind, Segment: j.Segment, Attempt: j.Attempt,
		Engine: j.Engine, Delay: time.Duration(j.DelayNS), Count: j.Count, Err: j.Err,
	}
	return nil
}
