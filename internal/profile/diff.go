package profile

// The hot-path regression sentinel: compare two attribution reports and
// flag the shifts that matter for a stencil compiler — the kernel share
// eroding or the walker's decomposition overhead growing. Benchlab fuses
// the verdicts into its warn-only baseline gate, and the profile smoke
// test requires the sentinel to flag an injected shift while staying
// silent across consecutive clean runs.

import "fmt"

// DefaultNoise is the absolute share shift (in fraction-of-CPU points)
// below which the sentinel stays silent. CPU profiles at the default 100Hz
// are sampled, so single-digit-percent wobble between clean runs is
// expected; 7 points clears it with margin while still catching the
// double-digit shifts a regressed hot path produces.
const DefaultNoise = 0.07

// Finding is one flagged hot-path shift.
type Finding struct {
	Metric   string  `json:"metric"` // "kernel_share", "walker_share", or "phase:<name>"
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Delta is Current - Baseline, in share points.
	Delta   float64 `json:"delta"`
	Message string  `json:"message"`
}

func (f Finding) String() string { return f.Message }

// Compare is the profile sentinel: it flags regressions in cur relative to
// base — kernel share falling, or walker overhead or the checkpoint phase
// rising, by more than DefaultNoise. Either report being nil, or either
// side holding too little CPU to be meaningful, yields no findings —
// absence of data is not a regression.
func Compare(base, cur *Report) []Finding {
	if base == nil || cur == nil {
		return nil
	}
	// Below ~50ms of sampled CPU a single 10ms sample swings shares by
	// >20 points; refuse to judge.
	if base.CPUSeconds < 0.05 || cur.CPUSeconds < 0.05 {
		return nil
	}
	n := DefaultNoise
	var out []Finding
	if d := cur.KernelShare - base.KernelShare; d < -n {
		out = append(out, Finding{
			Metric:   "kernel_share",
			Baseline: base.KernelShare,
			Current:  cur.KernelShare,
			Delta:    d,
			Message: fmt.Sprintf("kernel share fell %.1f points (%.1f%% -> %.1f%%): CPU is leaking out of the base-case kernels",
				-100*d, 100*base.KernelShare, 100*cur.KernelShare),
		})
	}
	if d := cur.WalkerShare - base.WalkerShare; d > n {
		out = append(out, Finding{
			Metric:   "walker_share",
			Baseline: base.WalkerShare,
			Current:  cur.WalkerShare,
			Delta:    d,
			Message: fmt.Sprintf("walker overhead rose %.1f points (%.1f%% -> %.1f%%): decomposition machinery is eating kernel time",
				100*d, 100*base.WalkerShare, 100*cur.WalkerShare),
		})
	}
	if d := cur.PhaseShares["checkpoint"] - base.PhaseShares["checkpoint"]; d > n {
		out = append(out, Finding{
			Metric:   "phase:checkpoint",
			Baseline: base.PhaseShares["checkpoint"],
			Current:  cur.PhaseShares["checkpoint"],
			Delta:    d,
			Message: fmt.Sprintf("checkpoint phase grew %.1f points (%.1f%% -> %.1f%%)",
				100*d, 100*base.PhaseShares["checkpoint"], 100*cur.PhaseShares["checkpoint"]),
		})
	}
	return out
}
